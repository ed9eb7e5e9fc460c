"""Process-local metrics registry: counters, gauges, histograms.

The registry is the numeric half of the :mod:`repro.obs` telemetry
layer (spans being the other half, see :mod:`repro.obs.tracing`).
Instruments are *labelled*: one ``Counter`` object holds a value per
label set, so ``TRAIN_EPOCH_LOSS.set(l, epoch=3)`` keeps every epoch's
loss addressable in one instrument.  Library code never names an
instrument by string: it calls a handle declared in
:mod:`repro.obs.catalog`, which binds through the registry's
get-or-create below.

Design contract (see DESIGN.md, "Observability"):

* **Null by default, zero overhead.**  Instrumented library code never
  talks to a live registry unless the caller opted in.  The shared
  :data:`NULL_REGISTRY` answers ``enabled == False`` and hands out a
  single no-op instrument, so the hot-path guard is one attribute
  read; per-step bookkeeping (e.g. restart counting inside the
  batched random walk) must additionally sit behind an
  ``if active_metrics().enabled:`` check so the disabled path does no
  extra arithmetic.
* **Thread-safe increments.**  All mutations of one registry go
  through a single registry-wide lock; ``snapshot()`` therefore sees a
  consistent cut even while worker threads increment counters.
* **Fixed-bucket histograms.**  Buckets are declared at creation time
  and observations are binned with ``searchsorted`` — bucket ``i``
  counts values in ``(buckets[i-1], buckets[i]]`` and the final
  overflow bin counts values above the last edge.  Latency is
  recorded into histograms too: their memory is bounded, per-worker
  bucket counts merge by addition, and the exposition format renders
  them natively, so live percentiles come from ``histogram_quantile``
  over the ``_bucket`` series rather than from a second instrument.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import TelemetryError

__all__ = ["MetricsRegistry", "NULL_REGISTRY", "TelemetryError"]


def _label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    """Canonical, hashable form of a label set (values stringified)."""
    if not labels:
        return ()
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _labels_text(key: tuple[tuple[str, str], ...]) -> str:
    """Render a canonical label key as ``"k1=v1,k2=v2"`` (``""`` if bare)."""
    return ",".join(f"{name}={value}" for name, value in key)


class _Instrument:
    """Base of all live instruments; mutation goes through the registry lock."""

    kind = "instrument"

    def __init__(self, name: str, description: str, lock: threading.Lock):
        self.name = name
        self.description = description
        self._lock = lock

    def _sample_dicts(self) -> dict[str, object]:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_dict(self) -> dict[str, object]:
        """JSON-ready snapshot of this instrument."""
        with self._lock:
            samples = self._sample_dicts()
        return {
            "type": self.kind,
            "description": self.description,
            "samples": samples,
        }


class Counter(_Instrument):
    """Monotonically increasing value per label set."""

    kind = "counter"

    def __init__(self, name: str, description: str, lock: threading.Lock):
        super().__init__(name, description, lock)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled value."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value for the label set (0.0 if never incremented)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return float(sum(self._values.values()))

    def _sample_dicts(self) -> dict[str, object]:
        return {_labels_text(key): value for key, value in self._values.items()}


class Gauge(_Instrument):
    """Last-written value per label set (can move both ways)."""

    kind = "gauge"

    def __init__(self, name: str, description: str, lock: threading.Lock):
        super().__init__(name, description, lock)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Record ``value`` for the label set, replacing any previous one."""
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def value(self, **labels: object) -> float | None:
        """Last recorded value for the label set (``None`` if unset)."""
        with self._lock:
            return self._values.get(_label_key(labels))

    def _sample_dicts(self) -> dict[str, object]:
        return {_labels_text(key): value for key, value in self._values.items()}


class _HistogramState:
    __slots__ = ("counts", "total", "count")

    def __init__(self, num_buckets: int):
        self.counts = np.zeros(num_buckets + 1, dtype=np.int64)
        self.total = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket histogram per label set.

    Bucket ``i`` counts observations ``v`` with
    ``buckets[i-1] < v <= buckets[i]`` (the first bucket takes
    everything ``<= buckets[0]``); the trailing overflow bin counts
    ``v > buckets[-1]``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str,
        lock: threading.Lock,
        buckets: Sequence[float],
    ):
        super().__init__(name, description, lock)
        edges = np.asarray(sorted(float(b) for b in buckets), dtype=np.float64)
        if edges.size == 0:
            raise TelemetryError(f"histogram {self.name!r} needs >= 1 bucket")
        if np.unique(edges).size != edges.size:
            raise TelemetryError(
                f"histogram {name!r} has duplicate bucket edges: {buckets}"
            )
        self._buckets = edges
        self._states: dict[tuple[tuple[str, str], ...], _HistogramState] = {}

    @property
    def buckets(self) -> tuple[float, ...]:
        """The (sorted) bucket upper edges."""
        return tuple(self._buckets.tolist())

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation."""
        self.observe_many((value,), **labels)

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        """Record a batch of observations in one vectorised pass."""
        array = np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=np.float64,
        )
        if array.size == 0:
            return
        indices = np.searchsorted(self._buckets, array, side="left")
        binned = np.bincount(indices, minlength=self._buckets.size + 1)
        key = _label_key(labels)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _HistogramState(self._buckets.size)
            state.counts += binned
            state.total += float(array.sum())
            state.count += int(array.size)

    def count(self, **labels: object) -> int:
        """Number of observations for the label set."""
        with self._lock:
            state = self._states.get(_label_key(labels))
            return state.count if state is not None else 0

    def _sample_dicts(self) -> dict[str, object]:
        samples: dict[str, object] = {}
        for key, state in self._states.items():
            samples[_labels_text(key)] = {
                "buckets": self._buckets.tolist(),
                "counts": state.counts.tolist(),
                "count": state.count,
                "sum": state.total,
                "mean": state.total / state.count if state.count else 0.0,
            }
        return samples


class MetricsRegistry:
    """Process-local collection of named instruments.

    ``counter``/``gauge``/``histogram`` get-or-create by name, so call
    sites never need to coordinate instrument construction; asking for
    an existing name with a different instrument type (or different
    histogram buckets) raises :class:`TelemetryError` instead of
    silently splitting the series.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, name: str, factory) -> _Instrument:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the named counter."""
        instrument = self._get_or_create(
            name, lambda: Counter(name, description, self._lock)
        )
        if not isinstance(instrument, Counter):
            raise TelemetryError(
                f"{name!r} is a {instrument.kind}, not a counter"
            )
        return instrument

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the named gauge."""
        instrument = self._get_or_create(
            name, lambda: Gauge(name, description, self._lock)
        )
        if not isinstance(instrument, Gauge):
            raise TelemetryError(f"{name!r} is a {instrument.kind}, not a gauge")
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        description: str = "",
    ) -> Histogram:
        """Get or create the named fixed-bucket histogram."""
        instrument = self._get_or_create(
            name, lambda: Histogram(name, description, self._lock, buckets)
        )
        if not isinstance(instrument, Histogram):
            raise TelemetryError(
                f"{name!r} is a {instrument.kind}, not a histogram"
            )
        if instrument.buckets != tuple(
            sorted(float(b) for b in buckets)
        ):
            raise TelemetryError(
                f"histogram {name!r} already registered with buckets "
                f"{instrument.buckets}, got {tuple(buckets)}"
            )
        return instrument

    def names(self) -> list[str]:
        """Registered instrument names, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """JSON-ready ``{name: instrument dict}`` view of every instrument."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: inst.to_dict() for name, inst in sorted(instruments.items())}

    # ``to_dict`` is the exporter-facing alias of ``snapshot``.
    to_dict = snapshot


class _NullInstrument:
    """One shared no-op object standing in for every instrument type."""

    __slots__ = ()
    kind = "null"
    name = "null"
    buckets: tuple[float, ...] = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels: object) -> int:
        return 0

    def to_dict(self) -> dict[str, object]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: hands out no-op instruments, records nothing.

    ``enabled`` is ``False`` so hot paths can skip even the bookkeeping
    that *feeds* an instrument (the zero-overhead contract); calling an
    instrument method anyway is a harmless no-op.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, description: str = "") -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, description: str = "") -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: Sequence[float], description: str = ""
    ) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {}

    to_dict = snapshot


#: Shared disabled registry — the default telemetry sink everywhere.
NULL_REGISTRY = NullRegistry()
