"""Run manifests: metrics + spans + config fingerprint for one run.

A :class:`RunRecorder` bundles the two telemetry sinks
(:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.tracing.Tracer`) with run identity — a fingerprinted
config (e.g. :class:`repro.core.inf2vec.Inf2vecConfig`), dataset
statistics, and free-form annotations — and serialises everything as a
single *run manifest* JSON.  The manifest is the artifact future
``BENCH_*.json`` entries cite: any perf claim can point at the manifest
of the run that produced it.

Opting in
---------
Telemetry is off by default (the ambient run is :data:`NULL_RUN`, whose
sinks are the shared null registry/tracer).  One way turns it on: wrap
any code in ``with recording(run):``, and every instrumented library
call inside the scope records into ``run``.  Span sites look the
ambient run up (:func:`active_run`); metrics are emitted through the
handles :mod:`repro.obs.catalog` declares with :class:`counter`,
:class:`gauge` and :class:`histogram`, each of which resolves the
ambient registry when its event happens.  Nothing takes a recorder or
registry argument.

``recording`` scopes nest (innermost wins) and are process-global, not
thread-local: one orchestrating scope is visible to worker threads,
which matches the registry's thread-safe increments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.ckpt.atomic import atomic_write_text
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.tracing import Tracer, NULL_TRACER

__all__ = [
    "METRIC_HANDLES",
    "RunRecorder",
    "NULL_RUN",
    "recording",
    "active_run",
    "active_metrics",
    "config_fingerprint",
    "counter",
    "gauge",
    "histogram",
    "MANIFEST_VERSION",
]

#: Schema version stamped into every manifest.
MANIFEST_VERSION = 1


def config_fingerprint(config: object) -> tuple[dict[str, object], str]:
    """``(payload, fingerprint)`` for any config-like object.

    Dataclasses are flattened with :func:`dataclasses.asdict` (nested
    configs included), mappings are copied, anything else falls back to
    its ``repr``.  The fingerprint is the first 16 hex chars of the
    SHA-256 of the canonical (sorted-key) JSON — stable across key
    order and processes, so equal configs always share a fingerprint.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload: dict[str, object] = dataclasses.asdict(config)
    elif isinstance(config, Mapping):
        payload = dict(config)
    else:
        payload = {"repr": repr(config)}
    canonical = json.dumps(payload, sort_keys=True, default=str)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return payload, digest


class RunRecorder:
    """Live telemetry sinks plus identity for one run.

    Parameters
    ----------
    name:
        Label stamped into the manifest (e.g. ``"inf2vec.fit"``).
    """

    enabled = True

    def __init__(self, name: str = "run"):
        self.name = name
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        # Manifest creation is stamped with absolute epoch time so runs
        # can be ordered across machines; no duration is derived from it.
        self.created_unix = time.time()  # lint: disable=no-wallclock-timing
        self._config_payload: dict[str, object] | None = None
        self._fingerprint: str | None = None
        self._dataset: dict[str, object] = {}
        self._annotations: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Recording surface
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: object):
        """Shorthand for ``self.tracer.span(...)``."""
        return self.tracer.span(name, **attributes)

    def set_config(self, config: object) -> None:
        """Fingerprint and attach the run's config (last call wins)."""
        self._config_payload, self._fingerprint = config_fingerprint(config)

    def set_dataset(self, **stats: object) -> None:
        """Merge dataset statistics (num_users, num_episodes, ...)."""
        self._dataset.update(stats)

    def annotate(self, **fields: object) -> None:
        """Merge free-form annotations (seed, git rev, host, ...)."""
        self._annotations.update(fields)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def manifest(self) -> dict[str, object]:
        """The JSON-ready run manifest combining all recorded state."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "name": self.name,
            "created_unix": self.created_unix,
            "config": {
                "values": self._config_payload,
                "fingerprint": self._fingerprint,
            },
            "dataset": dict(self._dataset),
            "annotations": dict(self._annotations),
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.to_dicts(),
        }

    def write(self, path: str | Path) -> Path:
        """Atomically serialise :meth:`manifest` to ``path`` and return it.

        A killed run can therefore never leave a half-written manifest
        that poisons later tooling: either the previous complete file
        survives or the new complete one is installed.
        """
        return atomic_write_text(
            path, json.dumps(self.manifest(), indent=2, default=str) + "\n"
        )

    def write_trace(self, path: str | Path) -> Path:
        """Write the span forest as JSONL (see ``Tracer.write_jsonl``)."""
        return self.tracer.write_jsonl(path)

    @staticmethod
    def load_manifest(path: str | Path) -> dict[str, object]:
        """Load a manifest written by :meth:`write`."""
        return json.loads(Path(path).read_text())

    def __repr__(self) -> str:
        return f"RunRecorder(name={self.name!r}, metrics={len(self.metrics.names())})"


class _NullRunRecorder:
    """The disabled recorder: null sinks, every mutation a no-op."""

    enabled = False
    name = "null"
    metrics = NULL_REGISTRY
    tracer = NULL_TRACER

    def span(self, name: str, **attributes: object):
        return NULL_TRACER.span(name, **attributes)

    def set_config(self, config: object) -> None:
        pass

    def set_dataset(self, **stats: object) -> None:
        pass

    def annotate(self, **fields: object) -> None:
        pass

    def manifest(self) -> dict[str, object]:
        return {}

    def __repr__(self) -> str:
        return "NullRunRecorder()"


#: Shared disabled recorder — the ambient default.
NULL_RUN = _NullRunRecorder()

#: Stack of active recorders; the innermost ``recording`` scope wins.
_ACTIVE: list[RunRecorder] = []


@contextmanager
def recording(run: RunRecorder) -> Iterator[RunRecorder]:
    """Make ``run`` the ambient recorder for the duration of the scope.

    ``recording(NULL_RUN)`` turns recording off inside an outer scope.
    """
    _ACTIVE.append(run)
    try:
        yield run
    finally:
        _ACTIVE.pop()


def active_run() -> RunRecorder:
    """The innermost active recorder, or :data:`NULL_RUN` when none is."""
    return _ACTIVE[-1] if _ACTIVE else NULL_RUN  # type: ignore[return-value]


def active_metrics() -> MetricsRegistry:
    """The active recorder's registry (null registry when disabled)."""
    return active_run().metrics


#: Every declared metric handle, by metric name.
METRIC_HANDLES: dict[str, "_Handle"] = {}


class _Handle:
    """One declared metric, bound per event to the ambient registry.

    On each event the handle reads :func:`active_metrics`; when that is
    not the registry it last bound to (compared by identity) it rebinds
    through the registry's get-or-create.  ``(registry, instrument)``
    is one tuple attribute, so a thread never sees half of a rebind.  A
    service built outside ``recording()`` and queried inside it thus
    records into the active run, and a forked worker under
    ``recording(NULL_RUN)`` rebinds to the null registry.
    """

    __slots__ = ("name", "labels", "description", "_bound")

    def __init__(self, name: str, labels: Sequence[str], description: str):
        if name in METRIC_HANDLES:
            raise ValueError(f"duplicate metric declaration: {name}")
        self.name = name
        self.labels = tuple(labels)
        self.description = description
        self._bound: tuple[object, object] = (None, None)
        METRIC_HANDLES[name] = self

    def _instrument(self):
        registry = active_metrics()
        bound = self._bound
        if bound[0] is not registry:
            bound = self._bound = (registry, self._create(registry))
        return bound[1]


class counter(_Handle):
    """A declared counter; its one mutator is :meth:`inc`."""

    __slots__ = ()
    kind = "counter"

    def _create(self, registry: MetricsRegistry):
        return registry.counter(self.name, self.description)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled value."""
        self._instrument().inc(amount, **labels)


class gauge(_Handle):
    """A declared gauge; its one mutator is :meth:`set`."""

    __slots__ = ()
    kind = "gauge"

    def _create(self, registry: MetricsRegistry):
        return registry.gauge(self.name, self.description)

    def set(self, value: float, **labels: object) -> None:
        """Record ``value`` for the label set."""
        self._instrument().set(value, **labels)


class histogram(_Handle):
    """A declared fixed-bucket histogram: :meth:`observe`, :meth:`observe_many`."""

    __slots__ = ("buckets",)
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Sequence[str],
        description: str,
        buckets: Sequence[float],
    ):
        super().__init__(name, labels, description)
        self.buckets = tuple(float(edge) for edge in buckets)

    def _create(self, registry: MetricsRegistry):
        return registry.histogram(self.name, self.buckets, self.description)

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation."""
        self._instrument().observe(value, **labels)

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        """Record a batch of observations in one vectorised pass."""
        self._instrument().observe_many(values, **labels)
