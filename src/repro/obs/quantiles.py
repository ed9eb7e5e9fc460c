"""Streaming quantile estimation for live telemetry.

Serving a query stream at rate means latency quantiles must be
available *while the process runs*, without retaining every sample —
the post-hoc ``sorted(latencies)`` approach of the benchmark drivers
does not survive into a long-lived ``repro serve`` process.  The one
bounded-memory estimator lives here and feeds the ``Summary``
instrument in :mod:`repro.obs.metrics`:

* :class:`ReservoirSampler` — a fixed-capacity uniform reservoir
  (Vitter's algorithm R) driven by an explicitly seeded
  ``numpy.random.Generator`` per the repository's ``no-global-rng``
  invariant.  *Exact* for any quantile while the stream fits in the
  reservoir, an unbiased sample estimate beyond it; count/sum/min/max
  are always exact.

Benchmark acceptance compares live quantiles against exact post-hoc
ones, and below capacity the two are identical by construction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import TelemetryError

__all__ = [
    "DEFAULT_RESERVOIR_CAPACITY",
    "ReservoirSampler",
    "check_quantile",
]

#: Default reservoir size: exact quantiles for the first 4096
#: observations per label set, ~32 KiB of float64 at saturation.
DEFAULT_RESERVOIR_CAPACITY = 4096


def check_quantile(q: float) -> float:
    """Validate that ``q`` is a quantile in ``[0, 1]`` and return it."""
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile must be in [0, 1], got {q}")
    return q


class ReservoirSampler:
    """Fixed-capacity uniform sample of a stream, plus exact moments.

    Vitter's algorithm R over an explicitly seeded Generator: the first
    ``capacity`` observations are kept verbatim (quantiles are then
    *exact*); beyond that each new observation replaces a uniformly
    chosen slot with probability ``capacity / count``, keeping the
    reservoir a uniform sample of the whole stream.  ``count``,
    ``total``, ``minimum``, and ``maximum`` are tracked exactly
    regardless of capacity.
    """

    __slots__ = ("capacity", "_rng", "_values", "_count", "_total", "_min", "_max")

    def __init__(
        self, capacity: int = DEFAULT_RESERVOIR_CAPACITY, seed: int = 0
    ):
        capacity = int(capacity)
        if capacity <= 0:
            raise TelemetryError(
                f"reservoir capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._values = np.empty(capacity, dtype=np.float64)
        self._count = 0
        self._total = 0.0
        self._min = np.inf
        self._max = -np.inf

    @property
    def count(self) -> int:
        """Exact number of observations seen."""
        return self._count

    @property
    def total(self) -> float:
        """Exact sum of every observation."""
        return self._total

    @property
    def minimum(self) -> float | None:
        """Exact minimum (``None`` before any data)."""
        return None if self._count == 0 else float(self._min)

    @property
    def maximum(self) -> float | None:
        """Exact maximum (``None`` before any data)."""
        return None if self._count == 0 else float(self._max)

    @property
    def exact(self) -> bool:
        """Whether quantiles are currently exact (stream fits in reservoir)."""
        return self._count <= self.capacity

    def observe(self, value: float) -> None:
        """Fold one observation into the reservoir."""
        value = float(value)
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._count < self.capacity:
            self._values[self._count] = value
        else:
            slot = int(self._rng.integers(0, self._count + 1))
            if slot < self.capacity:
                self._values[slot] = value
        self._count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations, one at a time."""
        for value in values:
            self.observe(value)

    def samples(self) -> np.ndarray:
        """Copy of the retained sample values (unordered)."""
        return self._values[: min(self._count, self.capacity)].copy()

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (``None`` before any data).

        Linear-interpolated over the retained sample — identical to
        ``np.percentile`` over the full stream while :attr:`exact`.
        """
        q = check_quantile(q)
        if self._count == 0:
            return None
        return float(np.quantile(self.samples(), q))

    def quantiles(self, qs: Sequence[float]) -> list[float | None]:
        """Batch :meth:`quantile` for several targets."""
        return [self.quantile(q) for q in qs]

    def __repr__(self) -> str:
        return (
            f"ReservoirSampler(capacity={self.capacity}, "
            f"count={self._count}, exact={self.exact})"
        )
