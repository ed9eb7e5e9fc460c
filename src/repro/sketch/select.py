"""Greedy max-coverage seed selection over an RR-sketch pool.

With a pool of RR sets in hand, influence maximisation reduces to
max-coverage: pick the ``k`` nodes covering the most sketches, because
the covered fraction times ``num_nodes`` is the unbiased spread
estimate.  Greedy keeps one count per node, the uncovered sketches
that contain it.  Each round takes the largest count, then subtracts
the members of every sketch the pick newly covers.  A sketch is
covered once, so its members are subtracted once: the whole selection
is one pass over the flattened pool plus ``k`` argmax scans over the
universe, with no heap and no stale marginal gains to re-evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SketchError
from repro.obs.catalog import SKETCH_SELECTIONS
from repro.obs.run import active_run
from repro.sketch.rrsets import RRSketchPool
from repro.utils.validation import check_positive_int

__all__ = ["max_coverage_seeds"]

#: Most members gathered per count decrement: bounds the temporary
#: position and member arrays of one :func:`np.bincount` call.
DECREMENT_CHUNK = 1 << 18


@dataclass(frozen=True)
class MaxCoverageResult:
    """Outcome of greedy max-coverage selection over a sketch pool.

    Attributes
    ----------
    seeds:
        Chosen nodes in selection order.
    marginal_counts:
        Newly covered sketches contributed by each pick.
    covered_sketches:
        Total sketches covered by the final seed set.
    coverage_fraction:
        ``covered_sketches / num_sketches`` (0.0 for an empty pool);
        times ``num_nodes`` this is the RIS spread estimate.
    """

    seeds: tuple[int, ...]
    marginal_counts: tuple[int, ...]
    covered_sketches: int
    coverage_fraction: float


def _decrement(
    counts: np.ndarray, pool: RRSketchPool, sketches: np.ndarray
) -> None:
    """Subtract the members of ``sketches`` from ``counts`` in place.

    The members are gathered in runs of whole sketches holding at most
    :data:`DECREMENT_CHUNK` members (a larger sketch is one run).
    """
    starts = pool.indptr[sketches]
    lengths = pool.indptr[sketches + 1] - starts
    ends = np.cumsum(lengths)
    lo = 0
    while lo < sketches.shape[0]:
        base = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, base + DECREMENT_CHUNK, side="right"))
        hi = max(hi, lo + 1)
        # Member j of sketch i sits at starts[i] + j in the pool and at
        # ends[i] - lengths[i] - base + j in the run.
        run = slice(lo, hi)
        positions = np.arange(int(ends[hi - 1]) - base, dtype=np.int64)
        positions += np.repeat(
            starts[run] - (ends[run] - lengths[run] - base), lengths[run]
        )
        counts -= np.bincount(pool.nodes[positions], minlength=counts.shape[0])
        lo = hi


def max_coverage_seeds(
    pool: RRSketchPool,
    num_seeds: int,
) -> MaxCoverageResult:
    """Greedy max-coverage over ``pool`` by coverage-count decrement.

    Parameters
    ----------
    pool:
        The RR-sketch pool to cover.
    num_seeds:
        Size ``k`` of the seed set; every node of the pool's universe
        is a candidate, so ``k`` may not exceed ``pool.num_nodes``.

    Notes
    -----
    Selection is deterministic: each round takes ``argmax`` of the
    counts, so equal-coverage ties resolve to the smallest node id
    regardless of pool construction order.  A chosen node's count is
    set to -1, so once every count is 0 the remaining picks come in
    ascending id order.
    """
    num_seeds = check_positive_int("num_seeds", num_seeds)
    if num_seeds > pool.num_nodes:
        raise SketchError(
            f"num_seeds={num_seeds} exceeds {pool.num_nodes} nodes"
        )

    with active_run().span(
        "sketch.select", num_seeds=num_seeds, num_sketches=pool.num_sketches
    ):
        node_indptr, node_sketches = pool.inverted()
        # A node's index row lists the sketches holding it, so the row
        # lengths are the coverage counts.
        counts = np.diff(node_indptr).astype(np.int64)
        covered = np.zeros(pool.num_sketches, dtype=bool)
        chosen: list[int] = []
        gains: list[int] = []
        for _ in range(num_seeds):
            node = int(np.argmax(counts))
            chosen.append(node)
            gains.append(int(counts[node]))
            containing = node_sketches[node_indptr[node] : node_indptr[node + 1]]
            fresh = containing[~covered[containing]]
            covered[fresh] = True
            _decrement(counts, pool, fresh)
            counts[node] = -1

        covered_total = int(np.count_nonzero(covered))
        fraction = (
            covered_total / pool.num_sketches if pool.num_sketches else 0.0
        )
        SKETCH_SELECTIONS.inc()

    return MaxCoverageResult(
        seeds=tuple(chosen),
        marginal_counts=tuple(gains),
        covered_sketches=covered_total,
        coverage_fraction=fraction,
    )
