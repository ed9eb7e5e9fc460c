"""Lazy-greedy max-coverage seed selection over an RR-sketch pool.

With a pool of RR sets in hand, influence maximisation reduces to
max-coverage: pick the ``k`` nodes covering the most sketches, because
the covered fraction times ``num_nodes`` is the unbiased spread
estimate.  Coverage is submodular, so the classic CELF lazy-heap
optimisation applies: a node's marginal coverage can only shrink as
seeds accumulate, stale heap entries are re-evaluated only when they
surface, and each re-evaluation is one bool-gather over the node's
inverted-index row — total work near-linear in the flattened pool
size instead of O(k · |V| · pool).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import SketchError
from repro.obs.catalog import SKETCH_LAZY_EVALUATIONS, SKETCH_SELECTIONS
from repro.obs.run import active_run
from repro.sketch.rrsets import RRSketchPool
from repro.utils.validation import check_positive_int

__all__ = ["max_coverage_seeds"]


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


def max_coverage_seeds(
    pool: RRSketchPool,
    num_seeds: int,
) -> MaxCoverageResult:
    """CELF-style lazy greedy max-coverage over ``pool``.

    Parameters
    ----------
    pool:
        The RR-sketch pool to cover.
    num_seeds:
        Size ``k`` of the seed set; every node of the pool's universe
        is a candidate, so ``k`` may not exceed ``pool.num_nodes``.

    Notes
    -----
    Selection is deterministic: the heap orders by (marginal coverage,
    node id), so equal-coverage ties always resolve to the smallest
    node id regardless of pool construction order.
    """
    num_seeds = check_positive_int("num_seeds", num_seeds)
    if num_seeds > pool.num_nodes:
        raise SketchError(
            f"num_seeds={num_seeds} exceeds {pool.num_nodes} nodes"
        )

    with active_run().span(
        "sketch.select", num_seeds=num_seeds, num_sketches=pool.num_sketches
    ):
        counts = pool.coverage_counts()
        # Max-heap of (-marginal, node, round_evaluated); node id breaks
        # ties deterministically.
        heap: list[tuple[int, int, int]] = [
            (-int(counts[node]), node, 0) for node in range(pool.num_nodes)
        ]
        heapq.heapify(heap)

        covered = np.zeros(pool.num_sketches, dtype=bool)
        chosen: list[int] = []
        gains: list[int] = []
        lazy_evaluations = 0
        while len(chosen) < num_seeds and heap:
            neg_gain, node, evaluated_round = heapq.heappop(heap)
            if evaluated_round == len(chosen):
                chosen.append(node)
                gains.append(-neg_gain)
                covered[pool.sketches_containing(node)] = True
            else:
                fresh = int(
                    np.count_nonzero(~covered[pool.sketches_containing(node)])
                )
                heapq.heappush(heap, (-fresh, node, len(chosen)))
                lazy_evaluations += 1

        covered_total = int(np.count_nonzero(covered))
        fraction = (
            covered_total / pool.num_sketches if pool.num_sketches else 0.0
        )
        SKETCH_SELECTIONS.inc()
        SKETCH_LAZY_EVALUATIONS.inc(lazy_evaluations)

    return MaxCoverageResult(
        seeds=tuple(chosen),
        marginal_counts=tuple(gains),
        covered_sketches=covered_total,
        coverage_fraction=fraction,
    )
