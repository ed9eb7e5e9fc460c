"""Unit tests for lazy-greedy max-coverage selection."""

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketch.rrsets import RRSketchPool
from repro.sketch.select import max_coverage_seeds


def brute_force_greedy(pool, num_seeds):
    """Reference greedy: full re-scan per round, smallest-id tie-break."""
    nodes = list(range(pool.num_nodes))
    covered = np.zeros(pool.num_sketches, dtype=bool)
    seeds, gains = [], []
    for _ in range(num_seeds):
        best_node, best_gain = None, -1
        for node in nodes:
            if node in seeds:
                continue
            gain = int(np.count_nonzero(~covered[pool.sketches_containing(node)]))
            if gain > best_gain:
                best_node, best_gain = node, gain
        seeds.append(best_node)
        gains.append(best_gain)
        covered[pool.sketches_containing(best_node)] = True
    return tuple(seeds), tuple(gains), int(np.count_nonzero(covered))


def random_pool(num_nodes, num_sketches, seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, size=num_sketches)
    nodes = np.concatenate(
        [rng.choice(num_nodes, size=s, replace=False) for s in sizes]
    )
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    return RRSketchPool(num_nodes, indptr, nodes)


class TestMaxCoverage:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_brute_force_greedy(self, seed):
        pool = random_pool(num_nodes=10, num_sketches=40, seed=seed)
        result = max_coverage_seeds(pool, 4)
        seeds, gains, covered = brute_force_greedy(pool, 4)
        assert result.seeds == seeds
        assert result.marginal_counts == gains
        assert result.covered_sketches == covered

    def test_tie_breaks_to_smallest_node(self):
        # Nodes 2 and 5 each cover one distinct sketch; 2 must win.
        pool = RRSketchPool(6, np.array([0, 1, 2]), np.array([5, 2]))
        result = max_coverage_seeds(pool, 1)
        assert result.seeds == (2,)

    def test_coverage_fraction(self):
        pool = RRSketchPool(4, np.array([0, 1, 2, 3]), np.array([0, 0, 3]))
        result = max_coverage_seeds(pool, 1)
        assert result.seeds == (0,)
        assert result.covered_sketches == 2
        assert result.coverage_fraction == pytest.approx(2 / 3)

    def test_gains_non_increasing(self):
        pool = random_pool(num_nodes=15, num_sketches=60, seed=9)
        result = max_coverage_seeds(pool, 6)
        gains = list(result.marginal_counts)
        assert gains == sorted(gains, reverse=True)

    def test_empty_pool_selects_by_tie_break(self):
        result = max_coverage_seeds(RRSketchPool.empty(3), 2)
        assert result.seeds == (0, 1)
        assert result.coverage_fraction == 0.0

    def test_invalid_inputs(self):
        pool = random_pool(num_nodes=5, num_sketches=10, seed=0)
        with pytest.raises(SketchError, match="exceeds"):
            max_coverage_seeds(pool, pool.num_nodes + 1)
        with pytest.raises(ValueError):
            max_coverage_seeds(pool, 0)
