"""Unit tests for greedy max-coverage selection by count decrement."""

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketch import select
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


def pool_of(num_nodes, sketches):
    """A pool holding ``sketches``, a list of distinct-member arrays."""
    indptr = np.concatenate([[0], np.cumsum([len(m) for m in sketches])])
    nodes = np.concatenate(sketches) if sketches else np.empty(0, np.int64)
    return RRSketchPool(num_nodes, indptr, nodes)


def random_pool(num_nodes, num_sketches, seed, low=1, high=5):
    """Sketches of ``[low, high)`` distinct random members each."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(low, high, size=num_sketches)
    return pool_of(
        num_nodes, [rng.choice(num_nodes, size=s, replace=False) for s in sizes]
    )


def assert_matches_oracle(pool, num_seeds):
    """Seeds, marginal counts and covered total equal the brute-force run."""
    result = max_coverage_seeds(pool, num_seeds)
    seeds, gains, covered = brute_force_greedy(pool, num_seeds)
    assert result.seeds == seeds
    assert result.marginal_counts == gains
    assert result.covered_sketches == covered
    return result


class TestMaxCoverage:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_brute_force_greedy(self, seed):
        pool = random_pool(num_nodes=10, num_sketches=40, seed=seed)
        result = max_coverage_seeds(pool, 4)
        seeds, gains, covered = brute_force_greedy(pool, 4)
        assert result.seeds == seeds
        assert result.marginal_counts == gains
        assert result.covered_sketches == covered

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_node_chosen_zero_gain_tail_ascending(self, seed):
        # Nodes 0, 3, 7 and 11 appear in no sketch.
        rng = np.random.default_rng(seed)
        members = np.array([1, 2, 4, 5, 6, 8, 9, 10])
        pool = pool_of(
            12,
            [rng.choice(members, size=int(rng.integers(1, 4)), replace=False)
             for _ in range(25)],
        )
        result = assert_matches_oracle(pool, pool.num_nodes)
        assert sorted(result.seeds) == list(range(12))
        gains = np.array(result.marginal_counts)
        tail = [s for s, g in zip(result.seeds, gains) if g == 0]
        assert tail == sorted(tail)
        assert {0, 3, 7, 11} <= set(tail)
        assert result.covered_sketches == pool.num_sketches

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_duplicated_sketches(self, seed):
        rng = np.random.default_rng(seed)
        base = random_pool(num_nodes=9, num_sketches=15, seed=seed)
        sketches = [
            base.sketch(i)
            for i in range(base.num_sketches)
            for _ in range(int(rng.integers(1, 4)))
        ]
        assert_matches_oracle(pool_of(9, sketches), 5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_node_in_every_sketch(self, seed):
        rng = np.random.default_rng(seed)
        others = np.array([0, 1, 2, 3, 4, 5, 6, 8, 9])
        pool = pool_of(
            10,
            [np.append(rng.choice(others, size=int(rng.integers(0, 4)),
                                  replace=False), 7)
             for _ in range(30)],
        )
        result = assert_matches_oracle(pool, 4)
        assert result.seeds[0] == 7
        assert result.marginal_counts == (30, 0, 0, 0)
        assert result.seeds[1:] == (0, 1, 2)

    @pytest.mark.parametrize("chunk", [1 << 20, 64, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_sketches(self, seed, chunk, monkeypatch):
        # ~50 members a sketch; a 7-member chunk splits every sketch's
        # decrement into its own run, 64 groups one or two sketches.
        monkeypatch.setattr(select, "DECREMENT_CHUNK", chunk)
        pool = random_pool(num_nodes=80, num_sketches=40, seed=seed,
                           low=40, high=61)
        assert_matches_oracle(pool, 12)

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
