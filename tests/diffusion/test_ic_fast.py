"""Unit tests for the vectorised IC simulator (equivalence with the loop)."""

import time

import numpy as np
import pytest

from repro.data.graph import SocialGraph
from repro.data.synthetic import GraphConfig, generate_power_law_graph
from repro.diffusion.ic import simulate_ic, simulate_ic_fast
from repro.diffusion.montecarlo import activation_frequencies
from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import GraphError


@pytest.fixture
def chain_probs() -> EdgeProbabilities:
    graph = SocialGraph(4, [(0, 1), (1, 2), (2, 3)])
    return EdgeProbabilities.constant(graph, 1.0)


class TestDeterministicEquivalence:
    def test_p_one_chain(self, chain_probs):
        result = simulate_ic_fast(chain_probs, [0], seed=0)
        assert result.activated.tolist() == [0, 1, 2, 3]
        assert result.activation_round.tolist() == [0, 1, 2, 3]

    def test_p_zero(self):
        graph = SocialGraph(3, [(0, 1), (1, 2)])
        probs = EdgeProbabilities.constant(graph, 0.0)
        result = simulate_ic_fast(probs, [0], seed=0)
        assert result.activated.tolist() == [0]

    def test_reachability_with_p_one(self):
        graph = generate_power_law_graph(GraphConfig(num_users=100), seed=2)
        probs = EdgeProbabilities.constant(graph, 1.0)
        slow = simulate_ic(probs, [5], seed=0)
        fast = simulate_ic_fast(probs, [5], seed=0)
        assert slow.activated_set() == fast.activated_set()

    def test_duplicate_seeds_collapse(self, chain_probs):
        result = simulate_ic_fast(chain_probs, [0, 0], seed=0)
        assert result.activated.tolist()[:1] == [0]

    def test_max_rounds(self, chain_probs):
        result = simulate_ic_fast(chain_probs, [0], seed=0, max_rounds=2)
        assert result.activated.tolist() == [0, 1, 2]

    def test_seed_out_of_range(self, chain_probs):
        with pytest.raises(GraphError):
            simulate_ic_fast(chain_probs, [9], seed=0)

    def test_empty_seeds(self, chain_probs):
        assert simulate_ic_fast(chain_probs, [], seed=0).size == 0


class TestStatisticalEquivalence:
    def test_activation_frequencies_agree(self):
        """Slow and fast simulators must estimate the same distribution."""
        graph = generate_power_law_graph(GraphConfig(num_users=60), seed=3)
        probs = EdgeProbabilities.constant(graph, 0.15)
        rng = np.random.default_rng(0)
        counts = np.zeros(graph.num_nodes)
        for _ in range(3000):
            counts[simulate_ic(probs, [0, 1], rng).activated] += 1
        fast = activation_frequencies(probs, [0, 1], num_runs=3000, seed=1)
        np.testing.assert_allclose(counts / 3000, fast, atol=0.05)

    def test_per_node_single_chance_semantics(self):
        graph = SocialGraph(2, [(0, 1)])
        probs = EdgeProbabilities.constant(graph, 0.5)
        freqs = activation_frequencies(probs, [0], num_runs=4000, seed=0)
        assert freqs[1] == pytest.approx(0.5, abs=0.03)

    def test_multi_exposure_semantics(self):
        """Two independent 0.5 attempts give 0.75 activation probability."""
        graph = SocialGraph(3, [(0, 2), (1, 2)])
        probs = EdgeProbabilities.constant(graph, 0.5)
        freqs = activation_frequencies(probs, [0, 1], num_runs=4000, seed=0)
        assert freqs[2] == pytest.approx(0.75, abs=0.03)


class TestSpeed:
    def test_fast_is_not_slower_on_dense_cascades(self):
        graph = generate_power_law_graph(GraphConfig(num_users=300), seed=4)
        probs = EdgeProbabilities.constant(graph, 0.3)
        seeds = [0, 1, 2]

        start = time.perf_counter()
        for k in range(30):
            simulate_ic(probs, seeds, seed=k)
        slow_elapsed = time.perf_counter() - start

        start = time.perf_counter()
        for k in range(30):
            simulate_ic_fast(probs, seeds, seed=k)
        fast_elapsed = time.perf_counter() - start
        # Generous bound: the vectorised path must at least keep pace.
        assert fast_elapsed < slow_elapsed * 1.5
