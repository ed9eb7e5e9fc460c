"""Unit tests for Monte-Carlo spread estimation."""

import inspect

import numpy as np
import pytest

from repro.data.graph import SocialGraph
from repro.diffusion.montecarlo import (
    PAPER_NUM_RUNS,
    activation_frequencies,
    expected_spread,
    spread_with_standard_error,
)
from repro.diffusion.probabilities import EdgeProbabilities
from repro.sketch.rrsets import RRGenerator, RRSketchPool
from tests.oracles import (
    IC_NUM_NODES,
    ic_probabilities,
    live_edge_worlds,
    reached,
)


@pytest.fixture
def chain_probs() -> EdgeProbabilities:
    graph = SocialGraph(3, [(0, 1), (1, 2)])
    return EdgeProbabilities.constant(graph, 0.5)


class TestFrequencies:
    def test_seeds_always_active(self, chain_probs):
        freqs = activation_frequencies(chain_probs, [0], num_runs=200, seed=0)
        assert freqs[0] == 1.0

    def test_frequencies_match_theory(self, chain_probs):
        freqs = activation_frequencies(chain_probs, [0], num_runs=5000, seed=0)
        assert freqs[1] == pytest.approx(0.5, abs=0.03)
        assert freqs[2] == pytest.approx(0.25, abs=0.03)

    def test_paper_num_runs(self):
        # §V: "we run 5000 Monte-Carlo simulations per estimate", and
        # that is every referee's default.
        assert PAPER_NUM_RUNS == 5000
        for estimator in (activation_frequencies, expected_spread):
            default = inspect.signature(estimator).parameters["num_runs"]
            assert default.default == PAPER_NUM_RUNS

    def test_monotone_along_chain(self, chain_probs):
        freqs = activation_frequencies(chain_probs, [0], num_runs=2000, seed=0)
        assert freqs[0] >= freqs[1] >= freqs[2]

    def test_invalid_runs(self, chain_probs):
        with pytest.raises(ValueError):
            activation_frequencies(chain_probs, [0], num_runs=0)


class TestSpread:
    def test_expected_spread_theory(self, chain_probs):
        # E[size] = 1 + 0.5 + 0.25 = 1.75
        spread = expected_spread(chain_probs, [0], num_runs=5000, seed=0)
        assert spread == pytest.approx(1.75, abs=0.06)

    def test_deterministic_graph_zero_error(self):
        graph = SocialGraph(2, [(0, 1)])
        probs = EdgeProbabilities.constant(graph, 1.0)
        mean, stderr = spread_with_standard_error(probs, [0], num_runs=50, seed=0)
        assert mean == 2.0
        assert stderr == 0.0

    def test_single_run_standard_error(self, chain_probs):
        _, stderr = spread_with_standard_error(chain_probs, [0], num_runs=1, seed=0)
        assert stderr == 0.0

    def test_spread_increases_with_seeds(self, chain_probs):
        one = expected_spread(chain_probs, [0], num_runs=1000, seed=0)
        two = expected_spread(chain_probs, [0, 2], num_runs=1000, seed=0)
        assert two > one


class TestExactOracle:
    """The surviving spread referees against exact IC by enumeration.

    Under IC a cascade from ``S`` activates exactly the nodes reachable
    from ``S`` in a random live-edge graph that keeps each edge ``e``
    independently with probability ``p_e``.  With 12 edges all 4,096
    worlds can be enumerated, which gives ``sigma(S)``, the variance of
    the cascade size, and each node's activation probability exactly.
    Each estimate must land within 4 of its own standard errors.
    """

    NUM_NODES = IC_NUM_NODES
    SEED_SETS = ([0], [2, 5], [7])

    @pytest.fixture
    def probs(self) -> EdgeProbabilities:
        return ic_probabilities()

    @staticmethod
    def _enumerate(seeds):
        """Exact ``(sigma, Var[size], per-node activation probability)``."""
        mean = mean_square = 0.0
        activation = np.zeros(IC_NUM_NODES)
        for weight, live_edges in live_edge_worlds():
            live: dict[int, list[int]] = {}
            for u, v in live_edges:
                live.setdefault(u, []).append(v)
            active = reached(live, seeds)
            mean += weight * len(active)
            mean_square += weight * len(active) ** 2
            activation[list(active)] += weight
        return mean, mean_square - mean**2, activation

    def test_enumeration_is_a_distribution(self):
        sigma, _, activation = self._enumerate([0])
        assert activation[0] == pytest.approx(1.0)
        assert sigma == pytest.approx(activation.sum())

    @pytest.mark.parametrize("seeds", SEED_SETS)
    def test_expected_spread(self, probs, seeds):
        sigma, variance, _ = self._enumerate(seeds)
        runs = 4000
        estimate = expected_spread(probs, seeds, num_runs=runs, seed=11)
        assert abs(estimate - sigma) <= 4.0 * np.sqrt(variance / runs)

    @pytest.mark.parametrize("seeds", SEED_SETS)
    def test_activation_frequencies(self, probs, seeds):
        _, _, exact = self._enumerate(seeds)
        runs = 4000
        freqs = activation_frequencies(probs, seeds, num_runs=runs, seed=12)
        standard_error = np.sqrt(exact * (1.0 - exact) / runs)
        assert np.all(np.abs(freqs - exact) <= 4.0 * standard_error + 1e-12)

    @pytest.mark.parametrize("seeds", SEED_SETS)
    def test_rr_sketch_spread_estimate(self, probs, seeds):
        sigma, _, _ = self._enumerate(seeds)
        sketches = 20_000
        pool = RRSketchPool(
            self.NUM_NODES, *RRGenerator(probs, seed=13).generate(sketches)
        )
        # Each sketch is hit by S with probability sigma(S) / n.
        hit = sigma / self.NUM_NODES
        standard_error = self.NUM_NODES * np.sqrt(hit * (1.0 - hit) / sketches)
        estimate = pool.spread_estimate(seeds)
        assert abs(estimate - sigma) <= 4.0 * standard_error
