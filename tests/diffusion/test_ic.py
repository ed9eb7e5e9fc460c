"""Unit tests for the Independent Cascade simulator."""

import numpy as np
import pytest

from repro.data.graph import SocialGraph
from repro.diffusion.ic import activation_probability, simulate_ic
from repro.diffusion.montecarlo import activation_frequencies, expected_spread
from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import GraphError
from repro.obs.run import RunRecorder, recording


@pytest.fixture
def chain_probs() -> EdgeProbabilities:
    graph = SocialGraph(4, [(0, 1), (1, 2), (2, 3)])
    return EdgeProbabilities.constant(graph, 1.0)


class TestSimulation:
    def test_deterministic_chain_activates_all(self, chain_probs):
        activated = simulate_ic(chain_probs, [0], seed=0)
        assert activated.dtype == np.int64
        assert activated.tolist() == [0, 1, 2, 3]

    def test_zero_probability_stops_at_seed(self):
        graph = SocialGraph(3, [(0, 1), (1, 2)])
        probs = EdgeProbabilities.constant(graph, 0.0)
        assert simulate_ic(probs, [0], seed=0).tolist() == [0]

    def test_duplicate_seeds_collapse(self, chain_probs):
        activated = simulate_ic(chain_probs, [1, 0, 1, 0], seed=0)
        assert activated.tolist() == [1, 0, 2, 3]

    def test_seed_out_of_range(self, chain_probs):
        with pytest.raises(GraphError):
            simulate_ic(chain_probs, [9], seed=0)

    def test_empty_seed_set(self, chain_probs):
        assert simulate_ic(chain_probs, [], seed=0).size == 0

    def test_each_round_in_ascending_id(self):
        # Star 0 -> {3, 1, 2} then 1 -> 4: round 1 is [1, 2, 3], round 2 [4].
        graph = SocialGraph(5, [(0, 3), (0, 1), (0, 2), (1, 4)])
        probs = EdgeProbabilities.constant(graph, 1.0)
        assert simulate_ic(probs, [0], seed=0).tolist() == [0, 1, 2, 3, 4]

    def test_single_activation_attempt_semantics(self):
        # u gets ONE chance per neighbour: with p=0.5 over many runs the
        # activation frequency of a leaf must be ~0.5, not higher.
        graph = SocialGraph(2, [(0, 1)])
        probs = EdgeProbabilities.constant(graph, 0.5)
        rng = np.random.default_rng(0)
        activations = sum(
            simulate_ic(probs, [0], rng).size - 1 for _ in range(4000)
        )
        assert activations / 4000 == pytest.approx(0.5, abs=0.03)

    def test_multi_exposure_semantics(self):
        """Two independent 0.5 attempts give 0.75 activation probability."""
        graph = SocialGraph(3, [(0, 2), (1, 2)])
        probs = EdgeProbabilities.constant(graph, 0.5)
        freqs = activation_frequencies(probs, [0, 1], num_runs=4000, seed=0)
        assert freqs[2] == pytest.approx(0.75, abs=0.03)

    def test_diamond_converges_once(self):
        # 0 -> {1, 2} -> 3 with p=1: node 3 activates exactly once.
        graph = SocialGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        probs = EdgeProbabilities.constant(graph, 1.0)
        assert simulate_ic(probs, [0], seed=0).tolist() == [0, 1, 2, 3]


class TestTelemetry:
    def test_one_record_per_simulation(self, chain_probs):
        run = RunRecorder(name="test.ic")
        with recording(run):
            expected_spread(chain_probs, [0], num_runs=7, seed=0)
        snapshot = run.metrics.snapshot()
        assert snapshot["diffusion.ic.simulations"]["samples"] == {"": 7.0}
        rounds = snapshot["diffusion.ic.rounds"]["samples"][""]
        spread = snapshot["diffusion.ic.spread"]["samples"][""]
        # Three rounds activate 1, 2, 3; the fourth finds no out-edges.
        assert (rounds["count"], rounds["sum"]) == (7, 28.0)
        assert (spread["count"], spread["sum"]) == (7, 28.0)


class TestEq8:
    def test_closed_form(self):
        assert activation_probability([0.5, 0.5]) == pytest.approx(0.75)
        assert activation_probability([1.0, 0.0]) == pytest.approx(1.0)
        assert activation_probability([0.0, 0.0]) == pytest.approx(0.0)

    def test_empty_is_zero(self):
        assert activation_probability([]) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            activation_probability([1.5])

    def test_monotone_in_extra_friends(self):
        base = activation_probability([0.3])
        more = activation_probability([0.3, 0.2])
        assert more > base
