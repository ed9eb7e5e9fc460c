"""Unit tests for the IMM-style adaptive sampling schedule."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.data.graph import SocialGraph
from repro.data.synthetic import SyntheticSocialDataset
from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import SketchError
from repro.obs.run import RunRecorder, recording
from repro.sketch.schedule import adaptive_rr_pool, log_binomial


@pytest.fixture
def planted_probs() -> EdgeProbabilities:
    data = SyntheticSocialDataset.digg_like(num_users=100, num_items=20, seed=2)
    return data.planted.edge_probabilities


def supercritical_probabilities() -> EdgeProbabilities:
    """800 nodes, in-degree 6 at P = 0.3: mean live in-degree 1.8.

    The live-edge graph has a giant component, so almost every RR set
    holds hundreds of nodes, the regime where the pool's members and
    their index outweigh everything else the schedule allocates.
    """
    n, degree = 800, 6
    rng = np.random.default_rng(0)
    edges = np.stack(
        [rng.integers(0, n, size=n * degree), np.repeat(np.arange(n), degree)],
        axis=1,
    )
    graph = SocialGraph(n, edges[edges[:, 0] != edges[:, 1]])
    return EdgeProbabilities(graph, np.full(graph.num_edges, 0.3))


class TestLogBinomial:
    @pytest.mark.parametrize("n,k", [(5, 2), (10, 0), (10, 10), (40, 7)])
    def test_matches_exact_binomial(self, n, k):
        assert log_binomial(n, k) == pytest.approx(math.log(math.comb(n, k)))

    def test_rejects_out_of_range(self):
        with pytest.raises(SketchError):
            log_binomial(3, 5)
        with pytest.raises(SketchError):
            log_binomial(3, -1)


class TestAdaptiveRRPool:
    def test_same_seed_reproduces_everything(self, planted_probs):
        pool_a, sched_a = adaptive_rr_pool(planted_probs, 3, seed=11)
        pool_b, sched_b = adaptive_rr_pool(planted_probs, 3, seed=11)
        np.testing.assert_array_equal(pool_a.indptr, pool_b.indptr)
        np.testing.assert_array_equal(pool_a.nodes, pool_b.nodes)
        assert sched_a == sched_b

    def test_schedule_transcript_consistent(self, planted_probs):
        pool, schedule = adaptive_rr_pool(planted_probs, 3, seed=1)
        assert schedule.generated_sketches == pool.num_sketches
        assert schedule.phases, "phase 1 must run at least one round"
        assert schedule.lower_bound >= 1.0
        if not schedule.capped:
            assert pool.num_sketches >= schedule.target_sketches
        # The certified bound comes from the stopping round's estimate.
        stopped = [p for p in schedule.phases if p["stopped"]]
        if stopped:
            eps_prime = math.sqrt(2.0) * schedule.epsilon
            assert schedule.lower_bound == pytest.approx(
                stopped[0]["greedy_estimate"] / (1.0 + eps_prime)
            )

    def test_cap_binds_and_is_recorded(self, planted_probs):
        pool, schedule = adaptive_rr_pool(
            planted_probs, 3, seed=1, max_sketches=50
        )
        assert schedule.capped
        assert pool.num_sketches <= 50

    def test_tighter_epsilon_needs_more_sketches(self, planted_probs):
        loose_pool, _ = adaptive_rr_pool(planted_probs, 2, epsilon=0.5, seed=3)
        tight_pool, _ = adaptive_rr_pool(planted_probs, 2, epsilon=0.2, seed=3)
        assert tight_pool.num_sketches > loose_pool.num_sketches

    def test_single_node_universe(self):
        graph = SocialGraph(1, [])
        probs = EdgeProbabilities(graph, np.empty(0))
        pool, schedule = adaptive_rr_pool(probs, 1, seed=0)
        assert pool.num_sketches == 1
        assert not schedule.capped

    def test_invalid_inputs(self, planted_probs):
        with pytest.raises(SketchError):
            adaptive_rr_pool(planted_probs, 101)
        with pytest.raises(SketchError):
            adaptive_rr_pool(planted_probs, 2, epsilon=0.0)
        with pytest.raises(SketchError):
            adaptive_rr_pool(planted_probs, 2, epsilon=1.5)
        with pytest.raises(SketchError):
            adaptive_rr_pool(planted_probs, 2, ell=-1.0)
        with pytest.raises(ValueError):
            adaptive_rr_pool(planted_probs, 0)

    @staticmethod
    def _rr_sets_sampled(run: RunRecorder) -> float:
        counter = run.metrics.snapshot().get("sketch.rr_sets", {})
        return sum(counter.get("samples", {}).values())

    def test_oversized_seed_set_rejected_before_sampling(self, planted_probs):
        run = RunRecorder(name="test.sketch")
        n = planted_probs.graph.num_nodes
        with recording(run):
            with pytest.raises(SketchError, match="exceeds"):
                adaptive_rr_pool(planted_probs, n + 1, seed=1)
        assert self._rr_sets_sampled(run) == 0
        # The same recorder does see the sets a valid pool samples.
        with recording(run):
            adaptive_rr_pool(planted_probs, 3, seed=1)
        assert self._rr_sets_sampled(run) > 0


class TestPoolMemory:
    #: Traced bytes per final pool member.  The int32 pool is 4 B a
    #: member and its inverted index another 4; int64 members with an
    #: index cached on every superseded pool traced 21 B here.
    MAX_BYTES_PER_MEMBER = 12.0

    def test_traced_peak_per_member(self):
        probs = supercritical_probabilities()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pool, _ = adaptive_rr_pool(probs, 5, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        members = pool.nodes.shape[0]
        assert members / pool.num_sketches > 300, "RR sets must be large"
        assert peak / members < self.MAX_BYTES_PER_MEMBER, (
            f"{peak / members:.1f} B per member over {members} members"
        )
