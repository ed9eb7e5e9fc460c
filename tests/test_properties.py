"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aggregation import ave, latest, maximum, total
from repro.core.context import ContextConfig
from repro.core.embeddings import InfluenceEmbedding
from repro.core.negative import NegativeSampler
from repro.core.pairs import extract_episode_pairs
from repro.core.propagation import PropagationNetwork
from repro.data.actionlog import ActionLog, DiffusionEpisode
from repro.data.graph import SocialGraph
from repro.diffusion.ic import activation_probability, simulate_ic
from repro.diffusion.probabilities import EdgeProbabilities
from repro.eval.metrics import average_precision, precision_at_n, ranking_auc
from repro.utils.rng import ensure_rng

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

NODE_COUNT = 8


@st.composite
def graphs(draw) -> SocialGraph:
    """Small directed graphs without self-loops."""
    possible = [
        (u, v) for u in range(NODE_COUNT) for v in range(NODE_COUNT) if u != v
    ]
    edges = draw(st.lists(st.sampled_from(possible), max_size=20))
    return SocialGraph(NODE_COUNT, edges)


@st.composite
def episodes(draw) -> DiffusionEpisode:
    """Episodes over the same node universe with distinct users."""
    users = draw(
        st.lists(
            st.integers(0, NODE_COUNT - 1), unique=True, min_size=0, max_size=NODE_COUNT
        )
    )
    times = draw(
        st.lists(
            st.floats(0, 100, allow_nan=False),
            min_size=len(users),
            max_size=len(users),
        )
    )
    return DiffusionEpisode(0, list(zip(users, times)))


score_lists = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
)


# ----------------------------------------------------------------------
# Graph properties
# ----------------------------------------------------------------------


class TestGraphProperties:
    @given(graphs())
    def test_degree_sums_equal_edge_count(self, graph):
        assert graph.out_degrees().sum() == graph.num_edges
        assert graph.in_degrees().sum() == graph.num_edges

    @given(graphs())
    def test_adjacency_consistency(self, graph):
        """u lists v as out-neighbour iff v lists u as in-neighbour."""
        for u in graph.nodes():
            for v in graph.out_neighbors(u):
                assert u in graph.in_neighbors(int(v))
        for v in graph.nodes():
            for u in graph.in_neighbors(v):
                assert v in graph.out_neighbors(int(u))

    @given(graphs())
    def test_reverse_involution(self, graph):
        assert graph.reverse().reverse() == graph

    @given(graphs())
    def test_edge_array_roundtrip(self, graph):
        rebuilt = SocialGraph(graph.num_nodes, graph.edge_array())
        assert rebuilt == graph


# ----------------------------------------------------------------------
# Episode / pair properties
# ----------------------------------------------------------------------


class TestEpisodeProperties:
    @given(episodes())
    def test_times_sorted(self, episode):
        assert np.all(np.diff(episode.times) >= 0)

    @given(episodes())
    def test_users_unique(self, episode):
        assert len(set(episode.users.tolist())) == len(episode)

    @given(graphs(), episodes())
    def test_pairs_satisfy_definition_one(self, graph, episode):
        """Every extracted pair is an edge with strict time order."""
        for source, target in extract_episode_pairs(graph, episode):
            assert graph.has_edge(int(source), int(target))
            assert episode.time_of(int(source)) < episode.time_of(int(target))

    @given(graphs(), episodes())
    def test_propagation_network_is_dag(self, graph, episode):
        # Compact position is adoption order: every successor edge goes
        # from a lower to a higher position, which is what makes the
        # network a DAG and what the batched walk relies on.
        network = PropagationNetwork.from_episode(graph, episode)
        indptr, indices = network.successor_csr()
        sources = np.repeat(np.arange(network.num_nodes), np.diff(indptr))
        assert np.all(sources < indices)

    @given(graphs(), episodes())
    def test_propagation_nodes_are_adopters(self, graph, episode):
        network = PropagationNetwork.from_episode(graph, episode)
        assert set(network.nodes.tolist()) == set(episode.users.tolist())


# ----------------------------------------------------------------------
# Action-log split properties
# ----------------------------------------------------------------------


class TestSplitProperties:
    @given(
        st.integers(1, 30),
        st.integers(0, 2**31 - 1),
    )
    def test_split_partitions(self, num_episodes, seed):
        episodes_list = [
            DiffusionEpisode(i, [(i % NODE_COUNT, 0.0)]) for i in range(num_episodes)
        ]
        log = ActionLog(episodes_list, num_users=NODE_COUNT)
        parts = log.split((0.5, 0.3, 0.2), seed=seed)
        items = sorted(item for part in parts for item in part.items())
        assert items == sorted(log.items())


# ----------------------------------------------------------------------
# Metric properties
# ----------------------------------------------------------------------


class TestMetricProperties:
    @given(score_lists, st.data())
    def test_auc_in_unit_interval(self, scores, data):
        labels = data.draw(
            st.lists(
                st.integers(0, 1), min_size=len(scores), max_size=len(scores)
            )
        )
        auc = ranking_auc(scores, labels)
        if not np.isnan(auc):
            assert 0.0 <= auc <= 1.0

    @given(score_lists, st.data())
    def test_auc_antisymmetric_under_label_flip(self, scores, data):
        labels = data.draw(
            st.lists(
                st.integers(0, 1), min_size=len(scores), max_size=len(scores)
            )
        )
        auc = ranking_auc(scores, labels)
        flipped = ranking_auc(scores, [1 - l for l in labels])
        if not np.isnan(auc) and not np.isnan(flipped):
            assert auc + flipped == pytest.approx(1.0)

    @given(score_lists, st.data())
    def test_ap_in_unit_interval(self, scores, data):
        labels = data.draw(
            st.lists(
                st.integers(0, 1), min_size=len(scores), max_size=len(scores)
            )
        )
        ap = average_precision(scores, labels)
        if not np.isnan(ap):
            assert 0.0 < ap <= 1.0

    @given(score_lists, st.data(), st.integers(1, 40))
    def test_precision_bounded_by_positive_count(self, scores, data, n):
        labels = data.draw(
            st.lists(
                st.integers(0, 1), min_size=len(scores), max_size=len(scores)
            )
        )
        precision = precision_at_n(scores, labels, n)
        assert 0.0 <= precision <= 1.0
        assert precision * n <= sum(labels) + 1e-9

    @given(score_lists)
    def test_aggregator_order_relations(self, scores):
        arr = np.asarray(scores)
        # np.mean's summation can round a hair above the true mean (and
        # hence above the max when all entries are equal); allow ulp-level
        # slack scaled to the data.
        slack = np.finfo(np.float64).eps * np.abs(arr).max() * arr.shape[0]
        assert maximum(arr) >= ave(arr) - slack
        assert maximum(arr) >= latest(arr)
        assert total(arr) == pytest.approx(ave(arr) * arr.shape[0], rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# Sampler / probability properties
# ----------------------------------------------------------------------


class TestSamplerProperties:
    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20).filter(
            lambda w: sum(w) > 0
        ),
        st.integers(0, 2**31 - 1),
    )
    def test_samples_within_support(self, weights, seed):
        sampler = NegativeSampler(np.asarray(weights))
        draws = sampler.sample(100, ensure_rng(seed))
        assert draws.min() >= 0
        assert draws.max() < len(weights)
        # Zero-weight users are never drawn.
        for user in np.unique(draws):
            assert weights[int(user)] > 0

    @given(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=10))
    def test_eq8_bounds_and_monotonicity(self, probs):
        combined = activation_probability(probs)
        assert 0.0 <= combined <= 1.0
        if probs:
            assert combined >= max(probs) - 1e-12
        extended = activation_probability(probs + [0.5])
        assert extended >= combined - 1e-12


# ----------------------------------------------------------------------
# Simulation properties
# ----------------------------------------------------------------------


class TestSimulationProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(graphs(), st.integers(0, 2**31 - 1), st.data())
    def test_cascade_contains_seeds_and_no_duplicates(self, graph, seed, data):
        seeds = data.draw(
            st.lists(
                st.integers(0, NODE_COUNT - 1), min_size=1, max_size=4, unique=True
            )
        )
        probs = EdgeProbabilities.constant(graph, 0.5)
        activated = simulate_ic(probs, seeds, seed=seed).tolist()
        assert len(set(activated)) == len(activated)
        assert set(seeds) <= set(activated)

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(graphs(), st.integers(0, 2**31 - 1))
    def test_cascade_respects_reachability(self, graph, seed):
        probs = EdgeProbabilities.constant(graph, 1.0)
        activated = simulate_ic(probs, [0], seed=seed)
        # With p=1 the cascade is exactly the set reachable from node 0.
        reachable = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nxt in graph.out_neighbors(node):
                nxt = int(nxt)
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        assert set(activated.tolist()) == reachable


# ----------------------------------------------------------------------
# Embedding / context properties
# ----------------------------------------------------------------------


class TestEmbeddingProperties:
    @given(st.integers(1, 20), st.integers(1, 10), st.integers(0, 2**31 - 1))
    def test_initialize_bounds(self, num_users, dim, seed):
        emb = InfluenceEmbedding.initialize(num_users, dim, seed)
        assert np.all(np.abs(emb.source) <= 1.0 / dim + 1e-12)
        assert np.all(np.abs(emb.target) <= 1.0 / dim + 1e-12)

    @given(st.integers(1, 20), st.integers(0, 2**31 - 1))
    def test_save_load_roundtrip(self, num_users, seed):
        import tempfile

        from repro.serve import EmbeddingStore

        emb = InfluenceEmbedding.initialize(num_users, 3, seed)
        with tempfile.TemporaryDirectory() as tmp:
            EmbeddingStore.save(emb, tmp)
            loaded = EmbeddingStore.open(tmp)
            assert np.array_equal(loaded.source, emb.source)
            assert np.array_equal(loaded.target_bias, emb.target_bias)

    @given(st.integers(1, 100), st.floats(0.0, 1.0))
    def test_context_budgets_sum_to_length(self, length, alpha):
        config = ContextConfig(length=length, alpha=alpha)
        assert config.local_budget + config.global_budget == length
        assert config.local_budget >= 0
        assert config.global_budget >= 0
