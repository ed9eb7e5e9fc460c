"""Unit tests for the Node2vec baseline."""

import numpy as np
import pytest

from repro.baselines.node2vec import Node2vecModel, biased_walk, walk_contexts
from repro.data.actionlog import ActionLog
from repro.data.graph import SocialGraph
from repro.errors import NotFittedError
from repro.utils.rng import ensure_rng
from tests.oracles import context_rows


@pytest.fixture
def graph() -> SocialGraph:
    # Two communities joined by one bridge.
    edges = [(0, 1), (1, 0), (1, 2), (2, 0), (0, 2)]
    edges += [(3, 4), (4, 3), (4, 5), (5, 3), (3, 5)]
    edges += [(2, 3)]
    return SocialGraph(6, edges)


class TestBiasedWalk:
    def test_walk_length(self, graph):
        walk = biased_walk(graph, 0, 10, p=1.0, q=1.0, rng=ensure_rng(0))
        assert len(walk) == 10
        assert walk[0] == 0

    def test_walk_follows_edges(self, graph):
        walk = biased_walk(graph, 0, 20, p=1.0, q=1.0, rng=ensure_rng(0))
        for a, b in zip(walk, walk[1:]):
            assert graph.has_edge(a, b)

    def test_sink_ends_walk(self):
        chain = SocialGraph(3, [(0, 1), (1, 2)])
        walk = biased_walk(chain, 0, 10, p=1.0, q=1.0, rng=ensure_rng(0))
        assert walk == [0, 1, 2]

    def test_low_p_returns_often(self, graph):
        rng = ensure_rng(0)
        returns = 0
        for _ in range(50):
            walk = biased_walk(graph, 0, 3, p=0.01, q=1.0, rng=rng)
            if len(walk) == 3 and walk[2] == walk[0]:
                returns += 1
        rng = ensure_rng(0)
        returns_high_p = 0
        for _ in range(50):
            walk = biased_walk(graph, 0, 3, p=100.0, q=1.0, rng=rng)
            if len(walk) == 3 and walk[2] == walk[0]:
                returns_high_p += 1
        assert returns > returns_high_p


class TestWalkContexts:
    def test_window(self):
        contexts = walk_contexts([1, 2, 3, 4], window=1)
        by_user = {user: local for user, local, _ in context_rows(contexts)}
        assert by_user[1] == (2,)
        assert by_user[2] == (1, 3)
        assert by_user[4] == (3,)

    def test_no_global_component(self):
        contexts = walk_contexts([1, 2], window=2)
        assert all(global_ == () for _, _, global_ in context_rows(contexts))

    def test_single_node_walk_empty(self):
        assert len(walk_contexts([7], window=2)) == 0


class TestNode2vecModel:
    def test_community_structure_learned(self, graph):
        log = ActionLog([], num_users=6)
        model = Node2vecModel(
            dim=8, walks_per_node=10, walk_length=10, window=3, epochs=5,
            learning_rate=0.05, seed=0,
        ).fit(graph, log)
        emb = model.embedding()
        # Same-community scores exceed cross-community scores on average.
        within = np.mean([emb.score(0, 1), emb.score(1, 2), emb.score(3, 4)])
        across = np.mean([emb.score(0, 4), emb.score(1, 5), emb.score(5, 0)])
        assert within > across

    def test_biases_disabled(self, graph):
        log = ActionLog([], num_users=6)
        model = Node2vecModel(dim=4, epochs=1, seed=0).fit(graph, log)
        emb = model.embedding()
        assert np.all(emb.source_bias == 0)
        assert np.all(emb.target_bias == 0)

    def test_generate_walks_count(self, graph):
        model = Node2vecModel(walks_per_node=2, walk_length=5, seed=0)
        walks = model.generate_walks(graph)
        # Every node has out-edges, so all 6 * 2 walks have length > 1.
        assert len(walks) == 12

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            Node2vecModel().embedding()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Node2vecModel(p=0.0)
        with pytest.raises(ValueError):
            Node2vecModel(walk_length=0)
