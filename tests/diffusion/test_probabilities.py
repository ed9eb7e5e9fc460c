"""Unit tests for the edge-probability table."""

import numpy as np
import pytest

from repro.data.graph import SocialGraph
from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import GraphError


@pytest.fixture
def graph() -> SocialGraph:
    return SocialGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


class TestConstruction:
    def test_constant(self, graph):
        probs = EdgeProbabilities.constant(graph, 0.3)
        assert probs.get(0, 1) == 0.3
        assert probs.values.shape == (4,)

    def test_from_function(self, graph):
        probs = EdgeProbabilities.from_function(
            graph, lambda u, v: (u + v) / 10.0
        )
        assert probs.get(2, 3) == pytest.approx(0.5)

    def test_from_dict_with_default(self, graph):
        probs = EdgeProbabilities.from_dict(graph, {(0, 1): 0.9}, default=0.1)
        assert probs.get(0, 1) == 0.9
        assert probs.get(1, 2) == 0.1

    def test_wrong_length_rejected(self, graph):
        with pytest.raises(GraphError, match="expected 4"):
            EdgeProbabilities(graph, np.array([0.1, 0.2]))

    def test_out_of_range_rejected(self, graph):
        with pytest.raises(GraphError, match="\\[0, 1\\]"):
            EdgeProbabilities(graph, np.array([0.1, 0.2, 0.3, 1.5]))
        with pytest.raises(GraphError):
            EdgeProbabilities(graph, np.array([0.1, 0.2, 0.3, -0.1]))

    def test_empty_graph(self):
        graph = SocialGraph(3, [])
        probs = EdgeProbabilities(graph, np.empty(0))
        assert probs.values.shape == (0,)


class TestQueries:
    def test_get_non_edge_raises(self, graph):
        probs = EdgeProbabilities.constant(graph, 0.5)
        with pytest.raises(GraphError, match="not an edge"):
            probs.get(3, 0)

    def test_get_or_zero(self, graph):
        probs = EdgeProbabilities.constant(graph, 0.5)
        assert probs.get_or_zero(0, 1) == 0.5
        assert probs.get_or_zero(3, 0) == 0.0

    def test_out_of_range_ids_match_no_edge(self):
        # Packed as u * num_nodes + v, (0, 6) and (1, -1) would alias the
        # real edges (1, 2) and (0, 3).
        graph = SocialGraph(4, [(0, 3), (1, 2)])
        probs = EdgeProbabilities(graph, np.array([0.7, 0.2]))
        for source, target in [(0, 6), (1, -1), (-1, 3), (4, 0), (5, 2)]:
            with pytest.raises(GraphError, match="not an edge"):
                probs.get(source, target)
            assert probs.get_or_zero(source, target) == 0.0
        assert probs.get(0, 3) == 0.7 and probs.get(1, 2) == 0.2

    def test_lookup_matches_edge_order_on_a_random_graph(self):
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 30, size=(200, 2))
        graph = SocialGraph(30, [(u, v) for u, v in pairs if u != v])
        probs = EdgeProbabilities(graph, rng.random(graph.num_edges))
        for (u, v), value in zip(graph.edge_array(), probs.values):
            assert probs.get(u, v) == value
        for u in range(30):
            for v in range(30):
                expected = probs.get(u, v) if graph.has_edge(u, v) else 0.0
                assert probs.get_or_zero(u, v) == expected

    def test_out_edges_alignment(self, graph):
        probs = EdgeProbabilities.from_function(graph, lambda u, v: v / 10.0)
        targets, values = probs.out_edges(0)
        assert targets.tolist() == [1, 2]
        assert values.tolist() == pytest.approx([0.1, 0.2])

    def test_out_edges_sink(self, graph):
        probs = EdgeProbabilities.constant(graph, 0.5)
        targets, values = probs.out_edges(3)
        assert targets.shape == (0,)
        assert values.shape == (0,)

    def test_values_canonical_order(self, graph):
        probs = EdgeProbabilities.from_function(
            graph, lambda u, v: (u * 10 + v) / 100.0
        )
        expected = [(u * 10 + v) / 100.0 for u, v in graph.edge_array()]
        np.testing.assert_allclose(probs.values, expected)
