"""Unit tests for per-episode propagation networks (Definition 3)."""

import numpy as np
import pytest

from repro.core.propagation import PropagationNetwork, build_propagation_networks
from repro.data.actionlog import DiffusionEpisode
from repro.data.graph import SocialGraph
from repro.errors import GraphError


def successor_lists(net):
    """Original-ID successors of every node, read from the CSR arrays."""
    indptr, indices = net.successor_csr()
    nodes = net.nodes
    return {
        int(nodes[k]): nodes[indices[indptr[k] : indptr[k + 1]]].tolist()
        for k in range(net.num_nodes)
    }


class TestFromEpisode:
    def test_fig5_network(self, tiny_graph, fig5_episode):
        net = PropagationNetwork.from_episode(tiny_graph, fig5_episode)
        assert net.num_nodes == 5
        assert net.num_edges == 4
        assert {tuple(e) for e in net.edge_array()} == {
            (3, 4),
            (1, 2),
            (3, 0),
            (2, 0),
        }

    def test_successors_and_predecessors(self, tiny_graph, fig5_episode):
        net = PropagationNetwork.from_episode(tiny_graph, fig5_episode)
        # Each slice is ordered by original ID, not by edge arrival
        # ((3, 4) is extracted before (3, 0)); u5 (4) and u1 (0) are
        # sinks.
        successors = successor_lists(net)
        assert successors == {3: [0, 4], 1: [2], 2: [0], 4: [], 0: []}
        assert net.out_degrees().tolist() == [2, 1, 1, 0, 0]
        # u1 (0) was influenced by u4 (3) and u3 (2).
        assert sorted(u for u, vs in successors.items() if 0 in vs) == [2, 3]

    def test_isolated_adopters_kept_in_nodes(self):
        graph = SocialGraph(3, [(0, 1)])
        episode = DiffusionEpisode(0, [(2, 1.0), (0, 2.0), (1, 3.0)])
        net = PropagationNetwork.from_episode(graph, episode)
        assert net.nodes.tolist() == [2, 0, 1]
        assert successor_lists(net) == {2: [], 0: [1], 1: []}

    def test_successor_edges_point_forward(self, tiny_graph, fig5_episode):
        # Compact position is adoption order, so every edge of the DAG
        # goes from a lower to a higher position.
        net = PropagationNetwork.from_episode(tiny_graph, fig5_episode)
        indptr, indices = net.successor_csr()
        sources = np.repeat(np.arange(net.num_nodes), np.diff(indptr))
        assert indices.shape == (net.num_edges,)
        assert np.all(sources < indices)

    def test_item_preserved(self, tiny_graph, fig5_episode):
        net = PropagationNetwork.from_episode(tiny_graph, fig5_episode)
        assert net.item == fig5_episode.item


class TestValidation:
    def test_edge_endpoint_must_be_adopter(self):
        with pytest.raises(GraphError, match="not an adopter"):
            PropagationNetwork(
                0, np.array([0, 1]), np.array([[0, 2]])
            )


class TestBuildAll:
    def test_keyed_by_item(self, tiny_graph, tiny_log):
        networks = build_propagation_networks(tiny_graph, tiny_log)
        assert set(networks) == {0, 1}
        assert networks[0].item == 0
        assert networks[1].num_nodes == 3
