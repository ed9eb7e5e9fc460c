"""Per-episode influence propagation networks (Definition 3).

Combining all the influence pairs of a single diffusion episode yields
the *influence propagation network* ``G_i = (V_i, E_i)``: a subgraph of
the social network whose edges all point forward in adoption time.
Because of the strict time ordering, ``G_i`` is a directed acyclic
graph (each node may have several parents and several children — Fig 5
of the paper).

The propagation network is the substrate of Algorithm 1's random walk
(local influence context); its node set ``V_i`` — everyone who adopted
the item *and* touched at least one influence pair, plus isolated
adopters — supplies the global user-similarity samples.

Adjacency is stored in CSR form (offset/indices arrays) over *compact*
node positions ``0 .. |V_i|-1`` (chronological adopter order), which is
what lets Algorithm 1's random walk advance every walker of an episode
simultaneously with fancy indexing — see
:func:`repro.core.context.batched_random_walk_with_restart`.

Because every fit over one log (parameter sweeps, repeated runs of an
experiment) extracts the same networks, they are
memoised per action log — :func:`cached_propagation_networks` keys the
cache on action-log identity and drops entries automatically when the
log is garbage collected.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core.pairs import extract_episode_pairs
from repro.data.actionlog import DiffusionEpisode
from repro.data.graph import SocialGraph
from repro.errors import GraphError
from repro.obs.run import active_metrics

if TYPE_CHECKING:
    from repro.data.actionlog import ActionLog


class PropagationNetwork:
    """A directed acyclic influence-propagation graph for one episode.

    :attr:`nodes` and :meth:`edge_array` hold *original* social-network
    IDs; adjacency is CSR over compact positions into :attr:`nodes`, so
    the batched walk gathers whole frontiers at once
    (:meth:`successor_csr`).

    Parameters
    ----------
    item:
        The episode's item identifier.
    adopters:
        Every user that adopted the item, in chronological order.
        Adopters with no incident influence pair are still members of
        ``nodes`` — the paper samples the *global* context uniformly
        from ``V_i``, i.e. from all adopters of the item.
    edges:
        ``(m, 2)`` array of influence pairs ``(earlier, later)``.
    """

    def __init__(self, item: int, adopters: np.ndarray, edges: np.ndarray):
        self._item = int(item)
        self._adopters = np.asarray(adopters, dtype=np.int64)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self._edges = edges
        num_nodes = int(self._adopters.shape[0])

        # Original-ID -> compact-position mapping via a sorted copy;
        # adopters are unique so searchsorted resolves exactly.
        self._sort_order = np.argsort(self._adopters, kind="stable")
        self._sorted_adopters = self._adopters[self._sort_order]

        compact = self.compact_indices(edges.ravel()).reshape(-1, 2)

        # Successor CSR.  Each slice is sorted by the successors'
        # original IDs, so a seeded walk's choices do not depend on the
        # order the edges arrived in.
        sources = compact[:, 0]
        self._out_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(sources, minlength=num_nodes), out=self._out_indptr[1:]
        )
        self._out_compact = compact[np.lexsort((edges[:, 1], sources)), 1]

    @classmethod
    def from_episode(
        cls, graph: SocialGraph, episode: DiffusionEpisode
    ) -> "PropagationNetwork":
        """Extract the propagation network of ``episode`` within ``graph``."""
        edges = extract_episode_pairs(graph, episode)
        return cls(episode.item, episode.users, edges)

    @property
    def item(self) -> int:
        """Item identifier of the underlying episode."""
        return self._item

    @property
    def nodes(self) -> np.ndarray:
        """All adopters of the item, in chronological order (``V_i``)."""
        return self._adopters

    @property
    def num_nodes(self) -> int:
        """``|V_i|``."""
        return int(self._adopters.shape[0])

    @property
    def num_edges(self) -> int:
        """``|E_i|``."""
        return int(self._edges.shape[0])

    def edge_array(self) -> np.ndarray:
        """Influence-pair edges as an ``(m, 2)`` int64 array."""
        return self._edges.copy()

    # ------------------------------------------------------------------
    # Vectorised access (batched random walk)
    # ------------------------------------------------------------------

    def successor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Successor adjacency as CSR ``(indptr, indices)`` arrays.

        Both arrays are in *compact* positions: node ``k`` is
        ``nodes[k]``, and ``indices[indptr[k]:indptr[k+1]]`` are the
        compact positions of its successors.  Treat as read-only.
        """
        return self._out_indptr, self._out_compact

    def compact_indices(self, users: np.ndarray) -> np.ndarray:
        """Compact positions of ``users`` inside :attr:`nodes`.

        Maps edge endpoints and walk starts from original IDs; a user
        who did not adopt the item raises :class:`GraphError`.
        """
        users = np.asarray(users, dtype=np.int64)
        pos = np.searchsorted(self._sorted_adopters, users)
        found = pos < self.num_nodes
        found[found] = self._sorted_adopters[pos[found]] == users[found]
        if not found.all():
            raise GraphError(
                f"user {int(users[~found][0])} is not an adopter of "
                f"item {self._item}"
            )
        return self._sort_order[pos]

    def out_degrees(self) -> np.ndarray:
        """Out-degree per compact position (aligned with :attr:`nodes`)."""
        return np.diff(self._out_indptr)

    def __repr__(self) -> str:
        return (
            f"PropagationNetwork(item={self._item}, "
            f"nodes={self.num_nodes}, edges={self.num_edges})"
        )


def build_propagation_networks(
    graph: SocialGraph, episodes
) -> Mapping[int, PropagationNetwork]:
    """Propagation network per episode, keyed by item."""
    return {
        episode.item: PropagationNetwork.from_episode(graph, episode)
        for episode in episodes
    }


#: Episode-network cache keyed by action-log identity.  Weak keys mean
#: a log's networks die with the log; the value pins the graph they
#: were extracted from so a different graph invalidates the entry.
_NETWORK_CACHE: "weakref.WeakKeyDictionary[ActionLog, tuple[SocialGraph, dict[int, PropagationNetwork]]]" = (
    weakref.WeakKeyDictionary()
)


def cached_propagation_networks(
    graph: SocialGraph, log: "ActionLog"
) -> Mapping[int, PropagationNetwork]:
    """Propagation networks of ``log``, memoised on log identity.

    Repeated calls with the same ``(graph, log)`` objects (several fits
    over one log) reuse the
    extracted networks instead of re-running pair extraction.  A
    different graph object for a cached log rebuilds the entry; logs
    that cannot be weak-referenced are computed without caching.

    Inside a ``recording`` scope the ambient registry counts
    ``contexts.cache.hits`` / ``.misses``.
    """
    metrics = active_metrics()
    entry = _NETWORK_CACHE.get(log)
    if entry is not None and entry[0] is graph:
        if metrics.enabled:
            metrics.counter(
                "contexts.cache.hits", "episode-network cache hits"
            ).inc()
        return entry[1]
    if metrics.enabled:
        metrics.counter(
            "contexts.cache.misses", "episode-network cache rebuilds"
        ).inc()
    networks = dict(build_propagation_networks(graph, log))
    try:
        _NETWORK_CACHE[log] = (graph, networks)
    except TypeError:  # pragma: no cover - exotic log types
        pass
    return networks
