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
:func:`repro.core.context.batched_random_walk_with_restart`.  Per-node
accessors (:meth:`PropagationNetwork.successors` etc.), which the
temporal-context extension walks with, answer in original
social-network IDs.

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

    Nodes keep their *original* social-network IDs in the public
    accessors; internally adjacency is CSR over compact positions into
    :attr:`nodes` so vectorised consumers can gather whole frontiers at
    once (:meth:`successor_csr`).

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

        if edges.shape[0]:
            compact_flat = self._to_compact(edges.ravel(), validate=True)
            compact = compact_flat.reshape(-1, 2)
        else:
            compact = edges

        # CSR in both directions.  Neighbour lists are sorted by
        # original ID inside each slice, so a seeded walk's successor
        # choices do not depend on the order the edges arrived in.
        self._out_indptr, self._out_compact, self._out_original = self._build_csr(
            compact[:, 0], compact[:, 1], edges[:, 1], num_nodes
        )
        self._in_indptr, _, self._in_original = self._build_csr(
            compact[:, 1], compact[:, 0], edges[:, 0], num_nodes
        )

    def _to_compact(self, values: np.ndarray, validate: bool = False) -> np.ndarray:
        """Map original user IDs to compact positions into ``nodes``."""
        num_nodes = self._sorted_adopters.shape[0]
        if num_nodes == 0:
            raise GraphError(
                f"edge endpoint {int(values[0])} is not an adopter of "
                f"item {self._item}"
            )
        pos = np.searchsorted(self._sorted_adopters, values)
        if validate:
            clipped = np.minimum(pos, num_nodes - 1)
            bad = (pos >= num_nodes) | (self._sorted_adopters[clipped] != values)
            if np.any(bad):
                raise GraphError(
                    f"edge endpoint {int(values[bad.argmax()])} is not an "
                    f"adopter of item {self._item}"
                )
        return self._sort_order[pos]

    def _build_csr(
        self,
        group_by: np.ndarray,
        compact_values: np.ndarray,
        original_values: np.ndarray,
        num_nodes: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        counts = np.bincount(group_by, minlength=num_nodes).astype(np.int64)
        indptr = np.empty(num_nodes + 1, dtype=np.int64)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        order = np.lexsort((original_values, group_by))
        return indptr, compact_values[order], original_values[order]

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

        All entries must be adopters of the item; used to seed batched
        walks with original IDs.
        """
        users = np.asarray(users, dtype=np.int64)
        num_nodes = self._sorted_adopters.shape[0]
        pos = np.searchsorted(self._sorted_adopters, users)
        clipped = np.minimum(pos, max(num_nodes - 1, 0))
        if num_nodes == 0 or np.any(
            (pos >= num_nodes) | (self._sorted_adopters[clipped] != users)
        ):
            raise GraphError(
                f"users are not all adopters of item {self._item}"
            )
        return self._sort_order[pos]

    def out_degrees(self) -> np.ndarray:
        """Out-degree per compact position (aligned with :attr:`nodes`)."""
        return np.diff(self._out_indptr)

    # ------------------------------------------------------------------
    # Scalar access (original IDs)
    # ------------------------------------------------------------------

    def _compact_of(self, node: int) -> int | None:
        num_nodes = self._sorted_adopters.shape[0]
        if num_nodes == 0:
            return None
        pos = int(np.searchsorted(self._sorted_adopters, node))
        if pos >= num_nodes or int(self._sorted_adopters[pos]) != int(node):
            return None
        return int(self._sort_order[pos])

    def successors(self, node: int) -> np.ndarray:
        """Users directly influenced by ``node`` in this episode."""
        compact = self._compact_of(int(node))
        if compact is None:
            return _EMPTY
        return self._out_original[
            self._out_indptr[compact] : self._out_indptr[compact + 1]
        ]

    def predecessors(self, node: int) -> list[int]:
        """Users that directly influenced ``node`` in this episode."""
        compact = self._compact_of(int(node))
        if compact is None:
            return []
        return self._in_original[
            self._in_indptr[compact] : self._in_indptr[compact + 1]
        ].tolist()

    def out_degree(self, node: int) -> int:
        """Number of users directly influenced by ``node``."""
        compact = self._compact_of(int(node))
        if compact is None:
            return 0
        return int(self._out_indptr[compact + 1] - self._out_indptr[compact])

    def roots(self) -> list[int]:
        """Adopters with no influencing predecessor (cascade sources)."""
        in_degrees = np.diff(self._in_indptr)
        return self._adopters[in_degrees == 0].tolist()

    def is_acyclic(self) -> bool:
        """Verify the DAG property (always true for valid episode data).

        Runs Kahn's algorithm over the compact CSR arrays; exposed for
        tests and for loaders that ingest third-party cascade files
        where timestamps may have been corrupted.
        """
        in_degree = np.diff(self._in_indptr).copy()
        frontier = list(np.nonzero(in_degree == 0)[0])
        visited = 0
        while frontier:
            node = int(frontier.pop())
            visited += 1
            for child in self._out_compact[
                self._out_indptr[node] : self._out_indptr[node + 1]
            ]:
                child = int(child)
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    frontier.append(child)
        return visited == self.num_nodes

    def __repr__(self) -> str:
        return (
            f"PropagationNetwork(item={self._item}, "
            f"nodes={self.num_nodes}, edges={self.num_edges})"
        )


_EMPTY = np.empty(0, dtype=np.int64)


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
