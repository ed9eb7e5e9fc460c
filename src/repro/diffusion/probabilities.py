"""Edge-probability tables over a social graph.

The IC-based comparison methods (DE, ST, EM, Emb-IC) all boil down to a
probability ``P_uv`` per social edge.  :class:`EdgeProbabilities`
stores those values aligned with the graph's out-neighbour CSR layout,
which is exactly the access pattern Independent-Cascade simulation
needs: "for active node ``u``, give me its out-neighbours and their
probabilities as two parallel arrays".
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable

import numpy as np

from repro.data.graph import SocialGraph
from repro.errors import GraphError


class EdgeProbabilities:
    """Per-edge influence probabilities ``P_uv`` for a fixed graph.

    Parameters
    ----------
    graph:
        The social graph whose edges carry the probabilities.
    values:
        Probability for each edge in the graph's canonical
        (source-major, target-sorted) order — i.e. aligned with
        ``graph.edge_array()``.  Values must lie in ``[0, 1]``.
    """

    def __init__(self, graph: SocialGraph, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (graph.num_edges,):
            raise GraphError(
                f"expected {graph.num_edges} probabilities, got shape {values.shape}"
            )
        if values.size and (
            np.any(values < 0) or np.any(values > 1) or not np.all(np.isfinite(values))
        ):
            raise GraphError("edge probabilities must be finite and in [0, 1]")
        self._graph = graph
        self._values = values
        # Each CSR row holds one source's targets in ascending order.
        self._out_starts, self._out_targets = graph.out_csr()

    @classmethod
    def constant(cls, graph: SocialGraph, probability: float) -> "EdgeProbabilities":
        """Every edge gets the same probability."""
        return cls(graph, np.full(graph.num_edges, float(probability)))

    @classmethod
    def from_function(
        cls,
        graph: SocialGraph,
        func: Callable[[int, int], float],
    ) -> "EdgeProbabilities":
        """Fill the table by evaluating ``func(source, target)`` per edge."""
        edge_array = graph.edge_array()
        values = np.asarray(
            [func(int(u), int(v)) for u, v in edge_array], dtype=np.float64
        )
        return cls(graph, values)

    @classmethod
    def from_dict(
        cls,
        graph: SocialGraph,
        table: dict[tuple[int, int], float],
        default: float = 0.0,
    ) -> "EdgeProbabilities":
        """Fill the table from a sparse ``(u, v) -> p`` mapping."""
        return cls.from_function(
            graph, lambda u, v: table.get((u, v), default)
        )

    @property
    def graph(self) -> SocialGraph:
        """The underlying social graph."""
        return self._graph

    @property
    def values(self) -> np.ndarray:
        """All probabilities in canonical edge order (read-only intent)."""
        return self._values

    def _edge_index(self, source: int, target: int) -> int | None:
        """Flat index of edge ``(source, target)``, ``None`` for non-edges.

        Ids outside ``[0, num_nodes)`` are non-edges, never aliases.
        """
        source, target = int(source), int(target)
        num_nodes = self._graph.num_nodes
        if not (0 <= source < num_nodes and 0 <= target < num_nodes):
            return None
        stop = int(self._out_starts[source + 1])
        # A scalar binary search: bisect beats np.searchsorted's call cost.
        idx = bisect_left(
            self._out_targets, target, int(self._out_starts[source]), stop
        )
        if idx < stop and self._out_targets[idx] == target:
            return idx
        return None

    def get(self, source: int, target: int) -> float:
        """``P_uv``; raises :class:`GraphError` for non-edges."""
        idx = self._edge_index(source, target)
        if idx is None:
            raise GraphError(f"({source}, {target}) is not an edge of the graph")
        return float(self._values[idx])

    def get_or_zero(self, source: int, target: int) -> float:
        """``P_uv`` for edges, 0.0 for non-edges (prediction-time helper)."""
        idx = self._edge_index(source, target)
        return 0.0 if idx is None else float(self._values[idx])

    def out_edges(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, probabilities)`` of edges leaving ``source``.

        Both arrays are views aligned with each other — the hot path of
        the IC simulator.
        """
        start = self._out_starts[int(source)]
        stop = self._out_starts[int(source) + 1]
        return self._graph.out_neighbors(int(source)), self._values[start:stop]

    def __repr__(self) -> str:
        return (
            f"EdgeProbabilities(num_edges={self._graph.num_edges}, "
            f"mean={self._values.mean() if self._values.size else 0.0:.4f})"
        )
