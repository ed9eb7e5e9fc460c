"""Reverse-reachable (RR) set generation over the propagation network.

The RIS insight (Borgs et al.; Tang et al.) is that influence spread
has an unbiased *reverse* estimator: sample a uniform root ``v``, run
an Independent-Cascade simulation **backwards** over the transposed
graph (each in-edge ``u -> v`` is live with its forward probability
``P_uv``), and record every node that reaches ``v`` through live
edges.  The probability that a seed set ``S`` intersects such a random
RR set equals ``sigma(S) / n``, so a pool of RR sets turns influence
maximisation into max-coverage over the pool — no forward Monte-Carlo
per candidate ever runs.

:class:`RRGenerator` samples RR sets in vectorised batches, one BFS
level across the whole batch at a time, with variates proportional to
the *live* in-edges of a level rather than to every in-edge it
examines.  Light edges (``P <= 1/2``) are drawn by Poisson thinning:
each frontier node ``v`` throws ``Poisson(deg_v · lambda_v)`` points
uniformly over its in-edges, where ``lambda_v`` is its largest light
hazard ``-log(1 - P)``, and keeps a point on edge ``e`` with
probability ``h_e / lambda_v``.  Edge ``e`` then holds
``Poisson(h_e)`` kept points, independently of every other edge, so it
is live — holds at least one — with probability exactly
``1 - e^{-h_e} = P_e``.  Heavy edges (``P > 1/2``) keep one coin
each: thinning them would throw more points than the row has edges,
and ``P = 1`` has no finite hazard.  Sampling in time proportional to
the live edges follows SUBSIM (Guo et al., SIGMOD 2020).  All variates
come from one seeded :class:`numpy.random.Generator`, and the
per-batch visited matrix is a reusable buffer.  :class:`RRSketchPool`
stores the resulting sets in flattened CSR form plus the inverted
node→sketch index that max-coverage selection consumes.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import SketchError
from repro.obs.catalog import SKETCH_RR_NODES, SKETCH_RR_SETS, SKETCH_RR_SIZE
from repro.obs.run import active_metrics, active_run
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["RRGenerator", "RRSketchPool", "reverse_edge_probabilities"]

#: Roots processed per lockstep reverse-cascade batch.
DEFAULT_BATCH_SIZE = 256

#: Edges above this probability take one coin each instead of
#: thinning.  At or below it a row's thinning rate is at most
#: ``-log(1/2) = ln 2`` per in-edge, so no row throws more points in
#: expectation than ``ln 2`` times its in-degree.
HEAVY_PROBABILITY = 0.5


def reverse_edge_probabilities(
    probabilities: EdgeProbabilities,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transposed CSR adjacency with aligned forward probabilities.

    Returns ``(in_indptr, in_indices, in_values)`` where
    ``in_indices[in_indptr[v]:in_indptr[v+1]]`` are the in-neighbours
    ``u`` of ``v`` and ``in_values`` carries the *forward* ``P_uv`` for
    each — exactly the arrays a reverse IC cascade expands.  The graph
    already stores the transposed CSR; only the probability table needs
    reordering from source-major to target-major edge order.
    """
    graph = probabilities.graph
    in_indptr, in_indices = graph.in_csr()
    edge_array = graph.edge_array()
    # Source-major canonical order -> (target, source) order, matching
    # the stable-sorted in-CSR layout built by SocialGraph.
    order = np.lexsort((edge_array[:, 0], edge_array[:, 1]))
    return in_indptr, in_indices, probabilities.values[order]


def _record_generation(num_sets: int, sizes: np.ndarray) -> None:
    """Record one RR-generation call into the ambient metrics registry.

    No-op (one attribute check) unless a :func:`repro.obs.run.recording`
    scope is active — the adaptive schedule calls this per extension,
    so everything heavier stays behind the enabled guard.
    """
    if not active_metrics().enabled:
        return
    SKETCH_RR_SETS.inc(num_sets)
    SKETCH_RR_NODES.inc(int(sizes.sum()))
    SKETCH_RR_SIZE.observe_many(sizes.tolist())


class RRSketchPool:
    """A pool of RR sets in flattened CSR form.

    Parameters
    ----------
    num_nodes:
        Node-universe size the sketches were sampled over.
    indptr:
        ``(num_sketches + 1,)`` offsets into ``nodes``; sketch ``i``
        is ``nodes[indptr[i]:indptr[i + 1]]``.
    nodes:
        All sketch members flattened, grouped per sketch in reverse
        activation order (the sampled root first).
    """

    def __init__(self, num_nodes: int, indptr: np.ndarray, nodes: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=np.int64)
        if indptr.ndim != 1 or indptr.shape[0] < 1 or indptr[0] != 0:
            raise SketchError(
                f"indptr must be 1-D starting at 0, got shape {indptr.shape}"
            )
        if np.any(np.diff(indptr) < 0) or int(indptr[-1]) != nodes.shape[0]:
            raise SketchError(
                f"indptr (last={int(indptr[-1])}) disagrees with "
                f"{nodes.shape[0]} flattened nodes"
            )
        if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
            raise SketchError(
                f"sketch members must lie in [0, {num_nodes}), found range "
                f"[{nodes.min()}, {nodes.max()}]"
            )
        self.num_nodes = int(num_nodes)
        self.indptr = indptr
        self.nodes = nodes
        self._node_indptr: np.ndarray | None = None
        self._node_sketches: np.ndarray | None = None

    @property
    def num_sketches(self) -> int:
        """Number of RR sets in the pool."""
        return int(self.indptr.shape[0] - 1)

    def sizes(self) -> np.ndarray:
        """Size of every RR set as an int64 array."""
        return np.diff(self.indptr)

    def sketch(self, i: int) -> np.ndarray:
        """Members of sketch ``i`` (read-only view)."""
        i = int(i)
        if not 0 <= i < self.num_sketches:
            raise SketchError(f"sketch {i} outside [0, {self.num_sketches})")
        return self.nodes[self.indptr[i] : self.indptr[i + 1]]

    def coverage_counts(self) -> np.ndarray:
        """Per-node count of RR sets containing the node.

        ``coverage_counts()[u] * num_nodes / num_sketches`` is the
        unbiased RIS estimate of ``sigma({u})``.
        """
        return np.bincount(self.nodes, minlength=self.num_nodes)

    def _inverted(self) -> tuple[np.ndarray, np.ndarray]:
        """The node→sketches CSR, built lazily and cached.

        The sketch→nodes CSR transposed by one counting sort, linear in
        the pool size; each node's sketch ids come out ascending.
        """
        if self._node_indptr is None:
            ones = np.ones(self.nodes.shape[0], dtype=np.int8)
            membership = sparse.csr_matrix(
                (ones, self.nodes, self.indptr),
                shape=(self.num_sketches, self.num_nodes),
            ).tocsc()
            self._node_indptr = membership.indptr.astype(np.int64)
            self._node_sketches = membership.indices.astype(np.int64)
        return self._node_indptr, self._node_sketches

    def sketches_containing(self, node: int) -> np.ndarray:
        """IDs of the RR sets containing ``node`` (read-only view)."""
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise SketchError(f"node {node} outside [0, {self.num_nodes})")
        node_indptr, node_sketches = self._inverted()
        return node_sketches[node_indptr[node] : node_indptr[node + 1]]

    def spread_estimate(self, seeds) -> float:
        """Unbiased RIS estimate of ``sigma(seeds)`` for a *fixed* set.

        Counts the sketches intersecting ``seeds`` through the inverted
        index and scales by ``num_nodes / num_sketches``.  Unbiased for
        any seed set chosen independently of this pool; the coverage of
        a set *selected on* the pool is upward-biased by the selection
        itself (the IMM guarantee bounds that bias by ``epsilon``).
        """
        if self.num_sketches == 0:
            raise SketchError("spread estimate is undefined for an empty pool")
        covering = [self.sketches_containing(int(s)) for s in seeds]
        covered = np.unique(np.concatenate(covering)) if covering else []
        return self.num_nodes * len(covered) / self.num_sketches

    def spread_scale(self) -> float:
        """Sketches-to-spread conversion factor ``num_nodes / num_sketches``.

        Multiply a covered-sketch count by this to get the RIS spread
        estimate in users.
        """
        if self.num_sketches == 0:
            raise SketchError("spread scale is undefined for an empty pool")
        return self.num_nodes / self.num_sketches

    def extended(self, indptr: np.ndarray, nodes: np.ndarray) -> "RRSketchPool":
        """A new pool with additional sketches appended.

        ``indptr``/``nodes`` describe the new sketches alone, in the
        same flattened layout this pool uses; the inverted index is
        rebuilt lazily on the returned pool.
        """
        merged_indptr = np.concatenate(
            [self.indptr, np.asarray(indptr[1:], dtype=np.int64) + self.indptr[-1]]
        )
        merged_nodes = np.concatenate([self.nodes, nodes])
        return RRSketchPool(self.num_nodes, merged_indptr, merged_nodes)

    @classmethod
    def empty(cls, num_nodes: int) -> "RRSketchPool":
        """A pool of zero sketches over ``num_nodes`` nodes."""
        return cls(
            num_nodes, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
        )

    def __repr__(self) -> str:
        return (
            f"RRSketchPool(num_nodes={self.num_nodes}, "
            f"num_sketches={self.num_sketches}, "
            f"total_size={self.nodes.shape[0]})"
        )


class RRGenerator:
    """Stateful vectorised sampler of RR sets for one probability table.

    One generator owns one seeded RNG stream, so successive
    :meth:`generate` calls extend the same deterministic sequence —
    exactly what the adaptive schedule needs when it grows the pool in
    phases.

    A reverse-cascade level draws variates in proportion to its live
    in-edges, not to every in-edge it examines: Poisson thinning for
    light edges and one coin per heavy edge (module docstring).  The
    thinning rates, keep probabilities and heavy-edge CSR are built
    once, here.

    Parameters
    ----------
    probabilities:
        Forward IC edge probabilities over the social graph.
    seed:
        Seed or :class:`~numpy.random.Generator` for root sampling and
        the live-edge draws.
    batch_size:
        Roots simulated per lockstep reverse-cascade batch; bounds the
        reusable visited buffer at ``batch_size × num_nodes`` bools.
    """

    def __init__(
        self,
        probabilities: EdgeProbabilities,
        seed: SeedLike = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        self.num_nodes = probabilities.graph.num_nodes
        if self.num_nodes == 0:
            raise SketchError("cannot sample RR sets over an empty graph")
        self.batch_size = check_positive_int("batch_size", batch_size)
        self.rng = ensure_rng(seed)
        in_indptr, in_indices, in_values = reverse_edge_probabilities(
            probabilities
        )
        self._in_indptr, self._in_indices = in_indptr, in_indices
        self._in_degrees = degrees = np.diff(in_indptr)
        targets = np.repeat(np.arange(self.num_nodes, dtype=np.int64), degrees)
        heavy = in_values > HEAVY_PROBABILITY
        # Light edges: hazard -log(1 - P) and each row's largest hazard
        # as its thinning rate.  Heavy edges keep hazard 0, so a point
        # thrown on one is never kept.
        hazard = np.zeros(in_values.shape[0], dtype=np.float64)
        hazard[~heavy] = -np.log1p(-in_values[~heavy])
        rate = np.zeros(self.num_nodes, dtype=np.float64)
        np.maximum.at(rate, targets, hazard)
        # Expected thinning points per row, deg_v · lambda_v.
        self._row_points = rate * degrees
        # Keep probability h_e / lambda_v of a point on each in-edge.
        self._keep = np.divide(
            hazard,
            rate[targets],
            out=np.zeros_like(hazard),
            where=hazard > 0,
        )
        # Heavy edges as their own target-major CSR.
        self._heavy_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(targets[heavy], minlength=self.num_nodes),
            out=self._heavy_indptr[1:],
        )
        self._heavy_sources = in_indices[heavy]
        self._heavy_values = in_values[heavy]
        # Reusable per-batch visited buffer (allocated on first use).
        self._visited: np.ndarray | None = None

    def generate(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``count`` fresh RR sets with uniformly random roots.

        Returns ``(indptr, nodes)`` in the flattened
        :class:`RRSketchPool` layout, covering only the new sketches.
        """
        count = check_positive_int("count", count)
        with active_run().span("sketch.generate", count=count):
            sizes_parts: list[np.ndarray] = []
            nodes_parts: list[np.ndarray] = []
            for start in range(0, count, self.batch_size):
                roots = self.rng.integers(
                    0,
                    self.num_nodes,
                    size=min(self.batch_size, count - start),
                    dtype=np.int64,
                )
                sizes, nodes = self._reverse_cascade_batch(roots)
                sizes_parts.append(sizes)
                nodes_parts.append(nodes)
            all_sizes = np.concatenate(sizes_parts)
            indptr = np.empty(count + 1, dtype=np.int64)
            indptr[0] = 0
            np.cumsum(all_sizes, out=indptr[1:])
            _record_generation(count, all_sizes)
            return indptr, np.concatenate(nodes_parts)

    def _light_hits(
        self, sketches: np.ndarray, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Live light in-edges of one frontier, by Poisson thinning.

        Frontier entry ``f`` throws ``Poisson(deg · lambda)`` points.
        One uniform per point does two jobs: ``x = u · deg`` puts the
        point on in-edge ``floor(x)``, and the fraction ``x - floor(x)``,
        uniform and independent of that edge, keeps it with probability
        ``h_e / lambda``.  Returns ``(sketch, source)`` per kept point;
        an edge that keeps several points appears several times.
        """
        counts = self.rng.poisson(self._row_points[nodes])
        owner_nodes = np.repeat(nodes, counts)
        x = self.rng.random(owner_nodes.shape[0])
        x *= self._in_degrees[owner_nodes]
        offsets = x.astype(np.int64)
        edges = self._in_indptr[owner_nodes] + offsets
        kept = (x - offsets) < self._keep[edges]
        return (
            np.repeat(sketches, counts)[kept],
            self._in_indices[edges[kept]],
        )

    def _heavy_hits(
        self, sketches: np.ndarray, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Live heavy in-edges of one frontier: one coin per edge."""
        starts = self._heavy_indptr[nodes]
        degrees = self._heavy_indptr[nodes + 1] - starts
        ends = np.cumsum(degrees)
        total = int(ends[-1])
        if total == 0:
            return sketches[:0], self._heavy_sources[:0]
        # Flat index of every frontier heavy in-edge across the batch:
        # edge j of frontier entry f sits at starts[f] + j.
        flat = np.arange(total, dtype=np.int64)
        flat += np.repeat(starts - (ends - degrees), degrees)
        live = np.flatnonzero(self.rng.random(total) < self._heavy_values[flat])
        owners = np.searchsorted(ends, live, side="right")
        return sketches[owners], self._heavy_sources[flat[live]]

    def _reverse_cascade_batch(
        self, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lockstep reverse IC cascades for one batch of roots.

        All sketches advance one round per iteration: the live light
        in-edges of every frontier node across the batch come from one
        thinning draw, the heavy ones from one coin draw, and newly
        reached ``(sketch, node)`` pairs are deduplicated through the
        packed-id trick before becoming the next frontier.
        """
        batch = roots.shape[0]
        n = self.num_nodes
        if self._visited is None or self._visited.shape[0] < batch:
            self._visited = np.zeros((batch, n), dtype=bool)
        visited = self._visited[:batch]
        visited[:] = False
        rows = np.arange(batch, dtype=np.int64)
        visited[rows, roots] = True

        member_sketches = [rows]
        member_nodes = [roots]
        frontier_sketches, frontier_nodes = rows, roots
        while frontier_nodes.size:
            hit_sketches, hit_sources = self._light_hits(
                frontier_sketches, frontier_nodes
            )
            if self._heavy_sources.size:
                heavy_sketches, heavy_sources = self._heavy_hits(
                    frontier_sketches, frontier_nodes
                )
                hit_sketches = np.concatenate((hit_sketches, heavy_sketches))
                hit_sources = np.concatenate((hit_sources, heavy_sources))
            if not hit_sources.size:
                break
            fresh = ~visited[hit_sketches, hit_sources]
            if not fresh.any():
                break
            # Sorted, deduplicated (sketch, node) ids of the new frontier.
            packed = hit_sketches[fresh] * n + hit_sources[fresh]
            packed.sort()
            packed = packed[np.concatenate(([True], packed[1:] != packed[:-1]))]
            new_sketches = packed // n
            new_nodes = packed % n
            visited[new_sketches, new_nodes] = True
            member_sketches.append(new_sketches)
            member_nodes.append(new_nodes)
            frontier_sketches, frontier_nodes = new_sketches, new_nodes

        all_sketches = np.concatenate(member_sketches)
        all_nodes = np.concatenate(member_nodes)
        order = np.argsort(all_sketches, kind="stable")
        sizes = np.bincount(all_sketches, minlength=batch)
        return sizes, all_nodes[order]
