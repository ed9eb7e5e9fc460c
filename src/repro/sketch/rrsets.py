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
the live edges follows SUBSIM (Guo et al., SIGMOD 2020).  Each batch
draws its variates from its own stream, derived from the seed and the
batch's index, so large sets can be generated on several threads with
the pool unchanged; the flat per-batch visited buffers are reused.
:class:`RRSketchPool` stores the resulting sets in flattened CSR form
and builds, on demand, the inverted node→sketch index that
max-coverage selection consumes.
Members and sketch ids are int32 from the generator onward, half the
bytes of int64, so a universe must hold fewer than ``2**31`` nodes.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

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

#: Largest node universe: members and sketch ids are stored as int32.
MAX_NODES = int(np.iinfo(np.int32).max)

#: Members per root, in a call's first batch, from which the call's
#: remaining batches run on a thread pool.  On two cores, sets of 220
#: nodes and more generated faster on two threads than on one, sets of
#: 184 nodes and fewer slower (DESIGN §15).
THREADED_MEMBERS_PER_ROOT = 200

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


def _check_universe(num_nodes: int) -> int:
    """``num_nodes`` if its ids fit the int32 member arrays."""
    num_nodes = int(num_nodes)
    if num_nodes > MAX_NODES:
        raise SketchError(
            f"{num_nodes} nodes exceed the int32 sketch universe "
            f"of {MAX_NODES} nodes"
        )
    return num_nodes


def _stream_entropy(seed: SeedLike) -> int:
    """Entropy of a generator's per-batch streams, derived from ``seed``.

    An integer seed is the entropy itself.  A Generator gives one draw
    of its stream, so generators seeded from one caller stream differ;
    ``None`` draws fresh OS entropy.
    """
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(ensure_rng(seed).integers(2**63))


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the
    platform has one, else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(members_per_root: float, batches: int) -> int:
    """Threads to run a call's ``batches`` remaining batches on.

    One unless the call's first batch held at least
    :data:`THREADED_MEMBERS_PER_ROOT` members per root; then one per
    usable core, at most one per batch.
    """
    if members_per_root < THREADED_MEMBERS_PER_ROOT:
        return 1
    return min(_usable_cores(), batches)


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
        activation order (the sampled root first); the members of one
        sketch are distinct.  Range-checked against ``num_nodes``, then
        stored as int32 (no copy when they already are).
    """

    def __init__(self, num_nodes: int, indptr: np.ndarray, nodes: np.ndarray):
        num_nodes = _check_universe(num_nodes)
        indptr = np.asarray(indptr, dtype=np.int64)
        nodes = np.asarray(nodes)
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
        self.num_nodes = num_nodes
        self.indptr = indptr
        self.nodes = nodes.astype(np.int32, copy=False)

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

    def inverted(self) -> tuple[np.ndarray, np.ndarray]:
        """The node→sketches CSR ``(node_indptr, node_sketches)``.

        The sketch→nodes CSR transposed by one counting sort, linear in
        the pool size; each node's sketch ids come out ascending, as
        int32.  Row ``u`` holds ``np.diff(node_indptr)[u]`` sketches,
        and that count times ``num_nodes / num_sketches`` is the
        unbiased RIS estimate of ``sigma({u})``.  scipy keeps int32
        index arrays when the values fit, so the members are read in
        place, not copied.  Built anew on every call and never cached:
        a selection holds the index only while it runs, so a pool the
        schedule has outgrown keeps no pool-sized index alive through
        the next generation and merge.

        A sketch that repeats a member would be counted twice in that
        member's coverage, so it raises :class:`SketchError`: the
        transpose keeps repeats, as equal adjacent ids in one row.
        """
        membership = sparse.csr_matrix(
            (np.ones(self.nodes.shape[0], dtype=np.int8), self.nodes, self.indptr),
            shape=(self.num_sketches, self.num_nodes),
        ).tocsc()
        node_indptr = membership.indptr
        node_sketches = membership.indices.astype(np.int32, copy=False)
        del membership  # its int8 values, before the check's bool temporary
        repeats = np.flatnonzero(node_sketches[1:] == node_sketches[:-1]) + 1
        repeats = repeats[~np.isin(repeats, node_indptr)]
        if repeats.size:
            node = int(np.searchsorted(node_indptr, repeats[0], side="right")) - 1
            raise SketchError(
                f"sketch {int(node_sketches[repeats[0]])} repeats member {node}"
            )
        return node_indptr, node_sketches

    def _check_node(self, node: int) -> int:
        """``node`` as an ``int`` if it lies in the pool's universe."""
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise SketchError(f"node {node} outside [0, {self.num_nodes})")
        return node

    def sketches_containing(self, node: int) -> np.ndarray:
        """IDs of the RR sets containing ``node``, ascending, as int32.

        Builds the whole inverted index; to look up many nodes, call
        :meth:`inverted` once.
        """
        node = self._check_node(node)
        node_indptr, node_sketches = self.inverted()
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
        nodes = [self._check_node(s) for s in seeds]
        node_indptr, node_sketches = self.inverted()
        covered = np.zeros(self.num_sketches, dtype=bool)
        for node in nodes:
            row = node_sketches[node_indptr[node] : node_indptr[node + 1]]
            covered[row] = True
        return self.num_nodes * int(np.count_nonzero(covered)) / self.num_sketches

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
        same flattened layout this pool uses.
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
            num_nodes, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32)
        )

    def __repr__(self) -> str:
        return (
            f"RRSketchPool(num_nodes={self.num_nodes}, "
            f"num_sketches={self.num_sketches}, "
            f"total_size={self.nodes.shape[0]})"
        )


class RRGenerator:
    """Stateful vectorised sampler of RR sets for one probability table.

    Roots are sampled in batches of ``batch_size``, and the ``i``-th
    batch of a generator's life draws its roots and every live-edge
    variate from its own stream, ``SeedSequence(entropy,
    spawn_key=(i,))``, with ``entropy`` derived from ``seed``.
    Successive :meth:`generate` calls therefore extend one
    deterministic sequence — exactly what the adaptive schedule needs
    when it grows the pool in phases — and a pool does not depend on
    which thread ran which batch.

    A call runs its first batch on the calling thread.  If that batch's
    sets hold at least :data:`THREADED_MEMBERS_PER_ROOT` members per
    root, the remaining batches run on one thread per usable core (at
    most one per batch); smaller sets stay on the calling thread, where
    they run faster.  Spans and counters are recorded on the calling
    thread only.

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
        Seed or :class:`~numpy.random.Generator` the per-batch streams
        derive from: an integer seed is their entropy, a Generator
        gives one draw of its own stream, ``None`` fresh OS entropy.
    batch_size:
        Roots simulated per lockstep reverse-cascade batch; bounds each
        thread's reusable visited buffer at ``batch_size × num_nodes``
        bools.
    """

    def __init__(
        self,
        probabilities: EdgeProbabilities,
        seed: SeedLike = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        self.num_nodes = _check_universe(probabilities.graph.num_nodes)
        if self.num_nodes == 0:
            raise SketchError("cannot sample RR sets over an empty graph")
        self.batch_size = check_positive_int("batch_size", batch_size)
        self._entropy = _stream_entropy(seed)
        # Batches drawn so far: the next batch's stream index.
        self._batches = 0
        # Packed ids ``sketch · n + node`` of one batch fit int32 unless
        # the batch's visited buffer reaches 2**31 entries.
        self._packed_dtype = (
            np.int32 if self.batch_size * self.num_nodes <= MAX_NODES else np.int64
        )
        in_indptr, in_indices, in_values = reverse_edge_probabilities(
            probabilities
        )
        self._in_indptr = in_indptr
        self._in_sources = in_indices.astype(self._packed_dtype)
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
        self._heavy_sources = self._in_sources[heavy]
        self._heavy_values = in_values[heavy]
        # Cleared flat visited buffers, one taken per running batch.
        self._buffers: list[np.ndarray] = []

    def generate(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``count`` fresh RR sets with uniformly random roots.

        Returns ``(indptr, nodes)`` in the flattened
        :class:`RRSketchPool` layout, covering only the new sketches,
        with int64 offsets and int32 members.
        """
        count = check_positive_int("count", count)
        with active_run().span("sketch.generate", count=count):
            first = self._batches
            jobs = [
                (first + i, min(self.batch_size, count - start))
                for i, start in enumerate(range(0, count, self.batch_size))
            ]
            self._batches += len(jobs)
            parts = [self._reverse_cascade_batch(*jobs[0])]
            threads = _thread_count(
                parts[0][1].shape[0] / jobs[0][1], len(jobs) - 1
            )
            if threads > 1:
                parts += self._run_threaded(jobs[1:], threads)
            else:
                parts += [self._reverse_cascade_batch(*job) for job in jobs[1:]]
            all_sizes = np.concatenate([sizes for sizes, _ in parts])
            indptr = np.empty(count + 1, dtype=np.int64)
            indptr[0] = 0
            np.cumsum(all_sizes, out=indptr[1:])
            _record_generation(count, all_sizes)
            return indptr, np.concatenate([nodes for _, nodes in parts])

    def _run_threaded(
        self, jobs: list[tuple[int, int]], threads: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Results of ``jobs`` in order, computed on ``threads`` threads.

        At most two batches per thread are in flight, and the calling
        thread copies each result as it arrives.  A worker's arrays are
        freed into that worker's malloc arena, which the caller's later
        allocations (the pool merge, the selection index) cannot reuse,
        so keeping them would hold the pool's bytes resident twice.
        """
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        pending: deque[Future] = deque()

        def collect() -> None:
            sizes, nodes = pending.popleft().result()
            parts.append((sizes.copy(), nodes.copy()))

        with ThreadPoolExecutor(max_workers=threads) as executor:
            for job in jobs:
                if len(pending) == 2 * threads:
                    collect()
                pending.append(executor.submit(self._reverse_cascade_batch, *job))
            while pending:
                collect()
        return parts

    def _light_hits(
        self, rng: np.random.Generator, bases: np.ndarray, nodes: np.ndarray
    ) -> np.ndarray:
        """Live light in-edges of one frontier, by Poisson thinning.

        Frontier entry ``f`` throws ``Poisson(deg · lambda)`` points.
        One uniform per point does two jobs: ``x = u · deg`` puts the
        point on in-edge ``floor(x)``, and the fraction ``x - floor(x)``,
        uniform and independent of that edge, keeps it with probability
        ``h_e / lambda``.  Returns the packed id ``sketch · n + source``
        of each kept point; an edge that keeps several points appears
        several times.
        """
        counts = rng.poisson(self._row_points[nodes])
        owner_nodes = np.repeat(nodes, counts)
        x = rng.random(owner_nodes.shape[0])
        x *= self._in_degrees[owner_nodes]
        offsets = x.astype(np.int64)
        edges = self._in_indptr[owner_nodes] + offsets
        kept = (x - offsets) < self._keep[edges]
        return np.repeat(bases, counts)[kept] + self._in_sources[edges[kept]]

    def _heavy_hits(
        self, rng: np.random.Generator, bases: np.ndarray, nodes: np.ndarray
    ) -> np.ndarray:
        """Live heavy in-edges of one frontier, one coin per edge, packed."""
        starts = self._heavy_indptr[nodes]
        degrees = self._heavy_indptr[nodes + 1] - starts
        ends = np.cumsum(degrees)
        total = int(ends[-1])
        if total == 0:
            return bases[:0]
        # Flat index of every frontier heavy in-edge across the batch:
        # edge j of frontier entry f sits at starts[f] + j.
        flat = np.arange(total, dtype=np.int64)
        flat += np.repeat(starts - (ends - degrees), degrees)
        live = np.flatnonzero(rng.random(total) < self._heavy_values[flat])
        owners = np.searchsorted(ends, live, side="right")
        return bases[owners] + self._heavy_sources[flat[live]]

    def _reverse_cascade_batch(
        self, index: int, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lockstep reverse IC cascades for batch ``index`` of ``size`` roots.

        The batch draws its roots, then every live-edge variate, from
        its own stream.  All sketches advance one round per iteration:
        the live light in-edges of every frontier node across the batch
        come from one thinning draw, the heavy ones from one coin draw.
        A reached ``(sketch, node)`` pair is the packed id
        ``sketch · n + node`` into one flat visited buffer; the fresh
        ids, sorted and deduplicated, are the next frontier.  Only the
        entries the batch set are cleared afterwards.
        """
        n = self.num_nodes
        dtype = self._packed_dtype
        rng = np.random.default_rng(
            np.random.SeedSequence(self._entropy, spawn_key=(index,))
        )
        # Drawn as int64 at any packed width: the roots depend on the stream alone.
        roots = rng.integers(0, n, size=size, dtype=np.int64).astype(dtype)
        try:
            visited = self._buffers.pop()
        except IndexError:
            visited = np.zeros(self.batch_size * n, dtype=bool)
        # The frontier: each entry's sketch, its base sketch · n, its node.
        sketches = np.arange(size, dtype=dtype)
        bases = sketches * n
        nodes = roots
        packed = bases + nodes
        visited[packed] = True

        member_ids, member_sketches, member_nodes = [packed], [sketches], [nodes]
        while True:
            hits = self._light_hits(rng, bases, nodes)
            if self._heavy_sources.size:
                hits = np.concatenate((hits, self._heavy_hits(rng, bases, nodes)))
            packed = hits[~visited[hits]]
            if not packed.size:
                break
            packed.sort()
            packed = packed[np.concatenate(([True], packed[1:] != packed[:-1]))]
            visited[packed] = True
            sketches = packed // n
            bases = sketches * n
            nodes = packed - bases
            member_ids.append(packed)
            member_sketches.append(sketches)
            member_nodes.append(nodes)

        visited[np.concatenate(member_ids)] = False
        self._buffers.append(visited)
        all_sketches = np.concatenate(member_sketches)
        order = np.argsort(all_sketches, kind="stable")
        sizes = np.bincount(all_sketches, minlength=size)
        return sizes, np.concatenate(member_nodes)[order].astype(np.int32, copy=False)
