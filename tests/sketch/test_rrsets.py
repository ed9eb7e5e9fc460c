"""Unit tests for reverse-reachable set generation and pooling."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.graph import SocialGraph
from repro.data.synthetic import SyntheticSocialDataset
from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import SketchError
from repro.sketch.rrsets import (
    MAX_NODES,
    RRGenerator,
    RRSketchPool,
    reverse_edge_probabilities,
)
from tests.oracles import (
    EDGE_CASE_EDGES,
    EDGE_CASE_NUM_NODES,
    IC_EDGES,
    IC_NUM_NODES,
    ic_probabilities,
    live_edge_worlds,
    reached,
)

#: The two exactly enumerable oracle tables: ``(edges, num_nodes)``.
ORACLE_TABLES = {
    "ic": (IC_EDGES, IC_NUM_NODES),
    "edge-cases": (EDGE_CASE_EDGES, EDGE_CASE_NUM_NODES),
}


@pytest.fixture
def chain_probs() -> EdgeProbabilities:
    """0 -> 1 -> 2 -> 3, every edge certain."""
    graph = SocialGraph(4, [(0, 1), (1, 2), (2, 3)])
    return EdgeProbabilities.from_dict(
        graph, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0}
    )


@pytest.fixture
def planted_probs() -> EdgeProbabilities:
    data = SyntheticSocialDataset.digg_like(num_users=120, num_items=20, seed=5)
    return data.planted.edge_probabilities


class TestReverseEdgeProbabilities:
    def test_values_follow_in_csr_order(self, planted_probs):
        """Every in-edge of every node carries its forward probability."""
        graph = planted_probs.graph
        lookup = {
            (int(u), int(v)): float(p)
            for (u, v), p in zip(
                graph.edge_array(), planted_probs.values
            )
        }
        in_indptr, in_indices, in_values = reverse_edge_probabilities(
            planted_probs
        )
        for v in range(graph.num_nodes):
            sources = in_indices[in_indptr[v] : in_indptr[v + 1]]
            values = in_values[in_indptr[v] : in_indptr[v + 1]]
            for u, p in zip(sources, values):
                assert lookup[(int(u), v)] == p

    def test_shapes_align(self, chain_probs):
        in_indptr, in_indices, in_values = reverse_edge_probabilities(
            chain_probs
        )
        assert in_indptr.shape[0] == chain_probs.graph.num_nodes + 1
        assert in_indices.shape == in_values.shape


class TestRRGenerator:
    def test_certain_chain_yields_full_ancestry(self, chain_probs):
        """With p=1 everywhere an RR set is the root plus all ancestors."""
        generator = RRGenerator(chain_probs, seed=0)
        pool = RRSketchPool(4, *generator.generate(200))
        for i in range(pool.num_sketches):
            members = pool.sketch(i)
            root = int(members[0])  # roots recorded first
            assert set(members.tolist()) == set(range(root + 1))

    def test_same_seed_same_pool(self, planted_probs):
        a = RRGenerator(planted_probs, seed=42).generate(500)
        b = RRGenerator(planted_probs, seed=42).generate(500)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seeds_differ(self, planted_probs):
        a = RRGenerator(planted_probs, seed=1).generate(500)
        b = RRGenerator(planted_probs, seed=2).generate(500)
        assert not (
            a[1].shape == b[1].shape and np.array_equal(a[1], b[1])
        )

    def test_successive_calls_extend_one_stream(self, planted_probs):
        """generate(a); generate(b) equals generate(a+b) with one seed.

        Holds when ``a`` is a multiple of ``batch_size``: roots are drawn
        one batch at a time, so both call sequences consume the generator's
        stream in identical chunks (64 | 64,64,8 versus 64,64,64,8).
        """
        split = RRGenerator(planted_probs, seed=7, batch_size=64)
        pool = RRSketchPool(planted_probs.graph.num_nodes, *split.generate(64))
        pool = pool.extended(*split.generate(136))
        whole = RRSketchPool(
            planted_probs.graph.num_nodes,
            *RRGenerator(planted_probs, seed=7, batch_size=64).generate(200),
        )
        np.testing.assert_array_equal(pool.indptr, whole.indptr)
        np.testing.assert_array_equal(pool.nodes, whole.nodes)

    def test_members_are_unique_per_sketch(self, planted_probs):
        generator = RRGenerator(planted_probs, seed=3)
        pool = RRSketchPool(
            planted_probs.graph.num_nodes, *generator.generate(300)
        )
        for i in range(pool.num_sketches):
            members = pool.sketch(i)
            assert np.unique(members).shape[0] == members.shape[0]

    def test_thinning_rate_and_heavy_table(self):
        """No row throws more than ln 2 points per in-edge in expectation,
        and every edge above 1/2 is in the heavy table, one coin each."""
        probs = ic_probabilities(EDGE_CASE_EDGES, EDGE_CASE_NUM_NODES)
        generator = RRGenerator(probs, seed=0)
        in_indptr, in_indices, in_values = reverse_edge_probabilities(probs)
        degrees = np.diff(in_indptr)
        assert np.all(generator._row_points <= np.log(2.0) * degrees + 1e-12)
        heavy = in_values > 0.5
        assert generator._heavy_sources.tolist() == in_indices[heavy].tolist()
        assert np.diff(generator._heavy_indptr).tolist() == np.bincount(
            np.repeat(np.arange(EDGE_CASE_NUM_NODES), degrees)[heavy],
            minlength=EDGE_CASE_NUM_NODES,
        ).tolist()
        # A point on a heavy or a p = 0 edge is never kept.
        assert np.all(generator._keep[heavy | (in_values == 0.0)] == 0.0)

    def test_empty_graph_rejected(self):
        graph = SocialGraph(0, [])
        probs = EdgeProbabilities(graph, np.empty(0))
        with pytest.raises(SketchError):
            RRGenerator(probs)

    def test_bad_count_rejected(self, chain_probs):
        with pytest.raises(ValueError):
            RRGenerator(chain_probs, seed=0).generate(0)


class TestExactInclusionOracle:
    """RR-set membership against exact IC by live-edge enumeration.

    ``u`` lands in an RR set rooted at ``v`` exactly when ``u`` reaches
    ``v`` in the random live-edge graph, so enumerating all 4,096 worlds
    of a 12-edge oracle graph gives every ``P(u in RR(v))`` exactly.
    Conditioned on its root, each empirical inclusion frequency must
    land within 4 of its own standard errors; an inclusion probability
    of exactly 0 or 1 has no standard error and must be met exactly.
    """

    NUM_NODES = IC_NUM_NODES

    @pytest.fixture
    def probs(self) -> EdgeProbabilities:
        return ic_probabilities()

    @staticmethod
    def _exact_inclusion(
        edges: dict[tuple[int, int], float] = IC_EDGES,
        num_nodes: int = IC_NUM_NODES,
    ) -> np.ndarray:
        """``inclusion[v, u] = P(u in RR(v))``."""
        inclusion = np.zeros((num_nodes, num_nodes))
        for weight, live_edges in live_edge_worlds(edges):
            sources: dict[int, list[int]] = {}
            for u, v in live_edges:
                sources.setdefault(v, []).append(u)
            for root in range(num_nodes):
                inclusion[root, list(reached(sources, [root]))] += weight
        return inclusion

    def test_enumeration_is_consistent(self):
        inclusion = self._exact_inclusion()
        np.testing.assert_allclose(np.diag(inclusion), 1.0)
        assert np.all((inclusion >= 0.0) & (inclusion <= 1.0 + 1e-12))

    def test_edge_case_enumeration_pins_certain_and_impossible_edges(self):
        exact = self._exact_inclusion(EDGE_CASE_EDGES, EDGE_CASE_NUM_NODES)
        np.testing.assert_allclose(np.diag(exact), 1.0)
        assert exact[1, 0] == pytest.approx(1.0)  # 0 -> 1 is certain
        # Node 2's in-edges are all 0: its RR set is itself, and node 4,
        # whose one in-edge leaves 2, sees nothing beyond 2.
        assert np.flatnonzero(exact[2]).tolist() == [2]
        assert np.flatnonzero(exact[4]).tolist() == [2, 4]
        assert exact[4, 2] == pytest.approx(0.9)

    def test_root_is_first_member(self, probs):
        """One batch draws every root up front, before any coin."""
        count = 2_000
        pool = RRSketchPool(
            self.NUM_NODES,
            *RRGenerator(probs, seed=21, batch_size=count).generate(count),
        )
        roots = np.random.default_rng(21).integers(
            0, self.NUM_NODES, size=count, dtype=np.int64
        )
        first = [int(pool.sketch(i)[0]) for i in range(count)]
        assert first == roots.tolist()

    @pytest.mark.parametrize(
        "table, batch_size",
        [
            pytest.param("ic", 7, id="7"),
            pytest.param("ic", 256, id="256"),
            pytest.param("edge-cases", 7, id="edge-cases-7"),
            pytest.param("edge-cases", 256, id="edge-cases-256"),
        ],
    )
    def test_inclusion_matches_enumeration(self, table, batch_size):
        edges, num_nodes = ORACLE_TABLES[table]
        exact = self._exact_inclusion(edges, num_nodes)
        count = 40_000
        probs = ic_probabilities(edges, num_nodes)
        pool = RRSketchPool(
            num_nodes,
            *RRGenerator(probs, seed=22, batch_size=batch_size).generate(count),
        )
        roots = pool.nodes[pool.indptr[:-1]]
        hits = np.zeros((num_nodes, num_nodes))
        np.add.at(hits, (np.repeat(roots, pool.sizes()), pool.nodes), 1.0)
        per_root = np.bincount(roots, minlength=num_nodes)
        assert np.all(per_root > 0)
        freqs = hits / per_root[:, None]
        # Rounding can leave a certain inclusion a few ulps above 1.
        exact = np.clip(exact, 0.0, 1.0)
        standard_error = np.sqrt(exact * (1.0 - exact) / per_root[:, None])
        assert np.all(np.abs(freqs - exact) <= 4.0 * standard_error + 1e-12)


class TestRRSketchPool:
    def _pool(self) -> RRSketchPool:
        # Sketches: {0, 1}, {1}, {2, 0}, {} over 3 nodes.
        return RRSketchPool(
            3, np.array([0, 2, 3, 5, 5]), np.array([0, 1, 1, 2, 0])
        )

    def test_basic_accessors(self):
        pool = self._pool()
        assert pool.num_sketches == 4
        np.testing.assert_array_equal(pool.sizes(), [2, 1, 2, 0])
        np.testing.assert_array_equal(pool.sketch(2), [2, 0])
        # Index row lengths are the coverage counts greedy starts from.
        np.testing.assert_array_equal(np.diff(pool.inverted()[0]), [2, 2, 1])

    def test_inverted_index_round_trip(self):
        pool = self._pool()
        assert pool.sketches_containing(0).tolist() == [0, 2]
        assert pool.sketches_containing(1).tolist() == [0, 1]
        assert pool.sketches_containing(2).tolist() == [2]

    @staticmethod
    def _random_pool(seed: int) -> RRSketchPool:
        """Random distinct-member sketches, a few of them forced empty."""
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 40))
        sketches = [
            rng.choice(num_nodes, size=int(rng.integers(0, num_nodes + 1)),
                       replace=False)
            for _ in range(int(rng.integers(1, 60)))
        ]
        for i in rng.integers(0, len(sketches), size=3):
            sketches[i] = np.empty(0, dtype=np.int64)
        indptr = np.concatenate([[0], np.cumsum([len(m) for m in sketches])])
        return RRSketchPool(num_nodes, indptr, np.concatenate(sketches))

    @pytest.mark.parametrize("seed", range(8))
    def test_inverted_index_matches_scan(self, seed):
        pool = self._random_pool(seed)
        assert np.any(pool.sizes() == 0)
        for u in range(pool.num_nodes):
            containing = pool.sketches_containing(u)
            assert containing.dtype == np.int32
            assert containing.tolist() == [
                i for i in range(pool.num_sketches) if u in pool.sketch(i)
            ]

    def test_inverted_index_of_zero_sketch_pool(self):
        pool = RRSketchPool.empty(4)
        for u in range(pool.num_nodes):
            containing = pool.sketches_containing(u)
            assert containing.dtype == np.int32
            assert containing.shape == (0,)

    def test_spread_estimate_counts_distinct_sketches(self):
        pool = self._pool()
        # {0} covers sketches {0, 2}; {0, 1} covers {0, 1, 2}.
        assert pool.spread_estimate([0]) == pytest.approx(3 * 2 / 4)
        assert pool.spread_estimate([0, 1]) == pytest.approx(3 * 3 / 4)
        assert pool.spread_scale() == pytest.approx(3 / 4)

    def test_extended_appends(self):
        pool = self._pool().extended(np.array([0, 1]), np.array([2]))
        assert pool.num_sketches == 5
        np.testing.assert_array_equal(pool.sketch(4), [2])

    def test_invalid_layouts_rejected(self):
        with pytest.raises(SketchError):
            RRSketchPool(3, np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(SketchError):
            RRSketchPool(3, np.array([0, 3]), np.array([0, 1]))
        with pytest.raises(SketchError):
            RRSketchPool(3, np.array([0, 1]), np.array([7]))
        with pytest.raises(SketchError):
            self._pool().sketch(99)
        with pytest.raises(SketchError):
            self._pool().sketches_containing(-1)
        with pytest.raises(SketchError):
            RRSketchPool.empty(3).spread_estimate([0])

    def test_members_stored_as_int32(self):
        wide = np.array([0, 1, 1, 2, 0], dtype=np.int64)
        pool = RRSketchPool(3, np.array([0, 2, 3, 5, 5]), wide)
        assert pool.nodes.dtype == np.int32
        np.testing.assert_array_equal(pool.nodes, wide)
        # int32 members, as the generator writes them, are not copied.
        narrow = wide.astype(np.int32)
        assert RRSketchPool(3, np.array([0, 2, 3, 5, 5]), narrow).nodes is narrow

    @pytest.mark.parametrize("member", [2**31 + 1, 2**32, -(2**31) - 1])
    def test_out_of_range_member_refused_before_narrowing(self, member):
        # Cast first, 2**31 + 1 would wrap to a negative int32 and 2**32
        # to member 0; the range check sees the wide value.
        with pytest.raises(SketchError, match="must lie in"):
            RRSketchPool(MAX_NODES, np.array([0, 2]), np.array([0, member]))

    def test_universe_beyond_int32_refused(self):
        with pytest.raises(SketchError, match="int32"):
            RRSketchPool(MAX_NODES + 1, np.zeros(1), np.empty(0))
        assert RRSketchPool.empty(MAX_NODES).num_nodes == MAX_NODES
        # A stand-in table: the universe is refused before any array of
        # that size is built.
        huge = SimpleNamespace(graph=SimpleNamespace(num_nodes=2**31))
        with pytest.raises(SketchError, match="int32"):
            RRGenerator(huge)

    def test_generator_writes_int32_members(self, planted_probs):
        indptr, nodes = RRGenerator(planted_probs, seed=4).generate(50)
        assert indptr.dtype == np.int64
        assert nodes.dtype == np.int32

    def test_batch_buffer_reuse_does_not_leak_state(self, planted_probs):
        """Small batches reuse the visited buffer; sketches stay valid."""
        generator = RRGenerator(planted_probs, seed=11, batch_size=8)
        pool = RRSketchPool(
            planted_probs.graph.num_nodes, *generator.generate(100)
        )
        assert pool.num_sketches == 100
        for i in range(pool.num_sketches):
            members = pool.sketch(i)
            assert np.unique(members).shape[0] == members.shape[0]
