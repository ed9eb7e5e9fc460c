"""Blocked top-k correctness: bitwise equality with a brute-force scan.

The acceptance contract of the serving layer: for any block size, the
blocked engine's indices *and* scores are bitwise-identical to a naive
full-scan argsort over the same deterministic scoring kernel, for both
query directions, across ``k ∈ {1, 10, num_users}``, including
embeddings where the bias terms dominate the dot products.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.embeddings import InfluenceEmbedding
from repro.errors import ServingError
from repro.serve import (
    TopKEngine,
    aggregated_scores,
    augment_sources,
    augment_targets,
    iter_source_rows,
    score_block,
)
from repro.serve.scoring import block_rows, candidate_scores, max_row_norm
from tests.oracles import brute_force_topk

NUM_USERS = 97
DIM = 5


def random_embedding(seed: int, bias_scale: float = 1.0) -> InfluenceEmbedding:
    rng = np.random.default_rng(seed)
    return InfluenceEmbedding(
        rng.normal(size=(NUM_USERS, DIM)),
        rng.normal(size=(NUM_USERS, DIM)),
        bias_scale * rng.normal(size=NUM_USERS),
        bias_scale * rng.normal(size=NUM_USERS),
    )


def record_blocks(monkeypatch) -> list:
    """Record the rows of every database block a ``TopKEngine`` scans."""
    from repro.serve import topk

    blocks = []
    real = topk.candidate_scores

    def recording(queries, block, *args):
        blocks.append(block.shape[0])
        return real(queries, block, *args)

    monkeypatch.setattr(topk, "candidate_scores", recording)
    return blocks


def block_of(users, blocks) -> np.ndarray:
    """Which of the scanned ``blocks`` (row counts, in order) holds each user."""
    return np.searchsorted(np.cumsum(blocks), users, side="right")


class TestBlockedTopKProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bias_scale", [1.0, 50.0])
    @pytest.mark.parametrize("k", [1, 10, NUM_USERS])
    @pytest.mark.parametrize("block_size", [1, 2, 13, 64, NUM_USERS, 4096])
    def test_matches_brute_force_bitwise(
        self, monkeypatch, seed, bias_scale, k, block_size
    ):
        blocks = record_blocks(monkeypatch)
        embedding = random_embedding(seed, bias_scale)
        engine = TopKEngine(embedding, block_size=block_size)
        for direction in ("influenced", "influencers"):
            for user in (0, 7, NUM_USERS - 1):
                blocks.clear()
                result = (
                    engine.top_influenced(user, k)
                    if direction == "influenced"
                    else engine.top_influencers(user, k)
                )
                ref_idx, ref_scores = brute_force_topk(
                    embedding, user, k, direction
                )
                np.testing.assert_array_equal(result.indices, ref_idx)
                np.testing.assert_array_equal(result.scores, ref_scores)
                # Block sizes 1, 2 and 13 give a single query 7, 14 and
                # 91 rows, so its scan merges across block boundaries.
                crosses = block_size * (DIM + 2) < NUM_USERS
                assert (len(blocks) > 1) == crosses, blocks

    def test_bias_dominated_ranking_follows_target_bias(self):
        """With zero embeddings, top-influenced is ordered purely by b̃."""
        zeros = np.zeros((NUM_USERS, 3))
        rng = np.random.default_rng(5)
        target_bias = rng.normal(size=NUM_USERS)
        embedding = InfluenceEmbedding(
            zeros, zeros.copy(), np.zeros(NUM_USERS), target_bias
        )
        result = TopKEngine(embedding, block_size=10).top_influenced(0, 5)
        expected = np.lexsort((np.arange(NUM_USERS), -target_bias))[:5]
        np.testing.assert_array_equal(result.indices, expected)

    def test_exact_ties_break_to_lower_id_for_any_blocking(self):
        """All-equal scores: the top-k must be [0, 1, ..., k-1] always."""
        embedding = InfluenceEmbedding(
            np.ones((NUM_USERS, 2)),
            np.ones((NUM_USERS, 2)),
            np.zeros(NUM_USERS),
            np.zeros(NUM_USERS),
        )
        for block_size in (1, 7, NUM_USERS):
            result = TopKEngine(embedding, block_size=block_size).top_influenced(
                3, 6
            )
            np.testing.assert_array_equal(result.indices, np.arange(6))


#: Users whose source rows and whose target rows are identical, so every
#: query scores them equally; spread across the boundaries of the 1-, 8-
#: and 15-row blocks a six-query batch scans at block sizes 1, 7 and 13.
TIED_USERS = [2, 6, 7, 13, 26, 40, 77, 96]


def straddling_ties_embedding() -> InfluenceEmbedding:
    """Ties at the top of some query rows and at the bottom of others.

    Coordinate 0 of ``S`` is +5 or −5 per user and coordinate 0 of ``T``
    is 3 on the tied users only, so a top-influenced query scores all
    tied users at ``±15 + b_u`` — above or below every other user.
    Coordinate 1 does the same for top-influencers queries.
    """
    rng = np.random.default_rng(17)
    sign = np.where(np.arange(NUM_USERS) % 2 == 0, 5.0, -5.0)
    source = np.column_stack(
        [sign, np.zeros(NUM_USERS), rng.normal(size=(NUM_USERS, 3))]
    )
    target = np.column_stack(
        [np.zeros(NUM_USERS), sign, rng.normal(size=(NUM_USERS, 3))]
    )
    source_bias = rng.normal(size=NUM_USERS)
    target_bias = rng.normal(size=NUM_USERS)
    source[TIED_USERS] = [5.0, 3.0, 0.0, 0.0, 0.0]
    target[TIED_USERS] = [3.0, 5.0, 0.0, 0.0, 0.0]
    source_bias[TIED_USERS] = 0.0
    target_bias[TIED_USERS] = 0.0
    return InfluenceEmbedding(source, target, source_bias, target_bias)


def batch_query(engine, direction, users, k):
    query = (
        engine.top_influenced_batch
        if direction == "influenced"
        else engine.top_influencers_batch
    )
    return query(users, k)


class TestSelection:
    """The partition-then-sort cut where it can go wrong: ties and NaN."""

    @pytest.mark.parametrize("block_size", [1, 7, 13, NUM_USERS])
    @pytest.mark.parametrize("k", [4, NUM_USERS - 4])
    @pytest.mark.parametrize("direction", ["influenced", "influencers"])
    def test_ties_straddling_kth_place_in_some_rows(
        self, monkeypatch, block_size, k, direction
    ):
        blocks = record_blocks(monkeypatch)
        embedding = straddling_ties_embedding()
        users = [0, 1, 10, 11, 50, 51]  # untied users of both signs
        result = batch_query(
            TopKEngine(embedding, block_size=block_size), direction, users, k
        )
        tied_blocks = np.unique(block_of(TIED_USERS, blocks))
        assert (tied_blocks.size > 1) == (block_size < NUM_USERS), blocks
        straddling = 0
        for row, user in enumerate(users):
            ref_idx, ref_scores = brute_force_topk(
                embedding, user, k + 1, direction
            )
            straddling += ref_scores[k - 1] == ref_scores[k]
            np.testing.assert_array_equal(result.indices[row], ref_idx[:k])
            np.testing.assert_array_equal(result.scores[row], ref_scores[:k])
        # Half the rows tie across the k-th place, half do not.
        assert straddling == len(users) // 2

    @pytest.mark.parametrize("block_size", [1, 13, NUM_USERS])
    @pytest.mark.parametrize("k", [1, 10, NUM_USERS - 1, NUM_USERS])
    def test_nan_target_row_ranks_last(self, monkeypatch, block_size, k):
        blocks = record_blocks(monkeypatch)
        embedding = random_embedding(4)
        nan_user = 50
        embedding.target[nan_user] = np.nan
        engine = TopKEngine(embedding, block_size=block_size)
        users = [0, nan_user, NUM_USERS - 1]
        for direction in ("influenced", "influencers"):
            # Influencers of the NaN user is a row of NaN scores only.
            blocks.clear()
            result = batch_query(engine, direction, users, k)
            # Below the full-scan size, the NaN user's scores are merged
            # into a running best from an earlier block.
            merged = block_of([nan_user], blocks)[0] > 0
            assert merged == (block_size < NUM_USERS), blocks
            for row, user in enumerate(users):
                ref_idx, ref_scores = brute_force_topk(
                    embedding, user, k, direction
                )
                np.testing.assert_array_equal(result.indices[row], ref_idx)
                np.testing.assert_array_equal(result.scores[row], ref_scores)
        influenced = engine.top_influenced(0, NUM_USERS)
        assert influenced.indices[-1] == nan_user
        assert np.isnan(influenced.scores[-1])
        assert not np.isnan(influenced.scores[:-1]).any()

    @staticmethod
    def count_database_builds(monkeypatch, delay: float = 0.0) -> list:
        """Record each full-database ``augment_*`` call the engine makes.

        ``delay`` stretches each build, so concurrent first scans overlap.
        """
        from repro.serve import topk

        built = []
        for name in ("augment_sources", "augment_targets"):
            real = getattr(topk, name)

            def counting(embedding, users=None, _real=real, _name=name):
                if users is None:
                    built.append(_name)
                    time.sleep(delay)
                return _real(embedding, users)

            monkeypatch.setattr(topk, name, counting)
        return built

    def test_database_built_once_per_direction(self, monkeypatch):
        built = self.count_database_builds(monkeypatch)
        embedding = random_embedding(6)
        engine = TopKEngine(embedding, block_size=13)
        for _ in range(2):
            for direction in ("influenced", "influencers"):
                for user in (0, 48, NUM_USERS - 1):
                    result = batch_query(engine, direction, [user], 10)
                    ref_idx, ref_scores = brute_force_topk(
                        embedding, user, 10, direction
                    )
                    np.testing.assert_array_equal(result.indices[0], ref_idx)
                    np.testing.assert_array_equal(result.scores[0], ref_scores)
        assert built == ["augment_targets", "augment_sources"]

    def test_concurrent_first_scans_build_database_once(self, monkeypatch):
        built = self.count_database_builds(monkeypatch, delay=0.05)
        embedding = random_embedding(7)
        engine = TopKEngine(embedding, block_size=13)
        jobs = [
            (direction, user)
            for user in range(16)
            for direction in ("influenced", "influencers")
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(batch_query, engine, direction, [user], 5)
                    for direction, user in jobs
                ]
                results = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(built) == ["augment_sources", "augment_targets"]
        for (direction, user), result in zip(jobs, results):
            ref_idx, ref_scores = brute_force_topk(embedding, user, 5, direction)
            np.testing.assert_array_equal(result.indices[0], ref_idx)
            np.testing.assert_array_equal(result.scores[0], ref_scores)


def record_candidates(monkeypatch) -> list:
    """Record ``(rows, candidates per query)`` of every block scanned."""
    from repro.serve import topk

    widths = []
    real = topk.candidate_scores

    def recording(queries, block, *args):
        scores, columns = real(queries, block, *args)
        widths.append((block.shape[0], scores.shape[1]))
        return scores, columns

    monkeypatch.setattr(topk, "candidate_scores", recording)
    return widths


def assert_bitwise_brute_force(embedding, engine, direction, users, k):
    """A batch answer equals the dense oracle's, bit for bit."""
    result = batch_query(engine, direction, users, k)
    for row, user in enumerate(users):
        ref_idx, ref_scores = brute_force_topk(embedding, user, k, direction)
        np.testing.assert_array_equal(result.indices[row], ref_idx)
        np.testing.assert_array_equal(
            result.scores[row].view(np.int64), ref_scores.view(np.int64)
        )


def near_ties(rng, base: np.ndarray, num_rows: int) -> np.ndarray:
    """Rows equal to ``base`` up to a few ulps in each component."""
    ulps = rng.integers(-4, 5, size=(num_rows, base.shape[0]))
    return base + ulps * np.spacing(np.abs(base))


def near_tie_embedding(seed: int, num_users: int = 300) -> InfluenceEmbedding:
    """Every score within a few ulps of every other, in both directions.

    Source rows are one shared row plus a few ulps per component, and
    so are target rows; the components are large and of mixed sign, so
    the scores of one query differ by about as much as gemm's summation
    order moves them.
    """
    rng = np.random.default_rng(seed)
    dim = 30
    return InfluenceEmbedding(
        near_ties(rng, rng.normal(size=dim), num_users),
        near_ties(rng, rng.normal(size=dim) * 1e3, num_users),
        np.zeros(num_users),
        np.zeros(num_users),
    )


def assert_candidates_hold_exact_topk(queries, block, k) -> None:
    """:func:`candidate_scores` keeps each query's exact top-k, exact bits."""
    exact = score_block(queries, block)
    ids = np.broadcast_to(np.arange(block.shape[0]), exact.shape)
    top = np.lexsort((ids, -exact))[:, :k]
    scores, columns = candidate_scores(queries, block, k, max_row_norm(block))
    for row in range(queries.shape[0]):
        real = columns[row] < block.shape[0]
        assert set(top[row]) <= set(columns[row][real])
        np.testing.assert_array_equal(
            scores[row][real].view(np.int64),
            exact[row, columns[row][real]].view(np.int64),
        )


def fuzz_rows(rng, num_users: int, dim: int) -> np.ndarray:
    """Rows of four kinds: scaled, cancelling, subnormal, integer."""
    rows = rng.normal(size=(num_users, dim))
    kind = rng.integers(0, 4, size=num_users)
    scales = 10.0 ** rng.integers(-150, 151, size=num_users)
    rows[kind == 0] *= scales[kind == 0, None]
    cancelling = np.flatnonzero(kind == 1)
    rows[cancelling] += rng.choice([-1e8, 1e8], size=(cancelling.size, dim))
    subnormal = np.flatnonzero(kind == 2)
    rows[subnormal] = rng.integers(-3, 4, size=(subnormal.size, dim)) * 5e-324
    integer = np.flatnonzero(kind == 3)
    rows[integer] = rng.integers(-2, 3, size=(integer.size, dim))
    return rows


def fuzz_embedding(seed: int) -> InfluenceEmbedding:
    rng = np.random.default_rng(seed)
    num_users = int(rng.integers(2, 120))
    dim = int(rng.integers(1, 9))
    biases = fuzz_rows(rng, num_users, 2)
    return InfluenceEmbedding(
        fuzz_rows(rng, num_users, dim),
        fuzz_rows(rng, num_users, dim),
        biases[:, 0],
        biases[:, 1],
    )


class TestGemmCandidates:
    """gemm picks the candidates; the answer stays the einsum oracle's."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 5, 40])
    @pytest.mark.parametrize("block_size", [1, 13, 4096])
    @pytest.mark.parametrize("direction", ["influenced", "influencers"])
    def test_scores_within_ulps_of_kth_place(self, seed, k, block_size, direction):
        embedding = near_tie_embedding(seed)
        engine = TopKEngine(embedding, block_size=block_size)
        users = [0, 3, 150, 299]
        assert_bitwise_brute_force(embedding, engine, direction, users, k)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_ties_are_ordered_differently_by_gemm(self, seed):
        """The scenario above is hard: gemm alone would rank wrongly."""
        embedding = near_tie_embedding(seed)
        queries = augment_sources(embedding, [0, 3, 150, 299])
        database = augment_targets(embedding)
        exact = score_block(queries, database)
        gemm = queries @ database.T
        assert np.ptp(exact, axis=1).max() < 64 * np.spacing(np.abs(exact).max())
        ids = np.broadcast_to(np.arange(database.shape[0]), exact.shape)
        exact_order = np.lexsort((ids, -exact))
        gemm_order = np.lexsort((ids, -gemm))
        assert (exact_order[:, :5] != gemm_order[:, :5]).any()

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_query_norms_that_underflow(self, k):
        """Squares below the subnormals: τ keeps the margin honest."""
        rng = np.random.default_rng(20)
        block = near_ties(rng, rng.normal(size=30), 300) * 1e150
        queries = rng.normal(size=(4, 30)) * 1e-170
        assert not np.einsum("ij,ij->i", queries, queries).any()
        assert_candidates_hold_exact_topk(queries, block, k)

    def test_fuzz_matches_brute_force(self, monkeypatch):
        widths = record_candidates(monkeypatch)
        for seed in range(60):
            embedding = fuzz_embedding(seed)
            num_users = embedding.source.shape[0]
            rng = np.random.default_rng(1000 + seed)
            engine = TopKEngine(
                embedding, block_size=int(rng.choice([1, 2, 3, 7, 64, 4096]))
            )
            users = rng.integers(0, num_users, size=4).tolist()
            k = int(rng.integers(1, num_users + 1))
            for direction in ("influenced", "influencers"):
                assert_bitwise_brute_force(embedding, engine, direction, users, k)
        # The fuzz reaches the gemm path: some blocks keep fewer entries
        # than they hold.
        assert any(width < rows for rows, width in widths)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("side", ["database", "query"])
    @pytest.mark.parametrize("block_size", [1, 13, 4096])
    def test_non_finite_takes_the_all_einsum_path(
        self, monkeypatch, value, side, block_size
    ):
        widths = record_candidates(monkeypatch)
        embedding = random_embedding(18)
        odd_user = 40
        if side == "database":
            embedding.target[odd_user, 1] = value
        else:
            embedding.source[odd_user, 1] = value
        engine = TopKEngine(embedding, block_size=block_size)
        users = [0, odd_user, NUM_USERS - 1]
        for k in (1, 10, NUM_USERS):
            widths.clear()
            assert_bitwise_brute_force(embedding, engine, "influenced", users, k)
            assert widths and all(width == rows for rows, width in widths)

    def test_overflowing_gemm_row(self, monkeypatch):
        widths = record_candidates(monkeypatch)
        embedding = random_embedding(19)
        embedding.source[5] *= 1e160
        embedding.target[60] *= 1e160
        queries = augment_sources(embedding, [5])
        with np.errstate(all="ignore"):
            gemm = queries @ augment_targets(embedding).T
        assert not np.isfinite(gemm).all()
        engine = TopKEngine(embedding, block_size=13)
        for k in (1, 10, NUM_USERS):
            for direction in ("influenced", "influencers"):
                assert_bitwise_brute_force(embedding, engine, direction, [5, 60, 7], k)
        # Norms that overflow send every block down the einsum path.
        assert all(width == rows for rows, width in widths)

    def test_finite_norms_whose_bound_overflows(self, monkeypatch):
        """Norms just under √max: B overflows, with no warning, and falls back."""
        widths = record_candidates(monkeypatch)
        embedding = random_embedding(21)
        big = np.sqrt(np.finfo(np.float64).max) * (1 - 1e-9)
        embedding.source[5] = 0.0
        embedding.source[5, 0] = big
        embedding.target[60] = 0.0
        embedding.target[60, 0] = big
        assert np.isfinite(max_row_norm(augment_targets(embedding)))
        engine = TopKEngine(embedding, block_size=13)
        for k in (1, 10):
            for direction in ("influenced", "influencers"):
                assert_bitwise_brute_force(embedding, engine, direction, [5, 60], k)
        assert widths and all(width == rows for rows, width in widths)


class TestBlockRule:
    """Blocks hold ``block_size × (dim + 2)`` score cells, not fixed rows."""

    def test_block_rows(self):
        assert block_rows(1024, 32, 1) == 34816
        assert block_rows(1024, 32, 64) == 544
        assert block_rows(1024, 32, 6000) == 5
        assert block_rows(1, 5, 1000) == 1

    @pytest.mark.parametrize("direction", ["influenced", "influencers"])
    def test_single_query_inside_budget_scores_one_block(
        self, monkeypatch, direction
    ):
        blocks = record_blocks(monkeypatch)
        embedding = random_embedding(14)
        engine = TopKEngine(embedding, block_size=14)  # 98 >= 97 rows
        result = batch_query(engine, direction, [3], 10)
        assert blocks == [NUM_USERS]
        ref_idx, ref_scores = brute_force_topk(embedding, 3, 10, direction)
        np.testing.assert_array_equal(result.indices[0], ref_idx)
        np.testing.assert_array_equal(result.scores[0], ref_scores)

    @pytest.mark.parametrize(
        "block_size, num_queries, expected",
        [
            (13, 1, [91, 6]),  # 13 × 7 cells, one query
            (13, 6, [15] * 6 + [7]),  # 91 // 6 = 15 rows
            (13, 64, [13] * 7 + [6]),  # never fewer than block_size rows
        ],
    )
    def test_block_rows_follow_the_number_of_queries(
        self, monkeypatch, block_size, num_queries, expected
    ):
        blocks = record_blocks(monkeypatch)
        engine = TopKEngine(random_embedding(15), block_size=block_size)
        engine.top_influenced_batch(list(range(num_queries)), 5)
        assert blocks == expected

    def test_iter_source_rows_scores_each_chunk_once(self, monkeypatch):
        from repro.serve import scoring

        calls = []
        real = scoring.score_block

        def counting(queries, block):
            calls.append((queries.shape[0], block.shape[0]))
            return real(queries, block)

        monkeypatch.setattr(scoring, "score_block", counting)
        chunks = [
            users.size
            for users, _ in iter_source_rows(random_embedding(16), block_size=30)
        ]
        # 30 × 7 = 210 cells: two full rows of 97 users per chunk.
        assert chunks == [2] * 48 + [1]
        assert calls == [(rows, NUM_USERS) for rows in chunks]


class TestBatchedVariants:
    def test_batched_equals_single_bitwise(self):
        embedding = random_embedding(3)
        engine = TopKEngine(embedding, block_size=16)
        users = [0, 11, 42, 96]
        for direction in ("influenced", "influencers"):
            batch = (
                engine.top_influenced_batch(users, 9)
                if direction == "influenced"
                else engine.top_influencers_batch(users, 9)
            )
            assert batch.indices.shape == (len(users), 9)
            for row, user in enumerate(users):
                single = (
                    engine.top_influenced(user, 9)
                    if direction == "influenced"
                    else engine.top_influencers(user, 9)
                )
                np.testing.assert_array_equal(batch.indices[row], single.indices)
                np.testing.assert_array_equal(batch.scores[row], single.scores)

    def test_validation(self):
        engine = TopKEngine(random_embedding(0))
        with pytest.raises(ServingError):
            engine.top_influenced(0, NUM_USERS + 1)
        with pytest.raises(ServingError):
            engine.top_influenced(0, 0)
        with pytest.raises(ServingError):
            engine.top_influenced(NUM_USERS, 3)
        with pytest.raises(ServingError):
            engine.top_influenced_batch([], 3)


class TestCheckUsers:
    """Query ids are integers: numpy integer kinds pass, nothing else does."""

    @pytest.mark.parametrize(
        "user",
        [3.7, np.float32(2.0), True, np.bool_(True), None, "3"],
        ids=["float", "numpy-float", "bool", "numpy-bool", "none", "string"],
    )
    def test_non_integer_id_refused(self, user):
        engine = TopKEngine(random_embedding(0))
        with pytest.raises(ServingError, match="user ids must be integers"):
            engine.top_influenced(user, 3)

    @pytest.mark.parametrize(
        "users",
        [
            np.array([True, False]),
            [0.0, 1.0],
            np.array([object()]),
            [None],
            ["3"],
        ],
        ids=["bool-mask", "float", "object", "none", "string"],
    )
    def test_non_integer_batch_refused(self, users):
        engine = TopKEngine(random_embedding(0))
        with pytest.raises(ServingError, match="user ids must be integers"):
            engine.top_influenced_batch(users, 3)

    @pytest.mark.parametrize(
        "user",
        [np.int32(3), np.uint8(3), np.int64(3), np.array(3)],
        ids=["int32", "uint8", "int64", "0-d-array"],
    )
    def test_numpy_integer_scalars_served(self, user):
        engine = TopKEngine(random_embedding(0))
        expected = engine.top_influenced(3, 4)
        got = engine.top_influenced(user, 4)
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.scores, expected.scores)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64, object])
    def test_integer_batches_served(self, dtype):
        engine = TopKEngine(random_embedding(0))
        expected = engine.top_influenced_batch([1, 5, 96], 4)
        got = engine.top_influenced_batch(np.array([1, 5, 96], dtype=dtype), 4)
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.scores, expected.scores)

    @pytest.mark.parametrize(
        "users",
        [2**63, np.uint64(2**63), 2**70, [2**63], [2**70], [0, 2**64]],
        ids=["2**63", "uint64", "2**70", "[2**63]", "[2**70]", "[0,2**64]"],
    )
    def test_beyond_int64_outside_universe(self, users):
        engine = TopKEngine(random_embedding(0))
        call = (
            engine.top_influenced_batch
            if isinstance(users, list)
            else engine.top_influenced
        )
        with pytest.raises(
            ServingError,
            match=rf"^user ids outside served universe \[0, {NUM_USERS}\)$",
        ):
            call(users, 3)


class TestScoringHelpers:
    def test_scores_match_embedding_score(self):
        """The augmented kernel agrees with Eq. 7 scoring to rounding."""
        embedding = random_embedding(8)
        queries = augment_sources(embedding, [4])
        database = augment_targets(embedding)
        scores = score_block(queries, database)[0]
        expected = [embedding.score(4, v) for v in range(NUM_USERS)]
        np.testing.assert_allclose(scores, expected, rtol=1e-12)

    def test_iter_source_rows_reassembles_identically(self):
        embedding = random_embedding(9)
        full = score_block(
            augment_sources(embedding), augment_targets(embedding)
        )
        for block_size in (1, 17, 1024):
            rows = np.empty_like(full)
            for users, chunk in iter_source_rows(
                embedding, block_size=block_size
            ):
                rows[users] = chunk
            np.testing.assert_array_equal(rows, full)

    def test_iter_source_rows_subset(self):
        embedding = random_embedding(10)
        subset = [5, 1, 88]
        collected = {}
        for users, chunk in iter_source_rows(embedding, subset, block_size=8):
            for user, row in zip(users, chunk):
                collected[int(user)] = row
        assert sorted(collected) == sorted(subset)
        full = score_block(
            augment_sources(embedding), augment_targets(embedding)
        )
        for user, row in collected.items():
            np.testing.assert_array_equal(row, full[user])

    def test_aggregated_scores_matches_dense(self):
        embedding = random_embedding(11)
        seeds = [2, 30, 77]
        dense = score_block(
            augment_sources(embedding, seeds), augment_targets(embedding)
        )
        for block_size in (1, 10, 4096):
            for name, reduce in (
                ("ave", lambda m: m.mean(axis=0)),
                ("sum", lambda m: m.sum(axis=0)),
                ("max", lambda m: m.max(axis=0)),
                ("latest", lambda m: m[-1]),
            ):
                got = aggregated_scores(embedding, seeds, name, block_size)
                np.testing.assert_array_equal(got, reduce(dense))
                # The spelling get_aggregator accepts is accepted here too.
                padded = aggregated_scores(
                    embedding, seeds, f" {name.title()} ", block_size
                )
                np.testing.assert_array_equal(padded, got)

    def test_aggregated_scores_custom_callable(self):
        embedding = random_embedding(12)
        seeds = [0, 1]
        got = aggregated_scores(
            embedding, seeds, lambda col: float(np.min(col)), block_size=7
        )
        dense = score_block(
            augment_sources(embedding, seeds), augment_targets(embedding)
        )
        np.testing.assert_array_equal(got, dense.min(axis=0))

    def test_aggregated_scores_validation(self):
        embedding = random_embedding(13)
        with pytest.raises(ServingError):
            aggregated_scores(embedding, [], "ave")
        with pytest.raises(ServingError):
            aggregated_scores(embedding, [0], "median-of-means")
