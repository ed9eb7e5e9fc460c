"""Blocked top-k correctness: bitwise equality with a brute-force scan.

The acceptance contract of the serving layer: for any block size, the
blocked engine's indices *and* scores are bitwise-identical to a naive
full-scan argsort over the same deterministic scoring kernel, for both
query directions, across ``k ∈ {1, 10, num_users}``, including
embeddings where the bias terms dominate the dot products.
"""

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

NUM_USERS = 97


def random_embedding(seed: int, bias_scale: float = 1.0) -> InfluenceEmbedding:
    rng = np.random.default_rng(seed)
    return InfluenceEmbedding(
        rng.normal(size=(NUM_USERS, 5)),
        rng.normal(size=(NUM_USERS, 5)),
        bias_scale * rng.normal(size=NUM_USERS),
        bias_scale * rng.normal(size=NUM_USERS),
    )


def brute_force_topk(embedding, user, k, direction):
    """Naive reference: full scan + stable argsort, ties to low id."""
    if direction == "influenced":
        queries = augment_sources(embedding, [user])
        database = augment_targets(embedding)
    else:
        queries = augment_targets(embedding, [user])
        database = augment_sources(embedding)
    scores = score_block(queries, database)[0]
    order = np.lexsort((np.arange(scores.shape[0]), -scores))[:k]
    return order, scores[order]


class TestBlockedTopKProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bias_scale", [1.0, 50.0])
    @pytest.mark.parametrize("k", [1, 10, NUM_USERS])
    @pytest.mark.parametrize("block_size", [1, 13, 64, NUM_USERS, 4096])
    def test_matches_brute_force_bitwise(self, seed, bias_scale, k, block_size):
        embedding = random_embedding(seed, bias_scale)
        engine = TopKEngine(embedding, block_size=block_size)
        for direction in ("influenced", "influencers"):
            for user in (0, 7, NUM_USERS - 1):
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
        with pytest.raises(ValueError):
            engine.top_influenced(0, 0)
        with pytest.raises(ServingError):
            engine.top_influenced(NUM_USERS, 3)
        with pytest.raises(ServingError):
            engine.top_influenced_batch([], 3)


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
