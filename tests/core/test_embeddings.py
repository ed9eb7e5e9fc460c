"""Unit tests for the influence-embedding parameter store."""

import numpy as np
import pytest

from repro.core.embeddings import InfluenceEmbedding
from repro.errors import TrainingError


@pytest.fixture
def embedding() -> InfluenceEmbedding:
    source = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    target = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, -1.0]])
    return InfluenceEmbedding(
        source, target, np.array([0.1, 0.2, 0.3]), np.array([-0.1, 0.0, 0.1])
    )


class TestConstruction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(TrainingError, match="!="):
            InfluenceEmbedding(
                np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(3), np.zeros(3)
            )

    def test_bias_shape_rejected(self):
        with pytest.raises(TrainingError, match="bias"):
            InfluenceEmbedding(
                np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(2), np.zeros(3)
            )

    def test_non_matrix_rejected(self):
        with pytest.raises(TrainingError, match="2-D"):
            InfluenceEmbedding(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))

    def test_initialize_ranges(self):
        emb = InfluenceEmbedding.initialize(100, 10, seed=0)
        bound = 1.0 / 10
        assert emb.source.shape == (100, 10)
        assert np.all(np.abs(emb.source) <= bound)
        assert np.all(np.abs(emb.target) <= bound)
        assert np.all(emb.source_bias == 0)
        assert np.all(emb.target_bias == 0)

    def test_initialize_deterministic(self):
        a = InfluenceEmbedding.initialize(10, 4, seed=3)
        b = InfluenceEmbedding.initialize(10, 4, seed=3)
        assert np.array_equal(a.source, b.source)

    def test_initialize_validates(self):
        with pytest.raises(ValueError):
            InfluenceEmbedding.initialize(0, 5)
        with pytest.raises(ValueError):
            InfluenceEmbedding.initialize(5, 0)


class TestScoring:
    def test_score_formula(self, embedding):
        # x(0, 1) = S_0 . T_1 + b_0 + bt_1 = 0 + 0.1 + 0.0
        assert embedding.score(0, 1) == pytest.approx(0.1)
        # x(2, 0) = (1,1).(2,0) + 0.3 - 0.1 = 2.2
        assert embedding.score(2, 0) == pytest.approx(2.2)

    def test_score_pairs_vectorised(self, embedding):
        scores = embedding.score_pairs([0, 2], [1, 0])
        assert scores.tolist() == pytest.approx([0.1, 2.2])

    def test_score_pairs_shape_mismatch(self, embedding):
        with pytest.raises(TrainingError, match="differ"):
            embedding.score_pairs([0, 1], [0])

    def test_scores_from_matches_scalar(self, embedding):
        row = embedding.scores_from(2)
        expected = [embedding.score(2, v) for v in range(3)]
        assert row.tolist() == pytest.approx(expected)

    def test_scores_onto_matches_scalar(self, embedding):
        col = embedding.scores_onto(0, [1, 2])
        expected = [embedding.score(1, 0), embedding.score(2, 0)]
        assert col.tolist() == pytest.approx(expected)

    def test_combined_vectors(self, embedding):
        combined = embedding.combined_vectors()
        assert combined.shape == (3, 4)
        assert combined[0].tolist() == [1.0, 0.0, 2.0, 0.0]


class TestPersistence:
    def test_copy_is_deep(self, embedding):
        clone = embedding.copy()
        clone.source[0, 0] = 99.0
        assert embedding.source[0, 0] == 1.0

    def test_properties(self, embedding):
        assert embedding.num_users == 3
        assert embedding.dim == 2
        assert "num_users=3" in repr(embedding)
