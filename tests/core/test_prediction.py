"""Unit tests for the Eq. 7 / Eq. 8 predictors."""

import numpy as np
import pytest

from repro.core.embeddings import InfluenceEmbedding
from repro.core.prediction import EmbeddingPredictor, ICPredictor
from repro.data.graph import SocialGraph
from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import EvaluationError


@pytest.fixture
def embedding() -> InfluenceEmbedding:
    source = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    target = np.array([[0.0, 2.0], [1.0, 0.0], [1.0, 1.0]])
    return InfluenceEmbedding(
        source, target, np.array([0.0, 0.5, 0.0]), np.array([0.0, 0.0, -0.5])
    )


class TestEmbeddingPredictor:
    def test_ave_activation(self, embedding):
        predictor = EmbeddingPredictor(embedding, "ave")
        # x(0,2) = 1 + 0 - 0.5 = 0.5 ; x(1,2) = 1 + 0.5 - 0.5 = 1.0
        assert predictor.activation_score(2, [0, 1]) == pytest.approx(0.75)

    def test_latest_activation_uses_last_friend(self, embedding):
        predictor = EmbeddingPredictor(embedding, "latest")
        assert predictor.activation_score(2, [0, 1]) == pytest.approx(1.0)
        assert predictor.activation_score(2, [1, 0]) == pytest.approx(0.5)

    def test_empty_friends_rejected(self, embedding):
        predictor = EmbeddingPredictor(embedding)
        with pytest.raises(EvaluationError):
            predictor.activation_score(2, [])

    @pytest.mark.parametrize("name", ["ave", "sum", "max", "latest"])
    def test_diffusion_matches_manual_aggregation(self, embedding, name):
        predictor = EmbeddingPredictor(embedding, name)
        seeds = [0, 1]
        scores = predictor.diffusion_scores(seeds)
        pairwise = np.array(
            [[embedding.score(s, v) for v in range(3)] for s in seeds]
        )
        expected = {
            "ave": pairwise.mean(axis=0),
            "sum": pairwise.sum(axis=0),
            "max": pairwise.max(axis=0),
            "latest": pairwise[-1],
        }[name]
        np.testing.assert_allclose(scores, expected)

    def test_diffusion_empty_seeds_rejected(self, embedding):
        with pytest.raises(EvaluationError):
            EmbeddingPredictor(embedding).diffusion_scores([])

    def test_custom_callable_aggregator(self, embedding):
        predictor = EmbeddingPredictor(embedding, lambda s: float(np.min(s)))
        assert predictor.activation_score(2, [0, 1]) == pytest.approx(0.5)
        scores = predictor.diffusion_scores([0, 1])
        assert scores.shape == (3,)

    def test_aggregator_name_exposed(self, embedding):
        assert EmbeddingPredictor(embedding, "Max").aggregator_name == "max"

    def test_custom_callable_named_like_builtin_is_honoured(self, embedding):
        """Regression: dispatch keyed on whether a callable was supplied.

        The old code dispatched on ``__name__``, so a custom callable
        named ``max`` was silently replaced by the builtin max path.
        """

        def max(scores):  # noqa: A001 - the collision is the point
            return float(np.min(scores))  # deliberately NOT a maximum

        predictor = EmbeddingPredictor(embedding, max)
        assert predictor.aggregator_name == "max"
        scores = predictor.diffusion_scores([0, 1])
        builtin = EmbeddingPredictor(embedding, "max").diffusion_scores([0, 1])
        minimum = EmbeddingPredictor(
            embedding, lambda s: float(np.min(s))
        ).diffusion_scores([0, 1])
        np.testing.assert_array_equal(scores, minimum)
        assert not np.array_equal(scores, builtin)


class TestICPredictor:
    @pytest.fixture
    def predictor(self) -> ICPredictor:
        graph = SocialGraph(4, [(0, 2), (1, 2), (2, 3)])
        probs = EdgeProbabilities.from_dict(
            graph, {(0, 2): 0.5, (1, 2): 0.5, (2, 3): 1.0}
        )
        return ICPredictor(probs, num_runs=2000, seed=0)

    def test_eq8_activation(self, predictor):
        # 1 - (1-0.5)(1-0.5) = 0.75
        assert predictor.activation_score(2, [0, 1]) == pytest.approx(0.75)

    def test_non_edges_contribute_zero(self, predictor):
        assert predictor.activation_score(2, [3]) == pytest.approx(0.0)
        assert predictor.activation_score(2, [0, 3]) == pytest.approx(0.5)

    def test_empty_friends_rejected(self, predictor):
        with pytest.raises(EvaluationError):
            predictor.activation_score(2, [])

    def test_diffusion_scores_frequencies(self, predictor):
        scores = predictor.diffusion_scores([0, 1])
        assert scores[0] == 1.0 and scores[1] == 1.0  # seeds always active
        assert scores[2] == pytest.approx(0.75, abs=0.03)
        # node 3 activates iff node 2 does (P=1 edge).
        assert scores[3] == pytest.approx(scores[2], abs=0.03)

    def test_diffusion_empty_seeds_rejected(self, predictor):
        with pytest.raises(EvaluationError):
            predictor.diffusion_scores([])

    def test_num_runs_validated(self, predictor):
        with pytest.raises(ValueError):
            ICPredictor(predictor.probabilities, num_runs=0)
