"""Unit tests for the diffusion-prediction protocol."""

import numpy as np
import pytest

from repro.core.embeddings import InfluenceEmbedding
from repro.core.prediction import EmbeddingPredictor
from repro.data.actionlog import ActionLog, DiffusionEpisode
from repro.errors import EvaluationError
from repro.eval.diffusion import (
    PAPER_SEED_FRACTION,
    evaluate_diffusion,
    make_query,
)


class TestMakeQuery:
    def test_five_percent_seeds(self):
        episode = DiffusionEpisode(
            0, [(u, float(u)) for u in range(40)]
        )
        query = make_query(episode, seed_fraction=0.05)
        assert query.seeds == (0, 1)
        assert len(query.ground_truth) == 38

    def test_diffusion_query_and_paper_fraction(self):
        episode = DiffusionEpisode(
            3, [(u, float(u)) for u in range(40)]
        )
        # The default is the paper's 5% seed fraction.
        assert PAPER_SEED_FRACTION == 0.05
        assert make_query(episode) == make_query(
            episode, seed_fraction=PAPER_SEED_FRACTION
        )
        query = make_query(episode, seed_fraction=0.4)
        assert query.item == episode.item
        assert query.ground_truth  # non-seed adopters remain
        assert not query.ground_truth & set(query.seeds)

    def test_minimum_one_seed(self):
        episode = DiffusionEpisode(0, [(0, 1.0), (1, 2.0), (2, 3.0)])
        query = make_query(episode, seed_fraction=0.05)
        assert query.seeds == (0,)
        assert query.ground_truth == frozenset({1, 2})

    def test_too_small_episode_none(self):
        assert make_query(DiffusionEpisode(0, [(0, 1.0)])) is None
        assert make_query(DiffusionEpisode(0, [])) is None

    def test_seeds_never_cover_everything(self):
        episode = DiffusionEpisode(0, [(0, 1.0), (1, 2.0)])
        query = make_query(episode, seed_fraction=0.99)
        assert len(query.seeds) == 1
        assert len(query.ground_truth) == 1

    def test_invalid_fraction(self):
        episode = DiffusionEpisode(0, [(0, 1.0), (1, 2.0)])
        with pytest.raises(EvaluationError):
            make_query(episode, seed_fraction=0.0)
        with pytest.raises(EvaluationError):
            make_query(episode, seed_fraction=1.0)


class _OraclePredictor:
    """Knows the ground truth; must achieve AUC 1."""

    def __init__(self, truth, num_users):
        self.truth = truth
        self.num_users = num_users

    def activation_score(self, candidate, friends):
        raise NotImplementedError

    def diffusion_scores(self, seeds):
        scores = np.zeros(self.num_users)
        scores[list(self.truth)] = 1.0
        return scores


class TestEvaluate:
    def test_oracle_scores_one(self):
        episode = DiffusionEpisode(0, [(u, float(u)) for u in range(10)])
        log = ActionLog([episode], num_users=20)
        truth = set(range(1, 10))  # seed is user 0
        result = evaluate_diffusion(_OraclePredictor(truth, 20), 20, log)
        assert result.auc == 1.0
        assert result.map == 1.0

    def test_seeds_excluded_from_candidates(self):
        episode = DiffusionEpisode(0, [(u, float(u)) for u in range(10)])
        log = ActionLog([episode], num_users=20)
        result = evaluate_diffusion(_OraclePredictor(set(range(1, 10)), 20), 20, log)
        assert result.num_candidates == 19  # 20 users - 1 seed

    def test_embedding_predictor_end_to_end(self):
        episode = DiffusionEpisode(0, [(u, float(u)) for u in range(6)])
        log = ActionLog([episode], num_users=10)
        emb = InfluenceEmbedding.initialize(10, 4, seed=0)
        result = evaluate_diffusion(EmbeddingPredictor(emb), 10, log)
        assert 0.0 <= result.auc <= 1.0

    def test_wrong_score_shape_rejected(self):
        episode = DiffusionEpisode(0, [(0, 1.0), (1, 2.0)])
        log = ActionLog([episode], num_users=5)

        class BadPredictor:
            def diffusion_scores(self, seeds):
                return np.zeros(3)

        with pytest.raises(EvaluationError, match="shape"):
            evaluate_diffusion(BadPredictor(), 5, log)

    def test_empty_log_rejected(self):
        with pytest.raises(EvaluationError, match="no episodes"):
            evaluate_diffusion(None, 5, ActionLog([], num_users=5))

    def test_all_tiny_episodes_rejected(self):
        log = ActionLog([DiffusionEpisode(0, [(0, 1.0)])], num_users=5)
        with pytest.raises(EvaluationError, match="large enough"):
            evaluate_diffusion(_OraclePredictor(set(), 5), 5, log)
