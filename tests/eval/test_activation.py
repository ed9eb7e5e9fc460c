"""Unit tests for the activation-prediction protocol."""

import pytest

from repro.core.embeddings import InfluenceEmbedding
from repro.core.prediction import EmbeddingPredictor
from repro.data.actionlog import ActionLog, DiffusionEpisode
from repro.data.graph import SocialGraph
from repro.errors import EvaluationError
from repro.eval.activation import episode_candidates, evaluate_activation

import numpy as np


@pytest.fixture
def graph() -> SocialGraph:
    # 0 -> 1 -> 2, 0 -> 3 (3 never adopts: negative candidate)
    return SocialGraph(4, [(0, 1), (1, 2), (0, 3)])


@pytest.fixture
def episode() -> DiffusionEpisode:
    return DiffusionEpisode(0, [(0, 1.0), (1, 2.0), (2, 3.0)])


class TestCandidates:
    def test_positive_candidates_with_influencers(self, graph, episode):
        candidates = episode_candidates(graph, episode)
        positives = {c.user: c for c in candidates if c.label == 1}
        # 0 adopted first with no active friends: not a candidate.
        assert 0 not in positives
        assert positives[1].active_friends == (0,)
        assert positives[2].active_friends == (1,)

    def test_activation_candidates(self, graph, episode):
        candidates = episode_candidates(graph, episode)
        assert candidates
        for candidate in candidates:
            assert candidate.label in (0, 1)
            assert candidate.item == episode.item

    def test_negative_candidates(self, graph, episode):
        candidates = episode_candidates(graph, episode)
        negatives = {c.user: c for c in candidates if c.label == 0}
        assert set(negatives) == {3}
        assert negatives[3].active_friends == (0,)

    def test_friend_order_is_activation_order(self):
        graph = SocialGraph(3, [(0, 2), (1, 2)])
        episode = DiffusionEpisode(0, [(1, 1.0), (0, 2.0), (2, 3.0)])
        candidates = episode_candidates(graph, episode)
        positive = next(c for c in candidates if c.user == 2)
        assert positive.active_friends == (1, 0)

    def test_spontaneous_adopters_not_candidates(self):
        graph = SocialGraph(3, [(0, 1)])
        # 2 adopts but has no friends at all.
        episode = DiffusionEpisode(0, [(0, 1.0), (2, 2.0)])
        candidates = episode_candidates(graph, episode)
        assert {c.user for c in candidates} == {1}
        assert all(c.label == 0 for c in candidates)

    def test_empty_episode_no_candidates(self, graph):
        assert episode_candidates(graph, DiffusionEpisode(0, [])) == []


class TestEvaluate:
    def test_perfect_predictor_scores_one(self, graph, episode):
        """An oracle that knows the adopters must get AUC 1."""
        adopters = episode.user_set()

        class Oracle:
            def activation_score(self, candidate, friends):
                return 1.0 if candidate in adopters else 0.0

            def diffusion_scores(self, seeds):
                raise NotImplementedError

        log = ActionLog([episode], num_users=4)
        result = evaluate_activation(Oracle(), graph, log)
        assert result.auc == 1.0
        assert result.map == 1.0

    def test_embedding_predictor_end_to_end(self, graph, episode):
        emb = InfluenceEmbedding.initialize(4, 4, seed=0)
        log = ActionLog([episode], num_users=4)
        result = evaluate_activation(EmbeddingPredictor(emb), graph, log)
        assert 0.0 <= result.auc <= 1.0
        assert result.num_candidates == 3

    def test_empty_log_rejected(self, graph):
        with pytest.raises(EvaluationError, match="no episodes"):
            evaluate_activation(None, graph, ActionLog([], num_users=4))

    def test_all_singleton_episodes_rejected(self, graph):
        log = ActionLog(
            [DiffusionEpisode(0, [(3, 1.0)])], num_users=4
        )
        emb = InfluenceEmbedding.initialize(4, 2, seed=0)
        with pytest.raises(EvaluationError, match="no test episode"):
            evaluate_activation(EmbeddingPredictor(emb), graph, log)

    def test_multiple_episodes_multiple_queries(self, graph):
        episodes = [
            DiffusionEpisode(0, [(0, 1.0), (1, 2.0)]),
            DiffusionEpisode(1, [(1, 1.0), (2, 2.0)]),
        ]
        log = ActionLog(episodes, num_users=4)
        emb = InfluenceEmbedding.initialize(4, 2, seed=0)
        result = evaluate_activation(EmbeddingPredictor(emb), graph, log)
        assert result.num_queries == 2
