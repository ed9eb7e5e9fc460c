"""Unit tests for the time-aware context generator."""

import numpy as np
import pytest

from repro.core.context import ContextConfig
from repro.core.propagation import PropagationNetwork
from repro.data.actionlog import ActionLog, DiffusionEpisode
from repro.data.graph import SocialGraph
from repro.errors import TrainingError
from repro.extensions.temporal_context import (
    TemporalContextConfig,
    TemporalContextGenerator,
    temporal_global_sample,
    temporal_walk,
)
from repro.utils.rng import ensure_rng


@pytest.fixture
def episode() -> DiffusionEpisode:
    # 0 adopts, then 1 quickly, 2 slowly; both influenced by 0.
    return DiffusionEpisode(0, [(0, 0.0), (1, 1.0), (2, 50.0), (3, 51.0)])


@pytest.fixture
def network(episode) -> PropagationNetwork:
    graph = SocialGraph(4, [(0, 1), (0, 2), (2, 3)])
    return PropagationNetwork.from_episode(graph, episode)


class TestTemporalWalk:
    def test_prefers_fast_propagation(self, network, episode):
        rng = ensure_rng(0)
        visited = temporal_walk(
            network, episode, 0, budget=300, restart_prob=0.5, decay=5.0, rng=rng
        )
        # Successor 1 (delta 1.0) should dominate successor 2 (delta 50).
        assert visited.count(1) > 3 * visited.count(2)

    def test_budget_and_sink(self, network, episode):
        rng = ensure_rng(0)
        assert temporal_walk(network, episode, 3, 10, 0.5, 5.0, rng) == []
        walk = temporal_walk(network, episode, 0, 7, 0.5, 5.0, rng)
        assert len(walk) == 7

    def test_zero_budget(self, network, episode):
        rng = ensure_rng(0)
        assert temporal_walk(network, episode, 0, 0, 0.5, 5.0, rng) == []


class TestTemporalGlobalSample:
    def test_prefers_temporal_neighbours(self, network, episode):
        rng = ensure_rng(0)
        samples = temporal_global_sample(network, episode, 2, 300, decay=5.0, rng=rng)
        # User 2 adopted at t=50; user 3 (t=51) is far closer than 0/1.
        assert samples.count(3) > samples.count(0)
        assert samples.count(3) > samples.count(1)

    def test_excludes_self(self, network, episode):
        rng = ensure_rng(0)
        samples = temporal_global_sample(network, episode, 0, 50, 5.0, rng)
        assert 0 not in samples


class TestGenerator:
    def test_generates_trainable_corpus(self):
        graph = SocialGraph(4, [(0, 1), (0, 2), (2, 3)])
        episode = DiffusionEpisode(0, [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)])
        log = ActionLog([episode], num_users=4)
        generator = TemporalContextGenerator(
            graph,
            TemporalContextConfig(base=ContextConfig(length=8, alpha=0.5)),
            seed=0,
        )
        corpus = generator.generate(log)
        assert len(corpus)
        assert np.all(corpus.sizes > 0)
        assert set(corpus.centres.tolist()) <= {0, 1, 2, 3}

        # The corpus must feed the unchanged core trainer.
        from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel

        model = Inf2vecModel(Inf2vecConfig(dim=4, epochs=2), seed=0)
        model.fit_contexts(corpus, num_users=4)
        assert model.is_fitted

    def test_oversized_log_rejected(self):
        graph = SocialGraph(2, [(0, 1)])
        log = ActionLog([DiffusionEpisode(0, [(4, 1.0)])], num_users=5)
        generator = TemporalContextGenerator(graph, seed=0)
        with pytest.raises(TrainingError):
            generator.generate(log)

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            TemporalContextConfig(decay=0.0)
