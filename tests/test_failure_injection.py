"""Failure-injection tests: malformed, degenerate, and hostile inputs.

Each test drives a realistic failure mode end to end and asserts the
library either handles it gracefully or fails with a clear
library-specific error — never a numpy broadcast error or a silent
wrong answer.
"""

import json
import shutil

import numpy as np
import pytest

from repro.ckpt import CheckpointManager, TrainingState
from repro.core.context import ContextConfig, ContextGenerator
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.core.prediction import EmbeddingPredictor
from repro.data.actionlog import ActionLog, DiffusionEpisode
from repro.data.graph import SocialGraph
from repro.errors import (
    ActionLogError,
    CheckpointError,
    EvaluationError,
    ReproError,
)
from repro.eval.activation import evaluate_activation
from repro.eval.diffusion import evaluate_diffusion
from repro.eval.metrics import RankingEvaluator
from repro.viz.tsne import TSNEConfig, tsne


class TestHostileLogs:
    def test_non_chronological_input_is_sorted_not_trusted(self):
        """Timestamps arriving out of order must not create backwards
        influence pairs."""
        graph = SocialGraph(2, [(0, 1)])
        episode = DiffusionEpisode(0, [(1, 5.0), (0, 1.0)])  # reversed input
        from repro.core.pairs import extract_episode_pairs

        pairs = extract_episode_pairs(graph, episode)
        assert [tuple(p) for p in pairs] == [(0, 1)]

    def test_log_user_outside_graph_universe(self):
        graph = SocialGraph(3, [(0, 1)])
        log = ActionLog([DiffusionEpisode(0, [(9, 1.0)])], num_users=10)
        generator = ContextGenerator(graph, ContextConfig(length=4), seed=0)
        with pytest.raises(ReproError):
            generator.generate(log)

    def test_all_simultaneous_adoptions_produce_no_pairs(self):
        graph = SocialGraph(3, [(0, 1), (1, 2)])
        episode = DiffusionEpisode(0, [(0, 1.0), (1, 1.0), (2, 1.0)])
        from repro.core.pairs import extract_episode_pairs

        assert extract_episode_pairs(graph, episode).shape == (0, 2)

    def test_mixed_timestamp_magnitudes(self):
        """Epoch-seconds next to small floats must still order correctly."""
        episode = DiffusionEpisode(0, [(0, 1.7e9), (1, 0.5), (2, 3.0)])
        assert episode.users.tolist() == [1, 2, 0]


class TestDegenerateTraining:
    def test_training_on_single_user_log(self):
        graph = SocialGraph(5, [(0, 1)])
        log = ActionLog(
            [DiffusionEpisode(i, [(3, 1.0)]) for i in range(4)], num_users=5
        )
        model = Inf2vecModel(Inf2vecConfig(dim=4, epochs=2), seed=0)
        model.fit(graph, log)  # must not raise
        assert model.is_fitted

    def test_training_on_empty_graph(self):
        graph = SocialGraph(4, [])
        log = ActionLog(
            [DiffusionEpisode(0, [(0, 1.0), (1, 2.0)])], num_users=4
        )
        model = Inf2vecModel(Inf2vecConfig(dim=4, epochs=2), seed=0)
        model.fit(graph, log)
        # No edges -> no local context, only global samples; still fits.
        assert model.is_fitted

    def test_prediction_for_never_seen_user(self, small_dataset, small_splits):
        """Users absent from training still get finite scores."""
        train, _tune, _test = small_splits
        model = Inf2vecModel(
            Inf2vecConfig(dim=4, epochs=1, context=ContextConfig(length=4)),
            seed=0,
        ).fit(small_dataset.graph, train)
        inactive = [
            u
            for u in range(small_dataset.graph.num_nodes)
            if u not in set(train.active_users().tolist())
        ]
        if not inactive:
            pytest.skip("every user active in this split")
        predictor = EmbeddingPredictor(model.embedding)
        score = predictor.activation_score(inactive[0], [0])
        assert np.isfinite(score)


class TestDegenerateEvaluation:
    def test_single_candidate_episode(self):
        graph = SocialGraph(2, [(0, 1)])
        log = ActionLog(
            [DiffusionEpisode(0, [(0, 1.0), (1, 2.0)])], num_users=2
        )
        from repro.core.embeddings import InfluenceEmbedding

        emb = InfluenceEmbedding.initialize(2, 2, seed=0)
        result = evaluate_activation(EmbeddingPredictor(emb), graph, log)
        # One positive candidate, zero negatives: AUC undefined (nan),
        # MAP well defined.
        assert np.isnan(result.auc)
        assert result.map == 1.0

    def test_nan_scores_rejected_loudly(self):
        evaluator = RankingEvaluator()
        with pytest.raises(EvaluationError, match="finite"):
            evaluator.add_query([float("nan")], [1])

    def test_diffusion_all_users_adopt(self):
        """Ground truth covering the whole network leaves no negatives."""
        graph = SocialGraph(3, [(0, 1), (1, 2)])
        log = ActionLog(
            [DiffusionEpisode(0, [(0, 1.0), (1, 2.0), (2, 3.0)])], num_users=3
        )
        from repro.core.embeddings import InfluenceEmbedding

        emb = InfluenceEmbedding.initialize(3, 2, seed=0)
        result = evaluate_diffusion(EmbeddingPredictor(emb), 3, log)
        assert np.isnan(result.auc)  # single-class, honestly reported
        assert result.num_positives == result.num_candidates


class TestCorruptCheckpoints:
    """Every way a checkpoint directory can be damaged must surface as a
    clear :class:`CheckpointError`, and discovery must route around it."""

    @pytest.fixture()
    def saved_checkpoint(self, tmp_path):
        graph = SocialGraph(4, [(0, 1), (1, 2), (2, 3)])
        log = ActionLog(
            [DiffusionEpisode(0, [(0, 1.0), (1, 2.0)])], num_users=4
        )
        model = Inf2vecModel(Inf2vecConfig(dim=4, epochs=2), seed=1)
        model.fit(graph, log)
        manager = CheckpointManager(tmp_path, keep=10)
        path = manager.save(model, epoch=1)
        return manager, path

    @staticmethod
    def _rewrite_state(path, edit):
        state_file = path / "state.json"
        fields = json.loads(state_file.read_text())
        state_file.write_text(json.dumps(edit(fields)))

    def test_truncated_checkpoint_rejected(self, saved_checkpoint):
        _manager, path = saved_checkpoint
        shard = path / "source.npy"
        payload = shard.read_bytes()
        shard.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(CheckpointError):
            TrainingState.load(path)

    def test_empty_checkpoint_rejected(self, saved_checkpoint):
        _manager, path = saved_checkpoint
        (path / "state.json").write_bytes(b"")
        with pytest.raises(CheckpointError):
            TrainingState.load(path)

    def test_wrong_version_rejected(self, saved_checkpoint):
        _manager, path = saved_checkpoint
        self._rewrite_state(
            path, lambda fields: {**fields, "checkpoint_version": 999}
        )
        with pytest.raises(CheckpointError, match="version 999"):
            TrainingState.load(path)

    def test_missing_fields_rejected(self, saved_checkpoint):
        _manager, path = saved_checkpoint
        self._rewrite_state(
            path,
            lambda fields: {"checkpoint_version": fields["checkpoint_version"]},
        )
        with pytest.raises(CheckpointError, match="missing fields"):
            TrainingState.load(path)

    def test_discovery_falls_back_to_older_valid(self, saved_checkpoint):
        manager, path = saved_checkpoint
        older = manager.directory / "ckpt-00000000"
        shutil.copytree(path, older)  # valid copy at epoch slot 0
        state = TrainingState.load(older)
        (path / "state.json").write_bytes(
            b"garbage overwriting the newest checkpoint"
        )
        recovered = manager.latest_state()
        # Note: the copied checkpoint still records epoch=1 internally;
        # the point is that discovery skipped the corrupt newest one.
        assert recovered is not None
        np.testing.assert_array_equal(recovered.source, state.source)

    def test_directory_of_only_garbage_yields_none(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        (tmp_path / "ckpt-00000000").mkdir()
        (tmp_path / "ckpt-00000000" / "state.json").write_bytes(b"junk")
        (tmp_path / "ckpt-00000001").write_bytes(b"")
        assert manager.latest_state() is None


class TestNumericalEdges:
    def test_tsne_with_duplicate_rows(self):
        points = np.zeros((10, 4))
        points[5:] = 1.0
        layout = tsne(points, TSNEConfig(num_iterations=50, perplexity=2), seed=0)
        assert np.all(np.isfinite(layout))

    def test_extreme_scores_do_not_overflow_predictor(self):
        from repro.core.embeddings import InfluenceEmbedding

        emb = InfluenceEmbedding(
            source=np.full((3, 2), 1e8),
            target=np.full((3, 2), 1e8),
            source_bias=np.zeros(3),
            target_bias=np.zeros(3),
        )
        predictor = EmbeddingPredictor(emb)
        assert np.isfinite(predictor.activation_score(0, [1, 2]))

    def test_episode_with_negative_timestamps(self):
        episode = DiffusionEpisode(0, [(0, -5.0), (1, -1.0)])
        assert episode.users.tolist() == [0, 1]

    def test_split_more_parts_than_episodes(self):
        log = ActionLog([DiffusionEpisode(0, [(0, 1.0)])], num_users=2)
        parts = log.split((0.4, 0.3, 0.3), seed=0)
        assert sum(len(p) for p in parts) == 1

    def test_zero_user_log_statistics(self):
        log = ActionLog([], num_users=0)
        assert log.statistics()["num_actions"] == 0
        with pytest.raises(ActionLogError):
            log.split(())
