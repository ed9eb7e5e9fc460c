"""Unit tests for checkpoint cadence, retention, and discovery."""

import shutil

import numpy as np
import pytest

from repro.ckpt import CheckpointManager, TrainingState
from repro.ckpt.manager import CKPT_WRITE_LATENCY_BUCKETS
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.data.actionlog import ActionLog, DiffusionEpisode
from repro.data.graph import SocialGraph
from repro.obs.metrics import MetricsRegistry
from repro.obs.run import RunRecorder, recording


@pytest.fixture()
def fitted_model() -> Inf2vecModel:
    graph = SocialGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    log = ActionLog(
        [DiffusionEpisode(0, [(0, 1.0), (1, 2.0), (2, 3.0)])], num_users=5
    )
    model = Inf2vecModel(Inf2vecConfig(dim=4, epochs=2), seed=3)
    return model.fit(graph, log)


def _at_epoch(model, epoch):
    """``model`` with a loss history that matches ``epoch``, so a
    checkpoint of it at ``epoch`` passes validation."""
    model._loss_history = [float(i) for i in range(epoch + 1)]
    return model


class TestCadence:
    def test_skips_off_cadence_epochs(self, fitted_model, tmp_path):
        manager = CheckpointManager(tmp_path, every=3)
        assert manager.maybe_save(fitted_model, epoch=0) is None
        assert manager.maybe_save(fitted_model, epoch=1) is None

    def test_fires_on_cadence(self, fitted_model, tmp_path):
        manager = CheckpointManager(tmp_path, every=2)
        path = manager.maybe_save(fitted_model, epoch=1)
        assert path is not None and path.exists()

    def test_force_bypasses_cadence(self, fitted_model, tmp_path):
        manager = CheckpointManager(tmp_path, every=100)
        epoch = len(fitted_model.loss_history) - 1
        path = manager.maybe_save(fitted_model, epoch=epoch, force=True)
        assert path is not None and path.exists()
        assert TrainingState.load(path).epoch == epoch

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)


class TestRetention:
    def test_prunes_to_keep_newest(self, fitted_model, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, keep=2)
        for epoch in range(5):
            manager.save(_at_epoch(fitted_model, epoch), epoch)
        names = [p.name for p in manager.checkpoint_paths()]
        assert names == ["ckpt-00000003", "ckpt-00000004"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_foreign_files_untouched(self, fitted_model, tmp_path):
        (tmp_path / "notes.txt").write_text("keep me")
        manager = CheckpointManager(tmp_path, every=1, keep=1)
        for epoch in range(3):
            manager.save(_at_epoch(fitted_model, epoch), epoch)
        assert (tmp_path / "notes.txt").read_text() == "keep me"


class TestDiscovery:
    def test_paths_sorted_by_epoch(self, fitted_model, tmp_path):
        manager = CheckpointManager(tmp_path, keep=10)
        for epoch in (7, 2, 11):
            manager.save(_at_epoch(fitted_model, epoch), epoch)
        epochs = [p.name for p in manager.checkpoint_paths()]
        assert epochs == [
            "ckpt-00000002",
            "ckpt-00000007",
            "ckpt-00000011",
        ]

    def test_latest_path_empty_dir(self, tmp_path):
        assert CheckpointManager(tmp_path).latest_path() is None
        assert CheckpointManager(tmp_path).latest_state() is None

    def test_latest_state_skips_corrupt_newest(self, fitted_model, tmp_path):
        manager = CheckpointManager(tmp_path, keep=10)
        manager.save(_at_epoch(fitted_model, 0), 0)
        manager.save(_at_epoch(fitted_model, 1), 1)
        shutil.rmtree(manager.path_for_epoch(1))
        manager.path_for_epoch(1).write_bytes(b"torn write from the old days")
        state = manager.latest_state()
        assert state is not None and state.epoch == 0

    def test_latest_state_returns_newest_valid(self, fitted_model, tmp_path):
        manager = CheckpointManager(tmp_path, keep=10)
        manager.save(_at_epoch(fitted_model, 0), 0)
        manager.save(_at_epoch(fitted_model, 4), 4)
        assert manager.latest_state().epoch == 4


class TestMetrics:
    def test_save_records_counters_and_latency(self, fitted_model, tmp_path):
        run = RunRecorder()
        registry = run.metrics
        manager = CheckpointManager(tmp_path, every=1, keep=1)
        with recording(run):
            manager.save(_at_epoch(fitted_model, 0), 0)
            manager.save(_at_epoch(fitted_model, 1), 1)
        assert registry.counter("ckpt.saves").value() == 2
        expected_bytes = sum(
            part.stat().st_size
            for path in manager.checkpoint_paths()
            for part in path.iterdir()
        )
        assert registry.counter("ckpt.bytes_written").value() >= expected_bytes
        assert registry.counter("ckpt.pruned").value() == 1
        snapshot = registry.snapshot()
        assert "ckpt.write_seconds" in snapshot

    def test_bytes_written_equals_bytes_on_disk(self, fitted_model, tmp_path):
        run = RunRecorder()
        manager = CheckpointManager(tmp_path, keep=10)
        with recording(run):
            for epoch in range(2):
                manager.save(_at_epoch(fitted_model, epoch), epoch)
        on_disk = sum(
            part.stat().st_size
            for path in manager.checkpoint_paths()
            for part in path.iterdir()
        )
        assert run.metrics.counter("ckpt.bytes_written").value() == on_disk

    def test_write_latency_buckets_are_monotone(self):
        # The declared edges are already sorted and positive, so the
        # registry keeps them as given.
        assert list(CKPT_WRITE_LATENCY_BUCKETS) == sorted(
            CKPT_WRITE_LATENCY_BUCKETS
        )
        assert CKPT_WRITE_LATENCY_BUCKETS[0] > 0.0
        latency = MetricsRegistry().histogram(
            "ckpt.write_seconds", CKPT_WRITE_LATENCY_BUCKETS
        )
        assert latency.buckets == CKPT_WRITE_LATENCY_BUCKETS

    def test_saved_state_roundtrips(self, fitted_model, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(fitted_model, 1)
        state = TrainingState.load(path)
        np.testing.assert_array_equal(
            state.source, fitted_model.embedding.source
        )
