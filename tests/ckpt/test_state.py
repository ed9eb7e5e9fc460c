"""Unit tests for training-state serialization."""

import dataclasses
import shutil

import numpy as np
import pytest

from repro.ckpt import CHECKPOINT_VERSION, TrainingState
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.data.actionlog import ActionLog, DiffusionEpisode
from repro.data.graph import SocialGraph
from repro.errors import CheckpointError
from repro.serve import EmbeddingStore


@pytest.fixture()
def fitted_model() -> Inf2vecModel:
    graph = SocialGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    log = ActionLog(
        [
            DiffusionEpisode(0, [(0, 1.0), (1, 2.0), (2, 3.0)]),
            DiffusionEpisode(1, [(3, 1.0), (4, 2.0)]),
        ],
        num_users=6,
    )
    model = Inf2vecModel(Inf2vecConfig(dim=4, epochs=3), seed=7)
    return model.fit(graph, log)


class TestCapture:
    def test_capture_copies_arrays(self, fitted_model):
        state = TrainingState.capture(fitted_model, epoch=2)
        fitted_model.embedding.source[0, 0] = 123.0
        assert state.source[0, 0] != 123.0

    def test_capture_records_epoch_and_history(self, fitted_model):
        state = TrainingState.capture(fitted_model, epoch=2)
        assert state.epoch == 2
        assert state.loss_history == tuple(fitted_model.loss_history)

    def test_capture_restores_rng_stream(self, fitted_model):
        state = TrainingState.capture(fitted_model, epoch=2)
        expected = fitted_model.rng.integers(0, 1 << 30, size=8)
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = state.rng_state
        assert np.array_equal(fresh.integers(0, 1 << 30, size=8), expected)

    def test_shapes_exposed(self, fitted_model):
        state = TrainingState.capture(fitted_model, epoch=2)
        assert state.num_users == 6
        assert state.dim == 4


class TestRoundtrip:
    def test_save_load_roundtrip(self, fitted_model, tmp_path):
        state = TrainingState.capture(fitted_model, epoch=2)
        path = state.save(tmp_path / "ckpt")
        loaded = TrainingState.load(path)
        np.testing.assert_array_equal(loaded.source, state.source)
        np.testing.assert_array_equal(loaded.target, state.target)
        np.testing.assert_array_equal(loaded.source_bias, state.source_bias)
        np.testing.assert_array_equal(loaded.target_bias, state.target_bias)
        assert loaded.epoch == state.epoch
        assert loaded.loss_history == state.loss_history
        assert loaded.config_fingerprint == state.config_fingerprint
        assert loaded.rng_state == state.rng_state
        assert loaded.entry_rng_state == state.entry_rng_state

    def test_bare_path_roundtrip(self, fitted_model, tmp_path):
        # A checkpoint is a directory at exactly the path given: a store
        # plus state.json, and nothing else once the save has committed.
        state = TrainingState.capture(fitted_model, epoch=2)
        path = state.save(str(tmp_path / "ckpt"))
        assert path == tmp_path / "ckpt" and path.is_dir()
        assert sorted(p.name for p in path.iterdir()) == [
            "source.npy",
            "source_bias.npy",
            "state.json",
            "store.json",
            "target.npy",
            "target_bias.npy",
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        assert TrainingState.load(str(tmp_path / "ckpt")).epoch == 2

    def test_resave_replaces_existing_checkpoint(self, fitted_model, tmp_path):
        state = TrainingState.capture(fitted_model, epoch=2)
        path = state.save(tmp_path / "ckpt")
        (path / "stale.txt").write_text("from the earlier save")
        state.save(path)
        assert not (path / "stale.txt").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        assert TrainingState.load(path).epoch == 2

    def test_checkpoint_opens_as_embedding_store(self, fitted_model, tmp_path):
        state = TrainingState.capture(fitted_model, epoch=2)
        store = EmbeddingStore.open(state.save(tmp_path / "ckpt"))
        np.testing.assert_array_equal(store.source, state.source)
        np.testing.assert_array_equal(store.target_bias, state.target_bias)

    def test_loaded_arrays_are_writable_copies(self, fitted_model, tmp_path):
        state = TrainingState.capture(fitted_model, epoch=2)
        loaded = TrainingState.load(state.save(tmp_path / "ckpt"))
        assert not isinstance(loaded.source, np.memmap)
        loaded.source[0, 0] += 1.0
        loaded.target_bias[0] += 1.0

    def test_to_embedding(self, fitted_model, tmp_path):
        state = TrainingState.capture(fitted_model, epoch=2)
        emb = state.to_embedding()
        np.testing.assert_array_equal(
            emb.source, fitted_model.embedding.source
        )

    def test_mt19937_rng_state_roundtrips(self, fitted_model, tmp_path):
        """The legacy bit generator's array-valued state survives JSON."""
        legacy = np.random.Generator(np.random.MT19937(5))
        fitted_model._rng = legacy
        state = TrainingState.capture(fitted_model, epoch=2)
        loaded = TrainingState.load(state.save(tmp_path / "mt"))
        fresh = np.random.Generator(np.random.MT19937(0))
        fresh.bit_generator.state = loaded.rng_state
        assert np.array_equal(
            fresh.integers(0, 100, size=5), legacy.integers(0, 100, size=5)
        )


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            TrainingState.load(tmp_path / "nope")

    def test_version_constant(self):
        # Version 1 was the single-file .npz archive.
        assert CHECKPOINT_VERSION == 2

    def test_retired_npz_checkpoint_names_the_format(self, tmp_path):
        path = tmp_path / "ckpt-00000002.npz"
        np.savez_compressed(path, checkpoint_version=np.int64(1))
        with pytest.raises(CheckpointError, match=r"\.npz checkpoint format"):
            TrainingState.load(path)

    def test_shards_of_another_checkpoint_rejected(self, fitted_model, tmp_path):
        # Each shard matches its own store.json, but state.json binds the
        # store it was written with.
        first = TrainingState.capture(fitted_model, epoch=2).save(tmp_path / "a")
        fitted_model.embedding.source[0, 0] += 1.0
        second = TrainingState.capture(fitted_model, epoch=2).save(tmp_path / "b")
        for name in ("store.json", "source.npy"):
            shutil.copyfile(second / name, first / name)
        with pytest.raises(CheckpointError, match="not the ones"):
            TrainingState.load(first)

    def test_inconsistent_state_not_written(self, fitted_model, tmp_path):
        state = dataclasses.replace(
            TrainingState.capture(fitted_model, epoch=2), epoch=0
        )
        with pytest.raises(CheckpointError, match="loss history"):
            state.save(tmp_path / "ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_mismatched_history_rejected(self, fitted_model):
        state = TrainingState.capture(fitted_model, epoch=2)
        with pytest.raises(CheckpointError, match="loss history"):
            TrainingState(
                source=state.source,
                target=state.target,
                source_bias=state.source_bias,
                target_bias=state.target_bias,
                epoch=5,  # but only 3 losses recorded
                loss_history=state.loss_history,
                config_fingerprint=state.config_fingerprint,
                rng_state=state.rng_state,
                entry_rng_state=state.entry_rng_state,
            ).validate()

    def test_bias_shape_rejected(self, fitted_model):
        state = TrainingState.capture(fitted_model, epoch=2)
        with pytest.raises(CheckpointError, match="bias"):
            TrainingState(
                source=state.source,
                target=state.target,
                source_bias=state.source_bias[:-1],
                target_bias=state.target_bias,
                epoch=state.epoch,
                loss_history=state.loss_history,
                config_fingerprint=state.config_fingerprint,
                rng_state=state.rng_state,
                entry_rng_state=state.entry_rng_state,
            ).validate()


class TestWorkerTopology:
    """Round trip + validation of the optional hogwild worker topology."""

    def _topology(self, workers=2):
        states = [
            np.random.default_rng(seed).bit_generator.state
            for seed in range(workers)
        ]
        later = [
            np.random.default_rng(100 + seed).bit_generator.state
            for seed in range(workers)
        ]
        return {
            "workers": workers,
            "entry_rng_states": states,
            "rng_states": later,
        }

    def test_roundtrip(self, fitted_model, tmp_path):
        topology = self._topology()
        state = TrainingState.capture(
            fitted_model, epoch=2, worker_topology=topology
        )
        loaded = TrainingState.load(state.save(tmp_path / "ckpt"))
        assert loaded.worker_topology is not None
        assert loaded.worker_topology["workers"] == 2
        for restored, original in zip(
            loaded.worker_topology["entry_rng_states"],
            topology["entry_rng_states"],
        ):
            a = np.random.default_rng(0)
            b = np.random.default_rng(0)
            a.bit_generator.state = restored
            b.bit_generator.state = original
            assert np.array_equal(
                a.integers(0, 1 << 30, size=8), b.integers(0, 1 << 30, size=8)
            )

    def test_absent_by_default(self, fitted_model, tmp_path):
        state = TrainingState.capture(fitted_model, epoch=2)
        assert state.worker_topology is None
        loaded = TrainingState.load(state.save(tmp_path / "ckpt"))
        assert loaded.worker_topology is None

    def test_capture_deep_copies_topology(self, fitted_model):
        topology = self._topology()
        state = TrainingState.capture(
            fitted_model, epoch=2, worker_topology=topology
        )
        topology["workers"] = 99
        assert state.worker_topology["workers"] == 2

    def test_inconsistent_topology_rejected(self, fitted_model, tmp_path):
        topology = self._topology()
        topology["rng_states"] = topology["rng_states"][:1]  # wrong length
        state = TrainingState.capture(
            fitted_model, epoch=2, worker_topology=topology
        )
        with pytest.raises(CheckpointError, match="topology"):
            state.save(tmp_path / "ckpt")
        assert list(tmp_path.iterdir()) == []
