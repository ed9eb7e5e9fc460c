"""Resume-equivalence property tests.

The central checkpoint guarantee: a run interrupted mid-training and
resumed from its latest checkpoint finishes with *bitwise-identical*
embeddings and loss history to the same run left uninterrupted.  The
tests simulate the crash with a manager subclass that raises after a
target epoch's checkpoint lands, keeping the config (and therefore its
fingerprint) identical between the crashed and resumed runs.
"""

import dataclasses

import numpy as np
import pytest

from repro.ckpt import CheckpointManager
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.data.synthetic import SyntheticSocialDataset
from repro.errors import CheckpointError, TrainingError


class Crash(RuntimeError):
    """Simulated process death, injected after a checkpoint write."""


class CrashingManager(CheckpointManager):
    """Checkpoints normally, then dies after the target epoch's save."""

    def __init__(self, directory, crash_after_epoch, **kwargs):
        super().__init__(directory, **kwargs)
        self.crash_after_epoch = crash_after_epoch

    def maybe_save(self, model, epoch, **kwargs):
        path = super().maybe_save(model, epoch, **kwargs)
        if epoch == self.crash_after_epoch:
            raise Crash(f"simulated crash after epoch {epoch}")
        return path


@pytest.fixture(scope="module")
def dataset():
    return SyntheticSocialDataset.digg_like(num_users=60, num_items=12, seed=5)


def _train(config, dataset, checkpoint=None, resume=False, seed=13):
    model = Inf2vecModel(config, seed=seed)
    return model.fit(dataset.graph, dataset.log, checkpoint=checkpoint, resume=resume)


def _assert_identical(resumed, reference):
    assert resumed.loss_history == reference.loss_history
    np.testing.assert_array_equal(
        resumed.embedding.source, reference.embedding.source
    )
    np.testing.assert_array_equal(
        resumed.embedding.target, reference.embedding.target
    )
    np.testing.assert_array_equal(
        resumed.embedding.source_bias, reference.embedding.source_bias
    )
    np.testing.assert_array_equal(
        resumed.embedding.target_bias, reference.embedding.target_bias
    )


BASE = Inf2vecConfig(dim=8, epochs=6)

VARIANTS = [
    pytest.param(BASE, id="batched"),
    pytest.param(
        dataclasses.replace(BASE, negative_distribution="unigram"),
        id="unigram-negatives",
    ),
]


class TestResumeEquivalence:
    @pytest.mark.parametrize("config", VARIANTS)
    def test_crash_and_resume_is_bitwise_identical(
        self, config, dataset, tmp_path
    ):
        reference = _train(config, dataset)

        crasher = CrashingManager(tmp_path, crash_after_epoch=2)
        with pytest.raises(Crash):
            _train(config, dataset, checkpoint=crasher)

        manager = CheckpointManager(tmp_path)
        resumed = _train(config, dataset, checkpoint=manager, resume=True)
        _assert_identical(resumed, reference)

    def test_resume_after_sparse_cadence_crash(self, dataset, tmp_path):
        """Crash between checkpoints: resume replays from the last one."""
        config = BASE
        reference = _train(config, dataset)

        crasher = CrashingManager(tmp_path, crash_after_epoch=3, every=2)
        with pytest.raises(Crash):
            _train(config, dataset, checkpoint=crasher)

        manager = CheckpointManager(tmp_path, every=2)
        resumed = _train(config, dataset, checkpoint=manager, resume=True)
        _assert_identical(resumed, reference)

    def test_resume_after_completed_run_restores_terminal_state(
        self, dataset, tmp_path
    ):
        """Resuming a finished run is a no-op restore, not retraining."""
        manager = CheckpointManager(tmp_path)
        reference = _train(BASE, dataset, checkpoint=manager)
        resumed = _train(BASE, dataset, checkpoint=manager, resume=True)
        _assert_identical(resumed, reference)


class TestResumeGuards:
    def test_resume_without_manager_raises(self, dataset):
        model = Inf2vecModel(BASE, seed=13)
        with pytest.raises(TrainingError, match="checkpoint manager"):
            model.fit(dataset.graph, dataset.log, resume=True)

    def test_resume_with_empty_dir_starts_fresh(self, dataset, tmp_path):
        reference = _train(BASE, dataset)
        manager = CheckpointManager(tmp_path / "empty")
        resumed = _train(BASE, dataset, checkpoint=manager, resume=True)
        _assert_identical(resumed, reference)

    def test_resume_rejects_mismatched_config(self, dataset, tmp_path):
        manager = CheckpointManager(tmp_path)
        _train(BASE, dataset, checkpoint=manager)
        other = dataclasses.replace(BASE, epochs=9)
        with pytest.raises(CheckpointError, match="fingerprint"):
            _train(other, dataset, checkpoint=manager, resume=True)
