"""Hogwild trainer tests: sharding, determinism, resume, streaming.

The determinism contract under test (DESIGN.md §14):

* ``workers=1`` is the in-process fit — bitwise-equal to
  ``Inf2vecModel.fit``; rerunning it, and crashing + resuming it under
  either entry point, all land on identical parameters;
* ``workers>1`` runs train the same objective on the same sharded data
  but race on the shared pages, so only statistical agreement is
  promised — pinned here as a loss tolerance against the 1-worker run,
  and as a bound on how far the returned parameters move;
* resume refuses checkpoints from a different worker count.
"""

import dataclasses

import numpy as np
import pytest

from repro.ckpt import CheckpointManager
from repro.core.context import ContextGenerator
from repro.core.embeddings import InfluenceEmbedding
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.data.synthetic import SyntheticSocialDataset
from repro.errors import CheckpointError, TrainingError
from repro.parallel import PARAMETER_FIELDS, HogwildTrainer, shard_episodes

#: Documented tolerance for cross-worker-count loss agreement: the
#: racing runs see identical data and hyper-parameters, so their final
#: mean losses may differ only by SGD-ordering noise.
CROSS_WORKER_LOSS_RTOL = 0.15

#: Bound on how far each returned ``workers=2`` parameter array may
#: move from its seeded start, as a factor of the ``workers=1`` run's
#: move (``1/R <= ratio <= R``).  Measured over seeds 1, 2, 3, 5, 7, 8,
#: 11 and 13: every ratio lies in 0.82–1.41.  A worker that trains a
#: detached private copy of a buffer leaves the shared array where it
#: started, a ratio near 0.
CROSS_WORKER_DISPLACEMENT_RATIO = 2.0

BASE = Inf2vecConfig(dim=8, epochs=4)


@pytest.fixture(scope="module")
def dataset():
    return SyntheticSocialDataset.digg_like(num_users=80, num_items=14, seed=5)


@pytest.fixture(scope="module")
def cross_worker_fits(dataset):
    """``{workers: model}`` for the same seeded fit at 1 and 2 workers."""
    return {
        workers: HogwildTrainer(BASE, workers=workers, seed=11).fit(
            dataset.graph, dataset.log
        )
        for workers in (1, 2)
    }


def _initial_embedding(dataset, workers, seed):
    """The seeded parameters a fit at ``workers`` starts from.

    In process, context generation draws from the model's stream
    before the parameters are initialised; at ``workers>1`` the
    trainer initialises them first, then spawns the worker streams.
    """
    rng = np.random.default_rng(seed)
    if workers == 1:
        ContextGenerator(dataset.graph, BASE.context, rng).generate(dataset.log)
    return InfluenceEmbedding.initialize(dataset.graph.num_nodes, BASE.dim, rng)


def _assert_identical(got, expected):
    assert got.loss_history == expected.loss_history
    np.testing.assert_array_equal(got.embedding.source, expected.embedding.source)
    np.testing.assert_array_equal(got.embedding.target, expected.embedding.target)
    np.testing.assert_array_equal(
        got.embedding.source_bias, expected.embedding.source_bias
    )
    np.testing.assert_array_equal(
        got.embedding.target_bias, expected.embedding.target_bias
    )


class TestShardEpisodes:
    def test_every_episode_lands_in_exactly_one_shard(self, dataset):
        shards = shard_episodes(dataset.log, 3)
        items = sorted(
            episode.item for shard in shards for episode in shard.episodes
        )
        assert items == sorted(e.item for e in dataset.log.episodes)

    def test_deterministic(self, dataset):
        first = shard_episodes(dataset.log, 4)
        second = shard_episodes(dataset.log, 4)
        for a, b in zip(first, second):
            assert [e.item for e in a.episodes] == [e.item for e in b.episodes]

    def test_balances_adoption_counts(self, dataset):
        shards = shard_episodes(dataset.log, 2)
        loads = [sum(len(e) for e in s.episodes) for s in shards]
        heaviest_episode = max(len(e) for e in dataset.log.episodes)
        assert abs(loads[0] - loads[1]) <= heaviest_episode

    def test_more_workers_than_episodes_leaves_empty_shards(self, dataset):
        many = len(dataset.log.episodes) + 3
        shards = shard_episodes(dataset.log, many)
        assert len(shards) == many
        assert sum(len(s.episodes) for s in shards) == len(dataset.log.episodes)

    def test_single_shard_preserves_order(self, dataset):
        (shard,) = shard_episodes(dataset.log, 1)
        assert [e.item for e in shard.episodes] == [
            e.item for e in dataset.log.episodes
        ]


class TestHogwildTraining:
    def test_single_worker_is_bitwise_deterministic(self, dataset):
        first = HogwildTrainer(BASE, workers=1, seed=11).fit(
            dataset.graph, dataset.log
        )
        second = HogwildTrainer(BASE, workers=1, seed=11).fit(
            dataset.graph, dataset.log
        )
        _assert_identical(second, first)

    def test_single_worker_matches_in_process_fit(self, dataset):
        trainer = HogwildTrainer(BASE, workers=1, seed=11).fit(
            dataset.graph, dataset.log
        )
        model = Inf2vecModel(BASE, seed=11).fit(dataset.graph, dataset.log)
        _assert_identical(trainer, model)

    def test_two_workers_train_and_agree_within_tolerance(
        self, cross_worker_fits
    ):
        one, two = cross_worker_fits[1], cross_worker_fits[2]
        assert len(two.loss_history) == len(one.loss_history)
        assert all(np.isfinite(two.loss_history))
        assert two.loss_history[-1] < two.loss_history[0]
        assert two.loss_history[-1] == pytest.approx(
            one.loss_history[-1], rel=CROSS_WORKER_LOSS_RTOL
        )

    def test_two_workers_move_the_returned_embedding(
        self, dataset, cross_worker_fits
    ):
        # The loss history is worker-reported: a worker that rebinds a
        # shared buffer still sees its loss fall.  Only the returned
        # parameters show whether the updates reached shared memory.
        bound = CROSS_WORKER_DISPLACEMENT_RATIO
        for field in PARAMETER_FIELDS:
            moved = {
                workers: np.linalg.norm(
                    getattr(model.embedding, field)
                    - getattr(_initial_embedding(dataset, workers, 11), field)
                )
                for workers, model in cross_worker_fits.items()
            }
            ratio = moved[2] / moved[1]
            assert 1 / bound <= ratio <= bound, (
                f"{field}: workers=2 moved {moved[2]:.4f} from its start, "
                f"workers=1 moved {moved[1]:.4f}"
            )

    def test_returned_embedding_is_private(self, dataset):
        trainer = HogwildTrainer(BASE, workers=2, seed=3)
        model = trainer.fit(dataset.graph, dataset.log)
        # The shared blocks are freed inside fit(); the surviving copy
        # must be an ordinary process-private array.
        model.embedding.source[0, 0] = 42.0
        assert model.embedding.source[0, 0] == 42.0

    def test_trainer_model_property(self, dataset):
        trainer = HogwildTrainer(BASE, workers=1, seed=1)
        with pytest.raises(TrainingError):
            trainer.model
        fitted = trainer.fit(dataset.graph, dataset.log)
        assert trainer.model is fitted

    def test_epoch_seconds_recorded(self, dataset):
        trainer = HogwildTrainer(BASE, workers=1, seed=1)
        trainer.fit(dataset.graph, dataset.log)
        assert len(trainer.epoch_seconds) == len(trainer.model.loss_history)
        assert all(s > 0 for s in trainer.epoch_seconds)


class TestStreaming:
    def test_chunked_generation_equals_materialised(self, dataset):
        config = Inf2vecConfig(dim=8, epochs=1)
        full = ContextGenerator(
            dataset.graph, config.context, seed=9
        ).generate(dataset.log)
        chunked = [
            context
            for chunk in ContextGenerator(
                dataset.graph, config.context, seed=9
            ).iter_context_chunks(dataset.log, 3)
            for context in chunk
        ]
        assert len(chunked) == len(full)
        for a, b in zip(chunked, full):
            assert a.user == b.user
            np.testing.assert_array_equal(a.users, b.users)

    def test_streaming_training_runs(self, dataset):
        trainer = HogwildTrainer(BASE, workers=2, seed=7, stream_chunk=4)
        model = trainer.fit(dataset.graph, dataset.log)
        assert len(model.loss_history) == BASE.epochs
        assert all(np.isfinite(model.loss_history))

    def test_in_process_streaming_resumes_bitwise(self, dataset, tmp_path):
        def trainer():
            return HogwildTrainer(BASE, workers=1, seed=7, stream_chunk=4)

        reference = trainer().fit(dataset.graph, dataset.log)
        assert all(np.isfinite(reference.loss_history))
        manager = CheckpointManager(tmp_path, every=1, keep=100)
        trainer().fit(dataset.graph, dataset.log, checkpoint=manager)
        TestResume._keep_only(manager, 1)
        resumed = trainer().fit(
            dataset.graph, dataset.log, checkpoint=manager, resume=True
        )
        _assert_identical(resumed, reference)

    def test_streaming_requires_uniform_negatives(self):
        config = dataclasses.replace(BASE, negative_distribution="unigram")
        with pytest.raises(TrainingError):
            HogwildTrainer(config, workers=2, seed=7, stream_chunk=4)


class TestResume:
    def _interrupt_after_epoch(self, dataset, workers, epoch, tmp_path, seed=13):
        """Train fully, then delete checkpoints newer than ``epoch``."""
        manager = CheckpointManager(tmp_path, every=1, keep=100)
        HogwildTrainer(BASE, workers=workers, seed=seed).fit(
            dataset.graph, dataset.log, checkpoint=manager
        )
        return self._keep_only(manager, epoch)

    @staticmethod
    def _keep_only(manager, epoch):
        survivor = manager.path_for_epoch(epoch).name
        for path in manager.checkpoint_paths():
            if path.name != survivor:
                path.unlink()
        return manager

    def test_single_worker_resume_is_bitwise_identical(self, dataset, tmp_path):
        reference = HogwildTrainer(BASE, workers=1, seed=13).fit(
            dataset.graph, dataset.log
        )
        manager = self._interrupt_after_epoch(dataset, 1, 1, tmp_path)
        resumed = HogwildTrainer(BASE, workers=1, seed=13).fit(
            dataset.graph, dataset.log, checkpoint=manager, resume=True
        )
        _assert_identical(resumed, reference)

    def test_two_worker_resume_completes_within_tolerance(self, dataset, tmp_path):
        reference = HogwildTrainer(BASE, workers=2, seed=13).fit(
            dataset.graph, dataset.log
        )
        manager = self._interrupt_after_epoch(dataset, 2, 1, tmp_path)
        resumed = HogwildTrainer(BASE, workers=2, seed=13).fit(
            dataset.graph, dataset.log, checkpoint=manager, resume=True
        )
        assert len(resumed.loss_history) == len(reference.loss_history)
        assert resumed.loss_history[-1] == pytest.approx(
            reference.loss_history[-1], rel=CROSS_WORKER_LOSS_RTOL
        )

    def test_resume_refuses_other_worker_count(self, dataset, tmp_path):
        manager = self._interrupt_after_epoch(dataset, 2, 1, tmp_path)
        with pytest.raises(CheckpointError, match="worker"):
            HogwildTrainer(BASE, workers=3, seed=13).fit(
                dataset.graph, dataset.log, checkpoint=manager, resume=True
            )
        with pytest.raises(CheckpointError, match="worker"):
            Inf2vecModel(BASE, seed=13).fit(
                dataset.graph, dataset.log, checkpoint=manager, resume=True
            )

    def test_hogwild_checkpoint_resumes_under_in_process_fit(
        self, dataset, tmp_path
    ):
        reference = Inf2vecModel(BASE, seed=13).fit(dataset.graph, dataset.log)
        manager = self._interrupt_after_epoch(dataset, 1, 1, tmp_path)
        resumed = Inf2vecModel(BASE, seed=13).fit(
            dataset.graph, dataset.log, checkpoint=manager, resume=True
        )
        _assert_identical(resumed, reference)

    def test_in_process_checkpoint_resumes_under_hogwild_trainer(
        self, dataset, tmp_path
    ):
        reference = HogwildTrainer(BASE, workers=1, seed=13).fit(
            dataset.graph, dataset.log
        )
        manager = CheckpointManager(tmp_path, every=1, keep=100)
        Inf2vecModel(BASE, seed=13).fit(
            dataset.graph, dataset.log, checkpoint=manager
        )
        self._keep_only(manager, 1)
        resumed = HogwildTrainer(BASE, workers=1, seed=13).fit(
            dataset.graph, dataset.log, checkpoint=manager, resume=True
        )
        _assert_identical(resumed, reference)

    def test_resume_after_completed_run_restores_terminal_state(
        self, dataset, tmp_path
    ):
        manager = CheckpointManager(tmp_path, every=1, keep=100)
        reference = HogwildTrainer(BASE, workers=1, seed=13).fit(
            dataset.graph, dataset.log, checkpoint=manager
        )
        resumed = HogwildTrainer(BASE, workers=1, seed=13).fit(
            dataset.graph, dataset.log, checkpoint=manager, resume=True
        )
        _assert_identical(resumed, reference)

    def test_resume_without_manager_raises(self, dataset):
        with pytest.raises(TrainingError):
            HogwildTrainer(BASE, workers=1, seed=13).fit(
                dataset.graph, dataset.log, resume=True
            )
