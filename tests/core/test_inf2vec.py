"""Unit tests for the Inf2vec trainer, including a gradient check."""

import tracemalloc

import numpy as np
import pytest

from repro.core.context import ContextConfig, ContextCorpus
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.core.negative import NegativeSampler
from repro.errors import NotFittedError, TrainingError
from repro.utils.rng import ensure_rng


class _FixedSampler(NegativeSampler):
    """Sampler returning a pre-set matrix of negatives (for gradient tests)."""

    def __init__(self, matrix: np.ndarray):
        super().__init__(np.ones(int(matrix.max()) + 1))
        self._matrix = matrix

    def sample_matrix(self, rows, cols, rng, exclude=None):
        assert self._matrix.shape == (rows, cols)
        return self._matrix


def _eq4_loss(source, target, sb, tb, users, positives, negatives):
    """Negative Eq. 4 summed over a batch's observations, computed naively.

    Observation ``j`` pairs center user ``users[j]`` with positive
    ``positives[j]`` and the negatives ``negatives[j]``.
    """
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    loss = 0.0
    for u, v, row in zip(users, positives, negatives):
        z_v = source[u] @ target[v] + sb[u] + tb[v]
        loss -= np.log(sigmoid(z_v))
        for w in row:
            z_w = source[u] @ target[w] + sb[u] + tb[w]
            loss -= np.log(sigmoid(-z_w))
    return loss


class TestConfig:
    def test_defaults_match_paper(self):
        config = Inf2vecConfig()
        assert config.dim == 50
        assert config.learning_rate == 0.005
        assert config.context.length == 50
        assert config.context.alpha == 0.1

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Inf2vecConfig(dim=0)
        with pytest.raises(ValueError):
            Inf2vecConfig(learning_rate=-1)
        with pytest.raises(TrainingError):
            Inf2vecConfig(negative_distribution="gaussian")  # type: ignore[arg-type]
        with pytest.raises(TrainingError):
            Inf2vecConfig(max_norm=0.0)
        with pytest.raises(TrainingError):
            Inf2vecConfig(convergence_tol=-0.1)


class TestGradients:
    def test_update_matches_finite_differences(self):
        """The fused batch update is one gradient step on the summed loss.

        Three contexts, two of them centred on user 0, with negatives
        that repeat rows within and across observations: the
        scatter-accumulated update must equal the numeric gradient of
        the batch's summed Eq. 4 loss at its entry parameters.
        """
        rng = ensure_rng(0)
        num_users, dim = 6, 3
        config = Inf2vecConfig(
            dim=dim, learning_rate=1e-3, num_negatives=2, epochs=1, max_norm=None
        )
        model = Inf2vecModel(config, seed=0)
        model.fit_contexts(
            ContextCorpus.from_contexts([(0, (1,), ())]), num_users=num_users
        )
        emb = model.embedding
        # Give the parameters non-trivial values.
        emb.source[:] = rng.normal(scale=0.5, size=emb.source.shape)
        emb.target[:] = rng.normal(scale=0.5, size=emb.target.shape)
        emb.source_bias[:] = rng.normal(scale=0.1, size=num_users)
        emb.target_bias[:] = rng.normal(scale=0.1, size=num_users)

        # Contexts (0, [1, 2]), (3, [4]) and (0, [5]), flattened to one
        # observation per positive.
        users = np.array([0, 0, 3, 0])
        positives = np.array([1, 2, 4, 5])
        negatives = np.array([[3, 4], [5, 3], [1, 1], [3, 2]])
        sampler = _FixedSampler(negatives)

        before = (
            emb.source.copy(),
            emb.target.copy(),
            emb.source_bias.copy(),
            emb.target_bias.copy(),
        )
        loss = model._update_batch(
            users, positives, sampler, lr=config.learning_rate
        )
        assert loss == pytest.approx(
            _eq4_loss(*before, users, positives, negatives)
        )
        applied = {
            "source": (emb.source - before[0]) / config.learning_rate,
            "target": (emb.target - before[1]) / config.learning_rate,
            "source_bias": (emb.source_bias - before[2]) / config.learning_rate,
            "target_bias": (emb.target_bias - before[3]) / config.learning_rate,
        }

        # Numeric gradient of the NEGATIVE loss (we do gradient ascent
        # on the log-likelihood).
        eps = 1e-6

        def numeric(array, setter):
            grad = np.zeros_like(array)
            flat = array.ravel()
            for k in range(flat.size):
                original = flat[k]
                flat[k] = original + eps
                up = _eq4_loss(*setter(), users, positives, negatives)
                flat[k] = original - eps
                down = _eq4_loss(*setter(), users, positives, negatives)
                flat[k] = original
                grad.ravel()[k] = -(up - down) / (2 * eps)
            return grad

        s, t, sb, tb = (a.copy() for a in before)
        params = lambda: (s, t, sb, tb)  # noqa: E731
        np.testing.assert_allclose(applied["source"], numeric(s, params), atol=1e-4)
        np.testing.assert_allclose(applied["target"], numeric(t, params), atol=1e-4)
        np.testing.assert_allclose(
            applied["source_bias"], numeric(sb, params), atol=1e-4
        )
        np.testing.assert_allclose(
            applied["target_bias"], numeric(tb, params), atol=1e-4
        )

    @pytest.mark.parametrize("use_biases", [True, False])
    def test_update_matches_per_observation_loop(self, use_biases):
        """One batch equals Eq. 6 applied observation by observation.

        The oracle scores every (centre, target) pair at the entry
        parameters, accumulates the rank-1 updates with ``np.add.at``
        and then rescales the touched rows over ``max_norm``.  The batch
        repeats centre 0 over three contexts, draws negative 3 twice in
        one row and again in another, and pushes a row over the cap.
        ``batch_size=2`` is smaller than the batch's three distinct
        centres, so the workspace has to grow.
        """
        rng = ensure_rng(0)
        num_users, dim, lr, cap = 8, 3, 0.5, 1.0
        users = np.array([0, 0, 3, 0, 5])
        positives = np.array([1, 2, 4, 5, 1])
        negatives = np.array([[3, 3], [3, 6], [1, 7], [6, 2], [7, 0]])
        source = rng.normal(scale=0.4, size=(num_users, dim))
        target = rng.normal(scale=0.4, size=(num_users, dim))
        # Centre 0 starts just under the cap and its three positives
        # pull it along their targets; at this seed the update pushes
        # two rows over the cap, with biases and without.
        source[0] *= 0.99 * cap / np.linalg.norm(source[0])
        target[[1, 2, 5]] = 0.6 * source[0]
        if use_biases:
            source_bias = rng.normal(scale=0.1, size=num_users)
            target_bias = rng.normal(scale=0.1, size=num_users)
        else:
            source_bias = np.zeros(num_users)
            target_bias = np.zeros(num_users)

        def sigmoid(x):
            return 1.0 / (1.0 + np.exp(-x))

        s, t, sb, tb = (
            a.copy() for a in (source, target, source_bias, target_bias)
        )
        rows_s, rows_t, step_s, step_t, coef = [], [], [], [], []
        loss = 0.0
        for u, v, row in zip(users, positives, negatives):
            for w, label in [(v, 1.0)] + [(w, 0.0) for w in row]:
                z = source[u] @ target[w] + source_bias[u] + target_bias[w]
                loss -= np.log(sigmoid(z) if label else sigmoid(-z))
                g = lr * (label - sigmoid(z))
                rows_s.append(u)
                rows_t.append(w)
                step_s.append(g * target[w])
                step_t.append(g * source[u])
                coef.append(g)
        np.add.at(s, rows_s, np.array(step_s))
        np.add.at(t, rows_t, np.array(step_t))
        if use_biases:
            np.add.at(sb, rows_s, coef)
            np.add.at(tb, rows_t, coef)
        pushed = 0
        for array, entry, rows in ((s, source, rows_s), (t, target, rows_t)):
            for r in sorted(set(rows)):
                norm = np.linalg.norm(array[r])
                if norm > cap:
                    array[r] *= cap / norm
                    pushed += np.linalg.norm(entry[r]) <= cap
        assert pushed >= 1

        config = Inf2vecConfig(
            dim=dim, num_negatives=2, epochs=1, max_norm=cap,
            use_biases=use_biases, batch_size=2,
        )
        model = Inf2vecModel(config, seed=0)
        model.fit_contexts(
            ContextCorpus.from_contexts([(0, (1,), ())]), num_users=num_users
        )
        emb = model.embedding
        emb.source[:] = source
        emb.target[:] = target
        emb.source_bias[:] = source_bias
        emb.target_bias[:] = target_bias
        got = model._update_batch(users, positives, _FixedSampler(negatives), lr)
        assert got == pytest.approx(loss, rel=1e-12)
        for name, expected in (
            ("source", s), ("target", t), ("source_bias", sb), ("target_bias", tb)
        ):
            np.testing.assert_allclose(
                getattr(emb, name), expected, rtol=1e-12, err_msg=name
            )

    def test_biases_frozen_when_disabled(self):
        config = Inf2vecConfig(dim=2, use_biases=False, epochs=2)
        model = Inf2vecModel(config, seed=0)
        corpus = ContextCorpus.from_contexts([(0, (1, 2), (3,))])
        model.fit_contexts(corpus, num_users=4)
        assert np.all(model.embedding.source_bias == 0)
        assert np.all(model.embedding.target_bias == 0)


class TestTraining:
    @pytest.fixture
    def corpus(self):
        rng = ensure_rng(3)
        contexts = []
        for _ in range(100):
            user = int(rng.integers(10))
            friends = tuple(
                int((user + off) % 10) for off in (1, 2)
            )
            contexts.append((user, friends, ()))
        return ContextCorpus.from_contexts(contexts)

    def test_loss_decreases(self, corpus):
        config = Inf2vecConfig(dim=8, epochs=10, learning_rate=0.05)
        model = Inf2vecModel(config, seed=0).fit_contexts(corpus, num_users=10)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_learns_structure(self, corpus):
        """Context members must outscore non-members after training."""
        config = Inf2vecConfig(dim=8, epochs=30, learning_rate=0.05)
        model = Inf2vecModel(config, seed=0).fit_contexts(corpus, num_users=10)
        emb = model.embedding
        in_context = emb.score(0, 1)
        out_of_context = emb.score(0, 5)
        assert in_context > out_of_context

    def test_deterministic_under_seed(self, corpus):
        config = Inf2vecConfig(dim=4, epochs=2)
        a = Inf2vecModel(config, seed=7).fit_contexts(corpus, num_users=10)
        b = Inf2vecModel(config, seed=7).fit_contexts(corpus, num_users=10)
        assert np.array_equal(a.embedding.source, b.embedding.source)

    def test_empty_corpus_trains_to_init(self):
        config = Inf2vecConfig(dim=4, epochs=2)
        model = Inf2vecModel(config, seed=0).fit_contexts(
            ContextCorpus.from_contexts([]), num_users=5
        )
        assert model.is_fitted
        assert model.loss_history == [0.0, 0.0]

    def test_convergence_early_stop(self, corpus):
        config = Inf2vecConfig(dim=8, epochs=50, convergence_tol=0.5)
        model = Inf2vecModel(config, seed=0).fit_contexts(corpus, num_users=10)
        assert len(model.loss_history) < 50

    def test_lr_decay_schedule(self):
        config = Inf2vecConfig(learning_rate=0.1, epochs=11)
        model = Inf2vecModel(config, seed=0)
        assert model._epoch_learning_rate(0) == pytest.approx(0.1)
        assert model._epoch_learning_rate(10) == pytest.approx(0.001)
        middle = model._epoch_learning_rate(5)
        assert 0.001 < middle < 0.1

    def test_no_decay_when_disabled(self):
        config = Inf2vecConfig(learning_rate=0.1, epochs=10, lr_decay=False)
        model = Inf2vecModel(config, seed=0)
        assert model._epoch_learning_rate(9) == pytest.approx(0.1)

    def test_max_norm_enforced(self, corpus):
        config = Inf2vecConfig(
            dim=4, epochs=5, learning_rate=5.0, lr_decay=False, max_norm=1.0
        )
        model = Inf2vecModel(config, seed=0).fit_contexts(corpus, num_users=10)
        norms = np.linalg.norm(model.embedding.source, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)


class TestEngines:
    @pytest.fixture
    def corpus(self):
        rng = ensure_rng(13)
        contexts = []
        for _ in range(60):
            user = int(rng.integers(12))
            members = tuple(
                int((user + off) % 12) for off in (1, 2, 5)
            )
            contexts.append((user, members[:1], members[1:]))
        return ContextCorpus.from_contexts(contexts)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            Inf2vecConfig(batch_size=0)

    def test_batched_loss_decreases(self, corpus):
        config = Inf2vecConfig(dim=8, epochs=10, learning_rate=0.05)
        model = Inf2vecModel(config, seed=0).fit_contexts(corpus, num_users=12)
        assert model.loss_history[-1] < model.loss_history[0]


class TestWorkspace:
    def test_second_epoch_allocates_no_batch_sized_temporaries(self):
        """Steady-state epochs run in the reused workspace.

        Under ``tracemalloc`` a second epoch may raise the traced peak
        by less than one ``(p, n, K)`` float64 block of its largest
        batch: the size of the per-batch negative gather the kernel
        must never materialise, and far more than its allocations that
        do not scale with the batch (the permutation, the batch's
        member gather, the negative draws).
        """
        from repro.data.synthetic import SyntheticSocialDataset

        dataset = SyntheticSocialDataset.digg_like(2000, 60, seed=0)
        config = Inf2vecConfig(dim=32, epochs=1)
        model = Inf2vecModel(config, seed=0)
        corpus = model._generate_contexts(dataset.graph, dataset.log)
        model.fit_contexts(corpus, num_users=dataset.graph.num_nodes)
        sampler = model._build_sampler(corpus, dataset.graph.num_nodes)
        model.train_epoch(corpus, sampler)  # builds the workspace

        replay = np.random.default_rng(0)
        replay.bit_generator.state = model.rng.bit_generator.state
        sizes = corpus.sizes[replay.permutation(len(corpus))]
        batch = min(config.batch_size, dataset.graph.num_nodes // 8)
        largest = int(np.add.reduceat(sizes, np.arange(0, sizes.shape[0], batch)).max())
        bound = largest * config.num_negatives * config.dim * 8

        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            model.train_epoch(corpus, sampler)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < bound, (peak - start, bound)


class TestLifecycle:
    def test_unfitted_access_raises(self):
        model = Inf2vecModel(Inf2vecConfig(dim=4))
        with pytest.raises(NotFittedError):
            _ = model.embedding
        with pytest.raises(NotFittedError):
            model.train_epoch(ContextCorpus.from_contexts([]))

    def test_fit_end_to_end(self, small_dataset, small_splits):
        train, _tune, _test = small_splits
        config = Inf2vecConfig(
            dim=4, epochs=2, context=ContextConfig(length=6, alpha=0.5)
        )
        model = Inf2vecModel(config, seed=0).fit(small_dataset.graph, train)
        assert model.is_fitted
        assert model.embedding.num_users == small_dataset.graph.num_nodes

    def test_repr(self):
        model = Inf2vecModel(Inf2vecConfig(dim=4))
        assert "unfitted" in repr(model)


class TestConvergenceCriterion:
    """Regression tests for the convergence predicate.

    The original ``_converged`` compared ``abs(previous - loss)`` so a
    loss that *increased* by less than the tolerance — or blew up past
    it between checks of a diverging run — could still read as
    converged.  Convergence now requires a relative *decrease* in
    ``[0, tol)``.
    """

    def test_diverging_loss_sequence_never_converges(self):
        from repro.core.inf2vec import loss_converged

        diverging = [1.0, 1.002, 1.05, 1.4, 2.9, 11.0, float("inf")]
        for previous, current in zip(diverging, diverging[1:]):
            assert not loss_converged(previous, current, tol=0.01), (
                previous, current,
            )

    def test_small_relative_decrease_converges(self):
        from repro.core.inf2vec import loss_converged

        assert loss_converged(1.0, 0.9999, tol=0.01)
        assert loss_converged(1.0, 1.0, tol=0.01)

    def test_large_decrease_keeps_training(self):
        from repro.core.inf2vec import loss_converged

        assert not loss_converged(1.0, 0.5, tol=0.01)

    def test_tol_zero_disables(self):
        from repro.core.inf2vec import loss_converged

        assert not loss_converged(1.0, 1.0, tol=0.0)

    def test_first_epoch_never_converges(self):
        from repro.core.inf2vec import loss_converged

        assert not loss_converged(float("inf"), 1.0, tol=0.5)

    def test_model_converged_rejects_increase(self):
        model = Inf2vecModel(Inf2vecConfig(dim=4, convergence_tol=0.01))
        assert not model._converged(1.0, 1.001)
        assert model._converged(1.0, 0.9995)

    def test_diverging_training_runs_the_full_budget(self):
        """A run whose loss climbs must not stop early as 'converged'."""
        rng = ensure_rng(5)
        contexts = ContextCorpus.from_contexts(
            (int(rng.integers(10)), (int(rng.integers(10)),), ())
            for _ in range(40)
        )
        config = Inf2vecConfig(
            dim=4,
            epochs=6,
            learning_rate=80.0,  # absurd step size: loss oscillates up
            lr_decay=False,
            max_norm=None,
            convergence_tol=0.05,
        )
        model = Inf2vecModel(config, seed=0).fit_contexts(contexts, num_users=10)
        history = model.loss_history
        if len(history) < config.epochs:
            # Early stop is only legal on a genuine small relative
            # *decrease* — never on an increase, however small.
            decrease = (history[-2] - history[-1]) / abs(history[-2])
            assert 0.0 <= decrease < config.convergence_tol, history[-2:]


class TestAnnealedScheduleBudget:
    """The anneal denominator is the epoch budget."""

    def test_floor_depends_on_budget_not_config(self):
        from repro.core.inf2vec import annealed_learning_rate

        # Last epoch of any budget lands on the 1% floor.
        assert annealed_learning_rate(0.1, 4, 5) == pytest.approx(0.001)
        assert annealed_learning_rate(0.1, 9, 10) == pytest.approx(0.001)
        assert annealed_learning_rate(0.1, 0, 5) == pytest.approx(0.1)

    def test_single_epoch_budget_keeps_base_rate(self):
        from repro.core.inf2vec import annealed_learning_rate

        assert annealed_learning_rate(0.1, 0, 1) == pytest.approx(0.1)

    def test_decay_disabled(self):
        from repro.core.inf2vec import annealed_learning_rate

        assert annealed_learning_rate(0.1, 7, 8, decay=False) == pytest.approx(0.1)
