"""Unit tests for the negative sampler."""

import numpy as np
import pytest

from repro.core.negative import UNIGRAM_DISTORTION, NegativeSampler
from repro.errors import TrainingError
from repro.utils.rng import ensure_rng


class TestConstruction:
    def test_uniform_probabilities(self):
        sampler = NegativeSampler.uniform(4)
        assert sampler.probabilities().tolist() == pytest.approx([0.25] * 4)

    def test_from_frequencies_distortion(self):
        sampler = NegativeSampler.from_frequencies(
            np.array([0.0, 15.0]), distortion=UNIGRAM_DISTORTION, smoothing=1.0
        )
        probs = sampler.probabilities()
        expected = np.array([1.0, 16.0]) ** 0.75
        expected /= expected.sum()
        assert probs.tolist() == pytest.approx(expected.tolist())

    def test_negative_weight_rejected(self):
        with pytest.raises(TrainingError):
            NegativeSampler(np.array([1.0, -1.0]))

    def test_all_zero_rejected(self):
        with pytest.raises(TrainingError, match="positive"):
            NegativeSampler(np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            NegativeSampler(np.empty(0))

    def test_non_finite_rejected(self):
        with pytest.raises(TrainingError):
            NegativeSampler(np.array([1.0, np.inf]))

    def test_negative_frequencies_rejected(self):
        with pytest.raises(TrainingError):
            NegativeSampler.from_frequencies(np.array([-1.0, 2.0]))


class TestSampling:
    def test_sample_shape_and_range(self):
        sampler = NegativeSampler.uniform(10)
        rng = ensure_rng(0)
        draws = sampler.sample(1000, rng)
        assert draws.shape == (1000,)
        assert draws.min() >= 0
        assert draws.max() < 10

    def test_sample_matrix(self):
        sampler = NegativeSampler.uniform(5)
        rng = ensure_rng(0)
        matrix = sampler.sample_matrix(7, 3, rng)
        assert matrix.shape == (7, 3)

    def test_zero_count(self):
        sampler = NegativeSampler.uniform(5)
        rng = ensure_rng(0)
        assert sampler.sample(0, rng).shape == (0,)

    def test_negative_count_rejected(self):
        sampler = NegativeSampler.uniform(5)
        with pytest.raises(TrainingError):
            sampler.sample(-1, ensure_rng(0))

    def test_zero_weight_user_never_drawn(self):
        sampler = NegativeSampler(np.array([0.0, 1.0, 1.0]))
        rng = ensure_rng(0)
        draws = sampler.sample(2000, rng)
        assert 0 not in draws

    def test_empirical_distribution_matches(self):
        weights = np.array([1.0, 3.0])
        sampler = NegativeSampler(weights)
        rng = ensure_rng(42)
        draws = sampler.sample(20000, rng)
        fraction_of_ones = float(np.mean(draws == 1))
        assert fraction_of_ones == pytest.approx(0.75, abs=0.02)

    def test_deterministic_under_seed(self):
        sampler = NegativeSampler.uniform(100)
        a = sampler.sample(50, ensure_rng(5))
        b = sampler.sample(50, ensure_rng(5))
        assert np.array_equal(a, b)


class TestExclude:
    def test_global_exclude_never_drawn(self):
        sampler = NegativeSampler.uniform(6)
        matrix = sampler.sample_matrix(
            200, 4, ensure_rng(0), exclude=np.array([2, 5])
        )
        assert matrix.shape == (200, 4)
        assert not np.isin(matrix, [2, 5]).any()

    def test_per_row_exclude(self):
        sampler = NegativeSampler.uniform(4)
        exclude = np.array([[0, 1], [2, 3], [1, 2]])
        matrix = sampler.sample_matrix(3, 50, ensure_rng(1), exclude=exclude)
        for row, banned in zip(matrix, exclude):
            assert not np.isin(row, banned).any()

    def test_unigram_weights_respected_under_exclusion(self):
        sampler = NegativeSampler(np.array([5.0, 1.0, 1.0]))
        matrix = sampler.sample_matrix(
            400, 2, ensure_rng(2), exclude=np.array([0])
        )
        # Rejection resampling renormalises over the allowed support.
        assert set(np.unique(matrix).tolist()) == {1, 2}

    def test_impossible_exclusion_raises(self):
        sampler = NegativeSampler.uniform(2)
        with pytest.raises(TrainingError, match="collision-free"):
            sampler.sample_matrix(
                2, 2, ensure_rng(0), exclude=np.array([0, 1])
            )

    def test_bad_shape_rejected(self):
        sampler = NegativeSampler.uniform(4)
        with pytest.raises(TrainingError, match="exclude"):
            sampler.sample_matrix(
                3, 2, ensure_rng(0), exclude=np.zeros((2, 1), dtype=np.int64)
            )

    def test_empty_exclude_columns_is_noop(self):
        sampler = NegativeSampler.uniform(4)
        matrix = sampler.sample_matrix(
            3, 2, ensure_rng(0), exclude=np.empty((3, 0), dtype=np.int64)
        )
        assert matrix.shape == (3, 2)

    @pytest.mark.parametrize(
        "weights", [np.ones(6), np.array([4.0, 1.0, 3.0, 1.0, 0.5, 2.0])]
    )
    @pytest.mark.parametrize("kind", ["1-D", "2-D", "zero-column"])
    def test_matrix_matches_round_by_round_reference(self, weights, kind):
        """Each round redraws every still-colliding cell, in row-major order.

        The reference replays the same draws cell by cell in Python: the
        matrix and the RNG stream afterwards must both match.
        """
        rows, cols = 40, 5
        sampler = NegativeSampler(weights)
        exclude = {
            "1-D": np.array([0, 2, 5]),
            "2-D": ensure_rng(7).integers(6, size=(rows, 2)),
            "zero-column": np.empty((rows, 0), dtype=np.int64),
        }[kind]
        rng = ensure_rng(3)
        got = sampler.sample_matrix(rows, cols, rng, exclude=exclude)

        ref_rng = ensure_rng(3)

        def banned(i):
            return set((exclude if exclude.ndim == 1 else exclude[i]).tolist())

        matrix = sampler.sample(rows * cols, ref_rng).reshape(rows, cols).tolist()
        pending = [
            (i, j)
            for i in range(rows)
            for j in range(cols)
            if matrix[i][j] in banned(i)
        ]
        redraws = 0
        while pending:
            for (i, j), user in zip(pending, sampler.sample(len(pending), ref_rng)):
                matrix[i][j] = int(user)
            redraws += len(pending)
            pending = [(i, j) for i, j in pending if matrix[i][j] in banned(i)]
        assert got.tolist() == matrix
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if kind != "zero-column":
            assert redraws > 0  # the case exercises the resample loop
