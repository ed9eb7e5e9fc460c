"""Streaming quantile estimation: reservoir exactness and sampling."""

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.obs import ReservoirSampler
from repro.obs.quantiles import check_quantile


class TestCheckQuantile:
    def test_accepts_bounds(self):
        assert check_quantile(0) == 0.0
        assert check_quantile(1) == 1.0
        assert check_quantile(0.5) == 0.5

    @pytest.mark.parametrize("q", [-0.01, 1.01, 2, -5])
    def test_rejects_outside_unit_interval(self, q):
        with pytest.raises(TelemetryError, match="quantile"):
            check_quantile(q)


class TestReservoirSampler:
    def test_exact_while_under_capacity(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=100)
        sampler = ReservoirSampler(capacity=128, seed=0)
        sampler.observe_many(data)
        assert sampler.exact
        assert sampler.count == 100
        assert sampler.total == pytest.approx(float(data.sum()))
        assert sampler.minimum == pytest.approx(float(data.min()))
        assert sampler.maximum == pytest.approx(float(data.max()))
        for q in (0.0, 0.5, 0.99, 1.0):
            assert sampler.quantile(q) == pytest.approx(
                float(np.quantile(data, q))
            )

    def test_saturated_estimate_stays_close(self):
        rng = np.random.default_rng(11)
        data = rng.lognormal(mean=-7.0, sigma=0.8, size=20000)
        sampler = ReservoirSampler(capacity=2048, seed=5)
        sampler.observe_many(data)
        assert not sampler.exact
        assert len(sampler.samples()) == 2048
        # Moments stay exact regardless of sampling.
        assert sampler.count == len(data)
        assert sampler.total == pytest.approx(float(data.sum()))
        assert sampler.maximum == pytest.approx(float(data.max()))
        # Quantiles are estimates over a uniform sample of the stream.
        for q in (0.5, 0.99):
            assert sampler.quantile(q) == pytest.approx(
                float(np.quantile(data, q)), rel=0.10
            )

    def test_same_seed_same_reservoir(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=5000)
        a = ReservoirSampler(capacity=64, seed=9)
        b = ReservoirSampler(capacity=64, seed=9)
        a.observe_many(data)
        b.observe_many(data)
        np.testing.assert_array_equal(a.samples(), b.samples())

    def test_empty_reads_none(self):
        sampler = ReservoirSampler(capacity=8)
        assert sampler.quantile(0.5) is None
        assert sampler.minimum is None
        assert sampler.maximum is None
        assert sampler.quantiles([0.5, 0.9]) == [None, None]

    def test_capacity_must_be_positive(self):
        with pytest.raises(TelemetryError, match="capacity"):
            ReservoirSampler(capacity=0)
