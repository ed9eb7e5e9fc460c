"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import threading

import numpy as np
import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    TelemetryError,
)


class TestCounter:
    def test_increments_accumulate(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "test counter")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_series_are_independent(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(epoch=0)
        counter.inc(3, epoch=1)
        assert counter.value(epoch=0) == 1.0
        assert counter.value(epoch=1) == 3.0
        assert counter.value(epoch=2) == 0.0
        assert counter.total() == 4.0

    def test_label_order_is_canonical(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(a=1, b=2)
        counter.inc(b=2, a=1)
        assert counter.value(a=1, b=2) == 2.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(TelemetryError):
            counter.inc(-1.0)

    def test_thread_safety_smoke(self):
        counter = MetricsRegistry().counter("c")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8000.0


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1.0, epoch=0)
        gauge.set(0.5, epoch=0)
        assert gauge.value(epoch=0) == 0.5

    def test_unset_label_reads_none(self):
        assert MetricsRegistry().gauge("g").value(epoch=9) is None


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        # (..,1], (1,2], (2,5], (5,..) — upper edges inclusive.
        hist.observe(1.0)
        hist.observe(1.5)
        hist.observe(2.0)
        hist.observe(5.1)
        samples = hist.to_dict()["samples"][""]
        assert samples["buckets"] == [1.0, 2.0, 5.0]
        assert samples["counts"] == [1, 2, 0, 1]
        assert samples["count"] == 4
        assert samples["sum"] == pytest.approx(9.6)
        assert samples["mean"] == pytest.approx(9.6 / 4)

    def test_observe_many_matches_scalar_observes(self):
        registry = MetricsRegistry()
        batch = registry.histogram("batch", buckets=(0.0, 10.0, 20.0))
        scalar = registry.histogram("scalar", buckets=(0.0, 10.0, 20.0))
        values = np.array([0.0, 3.0, 10.0, 11.0, 25.0])
        batch.observe_many(values)
        for v in values:
            scalar.observe(float(v))
        assert (
            batch.to_dict()["samples"][""]["counts"]
            == scalar.to_dict()["samples"][""]["counts"]
        )

    def test_scalar_and_batch_pick_the_same_bucket(self):
        """On, between, below and above the edges, ±inf and NaN."""
        edges = (-1.0, 0.0, 2.5, 10.0)
        values = [
            -1.0, 0.0, -0.0, 2.5, 10.0,  # on an edge
            -0.5, 1.0, 7.0,  # between edges
            -3.0, -np.inf,  # below the first
            11.0, np.inf,  # above the last
            np.nan,
        ]
        for value in values:
            registry = MetricsRegistry()
            scalar = registry.histogram("scalar", buckets=edges)
            batch = registry.histogram("batch", buckets=edges)
            scalar.observe(value, path="scan")
            batch.observe_many([value], path="scan")
            got = scalar.to_dict()["samples"]["path=scan"]
            want = batch.to_dict()["samples"]["path=scan"]
            assert got["counts"] == want["counts"], value
            assert got["count"] == want["count"] == 1
            np.testing.assert_array_equal(got["sum"], want["sum"])
        # NaN lands in the overflow bin, as searchsorted sends it.
        hist = MetricsRegistry().histogram("h", buckets=edges)
        hist.observe(float("nan"))
        assert hist.to_dict()["samples"][""]["counts"] == [0, 0, 0, 0, 1]

    def test_empty_batch_is_noop(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.observe_many([])
        assert hist.count() == 0

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")
        with pytest.raises(TelemetryError):
            registry.histogram("x", buckets=(1.0,))

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(TelemetryError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_snapshot_is_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc(epoch=1)
        registry.gauge("g").set(0.25)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snapshot = registry.snapshot()
        assert sorted(snapshot) == ["c", "g", "h"]
        assert snapshot["c"]["samples"] == {"epoch=1": 1.0}
        json.dumps(snapshot)  # must not raise

    def test_instrument_classes(self):
        registry = MetricsRegistry()
        registry.counter("c", "desc")
        registry.gauge("g", "desc")
        registry.histogram("h", (1.0,), "desc")
        kinds = {name: s["type"] for name, s in registry.snapshot().items()}
        assert kinds == {"c": "counter", "g": "gauge", "h": "histogram"}


class TestNullRegistry:
    def test_disabled_and_silent(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("c").inc(5)
        NULL_REGISTRY.gauge("g").set(1.0)
        NULL_REGISTRY.histogram("h", buckets=(1.0,)).observe(0.5)
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.counter("c").value() == 0.0

    def test_shared_instrument_instance(self):
        # One no-op object for everything: the hot path never allocates.
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.gauge("b")


class TestConcurrencyHammer:
    def test_parallel_writes_snapshots_and_renders(self):
        """N writer threads vs a snapshotting reader vs an exporter."""
        from repro.obs.export import render_prometheus

        registry = MetricsRegistry()
        errors = []
        stop = threading.Event()
        per_thread, num_writers = 500, 6

        def writer(tid: int) -> None:
            try:
                for i in range(per_thread):
                    registry.counter("hammer.count").inc(thread=tid)
                    registry.histogram(
                        "hammer.seconds", buckets=(0.5, 1.0)
                    ).observe(i % 2, thread=tid)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader() -> None:
            try:
                while not stop.is_set():
                    render_prometheus(registry.snapshot())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(tid,))
            for tid in range(num_writers)
        ]
        snapshotter = threading.Thread(target=reader)
        snapshotter.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        snapshotter.join()

        assert errors == []
        for tid in range(num_writers):
            assert registry.counter("hammer.count").value(
                thread=tid
            ) == pytest.approx(per_thread)
            assert (
                registry.histogram("hammer.seconds", buckets=(0.5, 1.0)).count(
                    thread=tid
                )
                == per_thread
            )
        # The final render must parse as complete exposition text.
        text = render_prometheus(registry.snapshot())
        assert "hammer_count" in text and "hammer_seconds_count" in text
