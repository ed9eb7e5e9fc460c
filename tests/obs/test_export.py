"""Prometheus exposition rendering, periodic export, flush-on-exit hooks."""

import json
import signal
import time
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, RunRecorder, recording
from repro.obs.export import (
    EXPOSITION_FILENAME,
    PeriodicExporter,
    on_process_exit,
    prometheus_name,
    render_prometheus,
)
from repro.obs.export import _EXIT_CALLBACKS, _run_exit_callbacks


class TestPrometheusName:
    def test_dots_become_underscores(self):
        assert prometheus_name("serve.query.seconds") == "serve_query_seconds"

    def test_leading_digit_prefixed(self):
        assert prometheus_name("2fast") == "_2fast"

    def test_colons_survive(self):
        assert prometheus_name("ns:metric") == "ns:metric"


class TestRenderPrometheus:
    @pytest.fixture
    def registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("app.requests", "requests").inc(3, route="a")
        registry.gauge("app.depth", "queue depth").set(7.0)
        registry.histogram("app.seconds", (0.1, 1.0), "latency").observe_many(
            [0.05, 0.5, 2.0]
        )
        return registry

    def test_all_instrument_kinds_render(self, registry):
        text = render_prometheus(registry.snapshot())
        assert '# TYPE app_requests counter' in text
        assert 'app_requests{route="a"} 3.0' in text
        assert '# TYPE app_depth gauge' in text
        assert '# TYPE app_seconds histogram' in text

    def test_histogram_buckets_are_cumulative(self, registry):
        lines = render_prometheus(registry.snapshot()).splitlines()
        buckets = [l for l in lines if l.startswith("app_seconds_bucket")]
        assert buckets == [
            'app_seconds_bucket{le="0.1"} 1',
            'app_seconds_bucket{le="1.0"} 2',
            'app_seconds_bucket{le="+Inf"} 3',
        ]
        assert "app_seconds_count 3" in lines
        assert "app_seconds_sum 2.55" in lines

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(kind='say "hi"\n')
        text = render_prometheus(registry.snapshot())
        assert 'kind="say \\"hi\\"\\n"' in text


class TestPeriodicExporter:
    def test_flush_writes_all_three_files(self, tmp_path):
        run = RunRecorder(name="t")
        with recording(run):
            run.metrics.counter("c").inc()
            with run.span("s"):
                pass
        exporter = PeriodicExporter(run, tmp_path / "tele", every=60.0)
        exporter.flush()
        assert (tmp_path / "tele" / EXPOSITION_FILENAME).is_file()
        manifest = json.loads((tmp_path / "tele" / "manifest.json").read_text())
        assert "c" in manifest["metrics"]
        trace = (tmp_path / "tele" / "trace.jsonl").read_text()
        assert json.loads(trace.splitlines()[0])["name"] == "s"

    def test_background_thread_flushes_repeatedly(self, tmp_path):
        run = RunRecorder(name="t")
        exporter = PeriodicExporter(run, tmp_path, every=0.02)
        exporter.start(install_exit_hooks=False)
        try:
            deadline = time.monotonic() + 5.0
            while exporter.flush_count < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            exporter.stop()
        assert exporter.flush_count >= 3
        assert not any(
            p.name.startswith(".") for p in Path(tmp_path).iterdir()
        ), "no temp files may linger after atomic replaces"

    def test_context_manager_and_stop_flush(self, tmp_path):
        run = RunRecorder(name="t")
        with PeriodicExporter(run, tmp_path, every=60.0) as exporter:
            started = exporter.flush_count
            assert started >= 1  # start() writes an initial snapshot
        assert exporter.flush_count >= started + 1  # stop() flushes again
        assert exporter._thread is None

    def test_rejects_non_positive_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="cadence"):
            PeriodicExporter(RunRecorder(name="t"), tmp_path, every=0)


class TestOnProcessExit:
    def test_callback_runs_and_unregisters(self):
        calls = []
        unregister = on_process_exit(lambda: calls.append(1), signals=())
        _run_exit_callbacks()
        assert calls == [1]
        unregister()
        _run_exit_callbacks()
        assert calls == [1]

    def test_failing_callback_does_not_block_others(self):
        calls = []

        def boom():
            raise RuntimeError("flush failed")

        first = on_process_exit(boom, signals=())
        second = on_process_exit(lambda: calls.append(2), signals=())
        try:
            _run_exit_callbacks()
        finally:
            first()
            second()
        assert calls == [2]

    def test_sigterm_handler_installed_on_main_thread(self):
        unregister = on_process_exit(lambda: None)
        try:
            handler = signal.getsignal(signal.SIGTERM)
            assert callable(handler)
            assert handler.__name__ == "_signal_handler"
        finally:
            unregister()
