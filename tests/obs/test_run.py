"""Unit tests for run recording: manifests and scopes."""

import pytest

from repro.core.inf2vec import Inf2vecConfig
from repro.obs.run import (
    MANIFEST_VERSION,
    NULL_RUN,
    RunRecorder,
    active_metrics,
    active_run,
    config_fingerprint,
    recording,
)


class TestFingerprint:
    def test_dataclass_fingerprint_is_stable(self):
        a = config_fingerprint(Inf2vecConfig(dim=32))
        b = config_fingerprint(Inf2vecConfig(dim=32))
        assert a == b
        assert len(a[1]) == 16

    def test_fingerprint_distinguishes_configs(self):
        _, fp_a = config_fingerprint(Inf2vecConfig(dim=32))
        _, fp_b = config_fingerprint(Inf2vecConfig(dim=64))
        assert fp_a != fp_b

    def test_mapping_and_fallback(self):
        payload, _ = config_fingerprint({"dim": 8})
        assert payload == {"dim": 8}
        payload, _ = config_fingerprint(object())
        assert "repr" in payload


class TestManifest:
    def test_round_trip(self, tmp_path):
        run = RunRecorder(name="unit")
        run.set_config(Inf2vecConfig(dim=16, epochs=2))
        run.set_dataset(num_users=100, num_episodes=20)
        run.annotate(seed="7")
        run.metrics.counter("train.epochs").inc(2)
        run.metrics.gauge("train.epoch.loss").set(0.5, epoch=0)
        with run.span("fit"):
            with run.span("epoch", epoch=0):
                pass

        path = run.write(tmp_path / "run.json")
        loaded = RunRecorder.load_manifest(path)

        assert loaded["manifest_version"] == MANIFEST_VERSION
        assert loaded["name"] == "unit"
        assert loaded["config"]["values"]["dim"] == 16
        assert loaded["config"]["fingerprint"] == (
            config_fingerprint(Inf2vecConfig(dim=16, epochs=2))[1]
        )
        assert loaded["dataset"] == {"num_users": 100, "num_episodes": 20}
        assert loaded["annotations"] == {"seed": "7"}
        assert loaded["metrics"] == run.metrics.snapshot()
        assert loaded["spans"][0]["name"] == "fit"
        assert loaded["spans"][0]["children"][0]["name"] == "epoch"

    def test_write_trace(self, tmp_path):
        run = RunRecorder()
        with run.span("a"):
            pass
        path = run.write_trace(tmp_path / "trace.jsonl")
        assert path.read_text().count('"name": "a"') == 1


class TestScopes:
    def test_default_is_null(self):
        assert active_run() is NULL_RUN
        assert active_metrics().enabled is False

    def test_recording_scope_activates_and_restores(self):
        run = RunRecorder()
        with recording(run):
            assert active_run() is run
            assert active_metrics() is run.metrics
        assert active_run() is NULL_RUN

    def test_scopes_nest_innermost_wins(self):
        outer, inner = RunRecorder(), RunRecorder()
        with recording(outer):
            with recording(inner):
                assert active_run() is inner
            assert active_run() is outer

    def test_scope_restored_on_exception(self):
        run = RunRecorder()
        with pytest.raises(ValueError):
            with recording(run):
                raise ValueError
        assert active_run() is NULL_RUN


class TestNullRun:
    def test_null_run_is_inert(self):
        NULL_RUN.set_config(Inf2vecConfig())
        NULL_RUN.set_dataset(num_users=5)
        NULL_RUN.annotate(x=1)
        with NULL_RUN.span("s"):
            pass
        assert NULL_RUN.manifest() == {}
        assert NULL_RUN.metrics.enabled is False
        assert NULL_RUN.tracer.enabled is False
