"""Integration: an instrumented fit records real telemetry end to end."""

import pytest

from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.data.synthetic import SyntheticSocialDataset
from repro.obs import NULL_RUN, RunRecorder, active_run, recording


@pytest.fixture(scope="module")
def data():
    return SyntheticSocialDataset.digg_like(
        num_users=200, num_items=40, seed=5
    )


@pytest.fixture(scope="module")
def recorded(data):
    """The run a two-epoch fit recorded inside a ``recording`` scope."""
    run = RunRecorder(name="inf2vec.fit")
    model = Inf2vecModel(Inf2vecConfig(dim=8, epochs=2), seed=3)
    with recording(run):
        model.fit(data.graph, data.log)
    return run


class TestTelemetryFlag:
    """What a fit records when telemetry is on (inside a scope)."""

    def test_epoch_metrics_recorded(self, recorded):
        metrics = recorded.metrics
        assert metrics.counter("train.epochs").total() == 2.0
        loss = metrics.gauge("train.epoch.loss")
        losses = [loss.value(epoch=e) for e in range(2)]
        assert all(v is not None and v > 0 for v in losses)
        rate = metrics.gauge("train.epoch.examples_per_sec")
        assert rate.value(epoch=0) > 0

    def test_context_metrics_recorded(self, recorded, data):
        metrics = recorded.metrics
        walk_lengths = metrics.histogram(
            "contexts.walk_length",
            buckets=(0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
        )
        assert walk_lengths.count() > 0
        assert metrics.counter("contexts.episodes").total() > 0
        assert (
            metrics.counter("contexts.tuples").total()
            == walk_lengths.count()
        )

    def test_negative_sampling_metrics_recorded(self, recorded):
        names = recorded.metrics.names()
        assert "negatives.collisions" in names

    def test_span_tree_shape(self, recorded):
        tracer = recorded.tracer
        (fit,) = tracer.roots
        assert fit.name == "fit"
        child_names = [c.name for c in fit.children]
        # Contexts are generated once up front, then one span per epoch
        # wrapping the sgd pass.
        assert child_names == ["contexts", "epoch", "epoch"]
        for epoch_span in fit.children[1:]:
            assert [c.name for c in epoch_span.children] == ["sgd"]
            assert epoch_span.attributes["loss"] > 0

    def test_manifest_contains_config_and_dataset(self, recorded, data):
        manifest = recorded.manifest()
        assert manifest["config"]["values"]["dim"] == 8
        assert manifest["config"]["fingerprint"]
        assert manifest["dataset"]["num_users"] == data.graph.num_nodes
        assert manifest["annotations"]["seed"] == "3"


class TestAmbientScope:
    def test_recording_scope_captures_fit(self, data):
        run = RunRecorder(name="scope")
        model = Inf2vecModel(Inf2vecConfig(dim=8, epochs=1), seed=3)
        with recording(run):
            model.fit(data.graph, data.log)
        assert run.metrics.counter("train.epochs").total() == 1.0
        assert run.tracer.find("sgd") is not None

    def test_telemetry_off_records_nothing(self, data):
        assert active_run() is NULL_RUN
        model = Inf2vecModel(Inf2vecConfig(dim=8, epochs=1), seed=3)
        model.fit(data.graph, data.log)
        assert active_run() is NULL_RUN


class TestDeterminism:
    def test_telemetry_does_not_change_training(self, data):
        plain = Inf2vecModel(Inf2vecConfig(dim=8, epochs=2), seed=3)
        plain.fit(data.graph, data.log)
        instrumented = Inf2vecModel(Inf2vecConfig(dim=8, epochs=2), seed=3)
        with recording(RunRecorder()):
            instrumented.fit(data.graph, data.log)
        import numpy as np

        np.testing.assert_array_equal(
            plain.embedding.source, instrumented.embedding.source
        )
        assert plain.loss_history == instrumented.loss_history
