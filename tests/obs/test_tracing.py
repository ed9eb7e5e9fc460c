"""Unit tests for span tracing (nesting, errors, export, flame text)."""

import json

import pytest

from repro.errors import EvaluationError
from repro.obs.tracing import NULL_TRACER, Tracer


class TestNesting:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("fit"):
            with tracer.span("contexts"):
                pass
            with tracer.span("epoch", epoch=0):
                with tracer.span("sgd"):
                    pass
        (root,) = tracer.roots
        assert root.name == "fit"
        assert [c.name for c in root.children] == ["contexts", "epoch"]
        assert [c.name for c in root.children[1].children] == ["sgd"]
        assert root.children[1].attributes == {"epoch": 0}

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.roots] == ["a", "b"]

    def test_durations_nest_sensibly(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.find("outer"), tracer.find("inner")
        assert outer.finished and inner.finished
        assert 0.0 <= inner.duration <= outer.duration

    def test_yielded_span_takes_attributes(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set_attribute("num_contexts", 7)
        assert tracer.find("s").attributes["num_contexts"] == 7


class TestErrors:
    def test_exception_stamps_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("fit"):
                with tracer.span("epoch"):
                    raise ValueError("boom")
        fit, epoch = tracer.find("fit"), tracer.find("epoch")
        assert epoch.status == "error"
        assert epoch.error == "ValueError: boom"
        assert fit.status == "error"
        assert fit.finished and epoch.finished

    def test_stack_recovers_after_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("bad"):
                raise RuntimeError
        with tracer.span("good"):
            pass
        # "good" is a new root, not a child of the failed span.
        assert [s.name for s in tracer.roots] == ["bad", "good"]


class TestExport:
    def _sample_tracer(self):
        tracer = Tracer()
        with tracer.span("fit", num_users=8):
            with tracer.span("epoch", epoch=0):
                pass
        return tracer

    def test_iter_spans_depth_first(self):
        tracer = self._sample_tracer()
        assert [s.name for s in tracer.iter_spans()] == ["fit", "epoch"]

    def test_to_dicts_round_trips_json(self):
        dicts = self._sample_tracer().to_dicts()
        payload = json.loads(json.dumps(dicts))
        assert payload[0]["name"] == "fit"
        assert payload[0]["children"][0]["attributes"] == {"epoch": 0}

    def test_write_jsonl(self, tmp_path):
        path = self._sample_tracer().write_jsonl(tmp_path / "trace.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["name"], r["path"], r["depth"]) for r in rows] == [
            ("fit", "fit", 0),
            ("epoch", "fit/epoch", 1),
        ]
        assert all(r["status"] == "ok" for r in rows)

    def test_flame_text_mentions_every_span(self):
        text = self._sample_tracer().flame_text()
        assert "fit" in text and "epoch" in text

    def test_flame_text_empty_forest_raises(self):
        with pytest.raises(EvaluationError):
            Tracer().flame_text()

    def test_reset(self):
        tracer = self._sample_tracer()
        tracer.reset()
        assert tracer.roots == []


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", x=1) as span:
            span.set_attribute("y", 2)
        assert span.duration == 0.0
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.find("anything") is None
        assert NULL_TRACER.to_dicts() == []

    def test_null_span_is_shared(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
