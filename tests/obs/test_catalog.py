"""The telemetry catalog, its handles, and the regression gate's baselines.

The catalog declares every metric once, as a handle, and every span
name; these tests pin its invariants and the handles' binding to the
ambient run.  The gate round trip checks the other end of the pipeline:
every regression-gate pattern must bite at least one leaf of its
checked-in baseline, so no gate is dead.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro.obs.catalog as catalog
from repro.apps.influence_max import (
    embedding_edge_probabilities,
    ris_influence_maximization,
)
from repro.ckpt import CheckpointManager
from repro.core.embeddings import InfluenceEmbedding
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.data.synthetic import SyntheticSocialDataset
from repro.diffusion.ic import simulate_ic
from repro.errors import ServingError
from repro.obs import NULL_RUN, RunRecorder, recording
from repro.obs.catalog import SERVE_QUERIES, SPAN_CATALOG, SpanSpec
from repro.obs.regress import (
    DEFAULT_BASELINE_DIR,
    DEFAULT_POLICIES,
    REPORT_FILES,
    flatten_numeric,
)
from repro.obs.run import METRIC_HANDLES, counter, gauge
from repro.serve import EmbeddingStore, InfluenceService

#: The gate's default baseline directory, resolved from the repo root.
BASELINE_DIR = Path(__file__).resolve().parents[2] / DEFAULT_BASELINE_DIR


def _baseline_leaves(report: str) -> dict[str, float]:
    """The flattened numeric leaves of ``report``'s checked-in baseline."""
    path = BASELINE_DIR / report
    return flatten_numeric(json.loads(path.read_text()))


def _catalog_handles() -> dict[str, object]:
    """The handles the catalog module binds, by metric name."""
    return {
        handle.name: handle
        for handle in vars(catalog).values()
        if getattr(handle, "name", None) in METRIC_HANDLES
    }


@pytest.fixture()
def service(tmp_path):
    """A service over a small store with a k=5 index, opened unrecorded."""
    rng = np.random.default_rng(0)
    embedding = InfluenceEmbedding(
        rng.normal(size=(30, 4)), rng.normal(size=(30, 4)),
        rng.normal(size=30), rng.normal(size=30),
    )
    EmbeddingStore.save(embedding, tmp_path)
    opened = InfluenceService.open(tmp_path)
    opened.precompute(5)
    return opened


class TestCatalogInvariants:
    def test_specs_are_well_formed(self):
        for handle in METRIC_HANDLES.values():
            assert handle.kind in {"counter", "gauge", "histogram"}
            assert isinstance(handle.labels, tuple) and handle.description
            if handle.kind == "histogram":
                buckets = list(handle.buckets)
                assert buckets == sorted(set(buckets)), handle.name
        for spec in SPAN_CATALOG:
            assert isinstance(spec, SpanSpec)
            assert spec.name and isinstance(spec.labels, tuple)

    def test_validate_passes_on_shipped_catalog(self):
        # Every metric the program records is declared in the catalog
        # module, under the name it was declared with.
        shipped = _catalog_handles()
        assert len(shipped) == 37
        assert all(METRIC_HANDLES[name] is h for name, h in shipped.items())

    def test_duplicate_spec_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            counter("serve.queries", ("direction", "path"), "again")
        # Names are unique across kinds: the registry keys by name.
        with pytest.raises(ValueError, match="duplicate"):
            gauge("train.epochs", (), "a gauge under a counter's name")
        assert METRIC_HANDLES["serve.queries"] is SERVE_QUERIES

    def test_same_name_different_kind_allowed(self):
        # Spans and metrics are separate namespaces: a span may carry a
        # declared metric's name without clashing with its instrument.
        run = RunRecorder()
        with recording(run):
            with run.span("train.epochs"):
                catalog.TRAIN_EPOCHS.inc()
        assert run.metrics.snapshot()["train.epochs"]["samples"] == {"": 1.0}
        assert [span.name for span in run.tracer.roots] == ["train.epochs"]


class TestHandles:
    def test_handle_has_only_its_kinds_mutators(self):
        for scope in (NULL_RUN, RunRecorder()):
            with recording(scope):
                with pytest.raises(AttributeError):
                    catalog.TRAIN_EPOCHS.set(1.0)
                with pytest.raises(AttributeError):
                    catalog.TRAIN_EPOCH_LOSS.inc()
                with pytest.raises(AttributeError):
                    catalog.SERVE_QUERIES.observe(1.0)

    def test_service_opened_outside_records_into_each_scope(self, service):
        service.top_influenced(0, 3)
        runs = [RunRecorder(), RunRecorder()]
        for run in runs:
            with recording(run):
                service.top_influenced(1, 3)
            service.top_influenced(2, 3)
        for run in runs:
            queries = run.metrics.snapshot()["serve.queries"]["samples"]
            assert queries == {"direction=influenced,path=index": 1.0}

    def test_null_scope_inside_a_run_rebinds_to_null(self, service):
        run = RunRecorder()
        with recording(run):
            service.top_influenced(0, 3)
            with recording(NULL_RUN):
                service.top_influenced(1, 3)
                with pytest.raises(ServingError):
                    service.top_influenced(-1, 3)
            service.top_influenced(2, 3)
        snapshot = run.metrics.snapshot()
        assert snapshot["serve.queries"]["samples"] == {
            "direction=influenced,path=index": 2.0
        }
        assert "serve.query.errors" not in snapshot

    def test_recorded_instruments_match_their_declarations(
        self, service, tmp_path
    ):
        data = SyntheticSocialDataset.digg_like(
            num_users=60, num_items=12, seed=1
        )
        run = RunRecorder()
        with recording(run):
            model = Inf2vecModel(Inf2vecConfig(dim=4, epochs=2), seed=0)
            model.fit(
                data.graph, data.log,
                checkpoint=CheckpointManager(tmp_path / "ckpt", keep=1),
            )
            service.precompute(5)
            service.top_influenced(0, 3)
            service.top_influencers(0, 3)  # no such index: a scan
            with pytest.raises(ServingError):
                service.top_influenced(99, 3)
            probabilities = embedding_edge_probabilities(
                model.embedding, data.graph
            )
            ris_influence_maximization(probabilities, 2, seed=0)
            simulate_ic(probabilities, [0, 1], seed=0)
        snapshot = run.metrics.snapshot()
        # All but the benchmark's histogram and what needs hogwild
        # workers, a resume, a cache hit or a clipped row.
        assert set(METRIC_HANDLES) - set(snapshot) == {
            "bench.workload.seconds", "ckpt.resumes", "contexts.cache.hits",
            "train.clip.rows", "train.worker.contexts",
        }
        for name, recorded in snapshot.items():
            declared = METRIC_HANDLES[name]
            assert recorded["type"] == declared.kind, name
            assert recorded["description"] == declared.description, name
            if declared.kind == "histogram":
                for sample in recorded["samples"].values():
                    assert tuple(sample["buckets"]) == declared.buckets, name
            for labels in recorded["samples"]:
                keys = {pair.split("=")[0] for pair in labels.split(",") if pair}
                assert keys <= set(declared.labels), name


class TestGateRoundTrip:
    """Every gate pattern bites a leaf of its checked-in baseline."""

    def test_gated_reports_are_the_shipped_reports(self):
        assert set(DEFAULT_POLICIES) == set(REPORT_FILES)
        for report in REPORT_FILES:
            assert (BASELINE_DIR / report).is_file(), f"{report} not checked in"

    @pytest.mark.parametrize("report", sorted(DEFAULT_POLICIES))
    def test_every_gate_pattern_is_live(self, report):
        leaves = _baseline_leaves(report)
        for policy in DEFAULT_POLICIES[report]:
            assert any(
                policy.matches(leaf) for leaf in leaves
            ), f"{report}: gate {policy.pattern!r} matches no baseline leaf"

    @pytest.mark.parametrize("report", sorted(DEFAULT_POLICIES))
    def test_every_report_gates_a_leaf(self, report):
        leaves = _baseline_leaves(report)
        assert any(
            policy.matches(leaf)
            for leaf in leaves
            for policy in DEFAULT_POLICIES[report]
        ), f"{report}: no baseline leaf is gated at all"
