"""The telemetry catalog, and the regression gate against its baselines.

The catalog is the single source of truth the ``telemetry-contract``
rule checks instrumentation sites against; these tests pin its own
invariants.  The gate round trip checks the other end of the pipeline:
every regression-gate pattern must bite at least one leaf of its
checked-in baseline, so no gate is dead.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.catalog import (
    METRIC_CATALOG,
    MetricSpec,
    catalog_names,
    find_spec,
    validate_catalog,
)
from repro.obs.regress import (
    DEFAULT_BASELINE_DIR,
    DEFAULT_POLICIES,
    REPORT_FILES,
    flatten_numeric,
)

#: The gate's default baseline directory, resolved from the repo root.
BASELINE_DIR = Path(__file__).resolve().parents[2] / DEFAULT_BASELINE_DIR


def _baseline_leaves(report: str) -> dict[str, float]:
    """The flattened numeric leaves of ``report``'s checked-in baseline."""
    path = BASELINE_DIR / report
    return flatten_numeric(json.loads(path.read_text()))


class TestCatalogInvariants:
    def test_specs_are_well_formed(self):
        kinds = {"counter", "gauge", "histogram", "summary", "span"}
        for spec in METRIC_CATALOG:
            assert isinstance(spec, MetricSpec)
            assert spec.name and spec.kind in kinds
            assert isinstance(spec.labels, tuple)

    def test_validate_passes_on_shipped_catalog(self):
        validate_catalog(METRIC_CATALOG)

    def test_duplicate_spec_rejected(self):
        duplicated = (
            MetricSpec("x.y", "counter", (), "a"),
            MetricSpec("x.y", "counter", (), "b"),
        )
        with pytest.raises(ValueError, match="duplicate"):
            validate_catalog(duplicated)

    def test_same_name_different_kind_allowed(self):
        validate_catalog(
            (
                MetricSpec("x.y", "counter", (), "a"),
                MetricSpec("x.y", "span", (), "b"),
            )
        )


class TestLookups:
    def test_catalog_names_filters_by_kind(self):
        counters = catalog_names("counter")
        assert counters
        assert set(counters) <= set(catalog_names())
        assert all(find_spec(name, "counter") for name in counters)

    def test_exact_match_beats_family_pattern(self):
        assert find_spec("serve.batch.size") is not None
        # A concrete name covered only by the family falls through to it.
        family = find_spec("serve.batch.influenced")
        assert family is not None and family.name == "serve.batch.*"

    def test_unknown_name_returns_none(self):
        assert find_spec("no.such.metric") is None
        assert find_spec(catalog_names("counter")[0], "no-such-kind") is None

    def test_matches_respects_glob(self):
        spec = MetricSpec("serve.batch.*", "histogram", (), "")
        assert spec.matches("serve.batch.wait_ms")
        assert not spec.matches("serve.single.wait_ms")


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
