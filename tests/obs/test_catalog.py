"""The telemetry catalog: declarations, lookups, and gate round-trips.

The catalog is the single source of truth the ``telemetry-contract``
project rule checks instrumentation sites against; these tests pin its
own invariants and close the loop the other way — every checked-in
benchmark baseline leaf must be declared, and every regression-gate
pattern must bite at least one declared leaf.
"""

from __future__ import annotations

import json
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from repro.obs.catalog import (
    GATED_BENCH_LEAVES,
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


def _gate_hits(leaf: str, pattern: str) -> bool:
    return fnmatchcase(leaf, pattern) or fnmatchcase(pattern, leaf)


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
        family = find_spec("diffusion.ic.simulations")
        assert family is not None and family.name == "diffusion.*.simulations"

    def test_unknown_name_returns_none(self):
        assert find_spec("no.such.metric") is None
        assert find_spec(catalog_names("counter")[0], "no-such-kind") is None

    def test_matches_respects_glob(self):
        spec = MetricSpec("serve.batch.*", "histogram", (), "")
        assert spec.matches("serve.batch.wait_ms")
        assert not spec.matches("serve.single.wait_ms")


class TestGateRoundTrip:
    """The checked-in baselines, the gate patterns, and the catalog agree."""

    def test_gated_reports_are_the_shipped_reports(self):
        assert set(GATED_BENCH_LEAVES) == set(REPORT_FILES)
        assert set(DEFAULT_POLICIES) <= set(GATED_BENCH_LEAVES)

    @pytest.mark.parametrize("report", sorted(GATED_BENCH_LEAVES))
    def test_declared_leaves_exist_in_baselines(self, report):
        path = BASELINE_DIR / report
        if not path.is_file():
            pytest.skip(f"{report} baseline not checked in")
        leaves = flatten_numeric(json.loads(path.read_text()))
        assert leaves, f"{report} flattened to nothing"
        for pattern in GATED_BENCH_LEAVES[report]:
            assert any(
                _gate_hits(leaf, pattern) for leaf in leaves
            ), f"{report}: declared leaf {pattern!r} is stale (no baseline hit)"

    @pytest.mark.parametrize("report", sorted(DEFAULT_POLICIES))
    def test_gated_baseline_leaves_are_declared(self, report):
        path = BASELINE_DIR / report
        if not path.is_file():
            pytest.skip(f"{report} baseline not checked in")
        leaves = flatten_numeric(json.loads(path.read_text()))
        declared = GATED_BENCH_LEAVES[report]
        gated = [
            leaf
            for leaf in leaves
            if any(policy.matches(leaf) for policy in DEFAULT_POLICIES[report])
        ]
        assert gated, f"{report}: no baseline leaf is gated at all"
        for leaf in gated:
            assert any(
                _gate_hits(leaf, pattern) for pattern in declared
            ), f"{report}: gated leaf {leaf!r} not declared in GATED_BENCH_LEAVES"

    @pytest.mark.parametrize("report", sorted(DEFAULT_POLICIES))
    def test_every_gate_pattern_is_live(self, report):
        declared = GATED_BENCH_LEAVES[report]
        for policy in DEFAULT_POLICIES[report]:
            assert any(
                _gate_hits(leaf, policy.pattern) for leaf in declared
            ), f"{report}: gate {policy.pattern!r} matches no declared leaf"
