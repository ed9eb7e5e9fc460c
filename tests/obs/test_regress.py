"""The perf-regression gate: policies, comparison, and CLI exit codes."""

import json

import pytest

from repro.obs.regress import (
    DEFAULT_POLICIES,
    MetricPolicy,
    compare_reports,
    flatten_numeric,
    format_findings,
    main,
)


class TestFlattenNumeric:
    def test_nested_numeric_leaves(self):
        flat = flatten_numeric(
            {"a": 1, "b": {"c": 2.5, "d": {"e": 3}}, "s": "text"}
        )
        assert flat == {"a": 1.0, "b.c": 2.5, "b.d.e": 3.0}

    def test_booleans_and_nulls_skipped(self):
        assert flatten_numeric({"ok": True, "x": None, "n": 4}) == {"n": 4.0}


class TestMetricPolicy:
    def test_lower_direction_regression_sign(self):
        policy = MetricPolicy("*", "lower", 0.5)
        assert policy.regression(1.0, 2.0) == pytest.approx(1.0)  # 2x worse
        assert policy.regression(1.0, 0.5) == pytest.approx(-0.5)  # better

    def test_higher_direction_regression_sign(self):
        policy = MetricPolicy("*", "higher", 0.5)
        assert policy.regression(100.0, 40.0) == pytest.approx(0.6)  # worse
        assert policy.regression(100.0, 150.0) == pytest.approx(-0.5)

    def test_pattern_matching_crosses_dots(self):
        policy = MetricPolicy("workloads.*.p50_ms", "lower", 0.5)
        assert policy.matches("workloads.single_scan.p50_ms")
        assert not policy.matches("workloads.single_scan.qps")

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            MetricPolicy("*", "sideways", 0.5)

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError, match="max_regression"):
            MetricPolicy("*", "lower", 0.0)


class TestCompareReports:
    POLICIES = (
        MetricPolicy("latency.*", "lower", 0.75),
        MetricPolicy("qps", "higher", 0.5),
    )

    def test_identical_reports_pass(self):
        report = {"latency": {"p50": 1.0}, "qps": 100.0, "unrelated": 5}
        findings = compare_reports(report, report, self.POLICIES)
        assert len(findings) == 2  # 'unrelated' matched no policy
        assert not any(f.regressed for f in findings)

    def test_doubled_latency_regresses(self):
        base = {"latency": {"p50": 1.0}}
        cur = {"latency": {"p50": 2.0}}
        (finding,) = compare_reports(base, cur, self.POLICIES)
        assert finding.regressed
        assert finding.regression == pytest.approx(1.0)

    def test_missing_gated_leaf_regresses(self):
        base = {"latency": {"p50": 1.0}}
        (finding,) = compare_reports(base, {}, self.POLICIES)
        assert finding.current is None
        assert finding.regressed
        assert "missing" in format_findings([finding])

    def test_new_leaves_in_current_ignored(self):
        base = {"qps": 100.0}
        cur = {"qps": 100.0, "latency": {"p50": 999.0}}
        findings = compare_reports(base, cur, self.POLICIES)
        assert [f.path for f in findings] == ["qps"]


@pytest.fixture
def report_dirs(tmp_path):
    """Baseline and current dirs seeded with identical minimal reports."""
    serving = {
        "workloads": {
            "single_scan": {"p50_ms": 1.0, "p99_ms": 2.0, "qps": 1000.0}
        }
    }
    training = {
        "context_generation": {"batched_seconds": 0.5, "speedup": 4.0},
        "train_epoch": {"batched_seconds": 2.0, "speedup": 5.0},
    }
    influence_max = {
        "presets": {
            "digg_like": {
                "methods": {
                    "ris": {"selection_seconds": 0.4, "spread": 22.0},
                    "greedy": {"selection_seconds": 0.1, "spread": 21.0},
                },
            }
        }
    }
    base, cur = tmp_path / "base", tmp_path / "cur"
    for directory in (base, cur):
        directory.mkdir()
        (directory / "BENCH_serving.json").write_text(json.dumps(serving))
        (directory / "BENCH_training.json").write_text(json.dumps(training))
        (directory / "BENCH_influence_max.json").write_text(
            json.dumps(influence_max)
        )
    return base, cur


def _gate(base, cur, *extra):
    return main(
        ["--baseline-dir", str(base), "--current-dir", str(cur), *extra]
    )


class TestMain:
    def test_identical_reports_exit_zero(self, report_dirs, capsys):
        base, cur = report_dirs
        assert _gate(base, cur) == 0
        assert "within budget" in capsys.readouterr().out

    def test_injected_2x_latency_fails_the_gate(self, report_dirs, capsys):
        base, cur = report_dirs
        report = json.loads((cur / "BENCH_serving.json").read_text())
        report["workloads"]["single_scan"]["p50_ms"] *= 2.0
        (cur / "BENCH_serving.json").write_text(json.dumps(report))
        assert _gate(base, cur) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_report_only_never_fails(self, report_dirs, capsys):
        base, cur = report_dirs
        report = json.loads((cur / "BENCH_serving.json").read_text())
        report["workloads"]["single_scan"]["p50_ms"] *= 10.0
        (cur / "BENCH_serving.json").write_text(json.dumps(report))
        assert _gate(base, cur, "--report-only") == 0
        assert "report-only" in capsys.readouterr().out

    def test_missing_report_is_usage_error(self, report_dirs, capsys):
        base, cur = report_dirs
        (cur / "BENCH_serving.json").unlink()
        assert _gate(base, cur) == 2
        assert "missing" in capsys.readouterr().out

    def test_unreadable_report_is_usage_error(self, report_dirs, capsys):
        base, cur = report_dirs
        (cur / "BENCH_training.json").write_text("{not json")
        assert _gate(base, cur) == 2
        assert "unreadable" in capsys.readouterr().out

    def test_report_flag_limits_scope(self, report_dirs):
        base, cur = report_dirs
        (cur / "BENCH_training.json").unlink()
        assert _gate(base, cur, "--report", "BENCH_serving.json") == 0


class TestCheckedInBaselines:
    def test_default_policies_cover_all_reports(self):
        assert set(DEFAULT_POLICIES) == {
            "BENCH_serving.json",
            "BENCH_training.json",
            "BENCH_influence_max.json",
        }

    def test_latency_budgets_catch_a_2x_slowdown(self):
        # Acceptance: a genuine 2x latency regression (=+100% relative)
        # must exceed every latency budget.
        for policies in DEFAULT_POLICIES.values():
            for policy in policies:
                if policy.direction == "lower":
                    assert policy.max_regression < 1.0, policy
