"""Perf-regression gate over persisted benchmark reports.

The serving, training, and influence-maximisation benchmark drivers
persist machine-readable reports (``BENCH_serving.json``,
``BENCH_training.json``, ``BENCH_influence_max.json``) at the
repository root.  Checked-in copies under ``benchmarks/baselines/``
are the agreed working points; this module compares a fresh run
against them with per-metric relative thresholds and turns "the scan
path got 2x slower" into a non-zero exit status instead of a silently
drifting number.

Policies are fnmatch patterns over *flattened* dotted paths of the
report's numeric leaves (``workloads.single_scan.p50_ms``), each with
a direction — ``lower`` for latencies and timings, ``higher`` for
throughput — and a ``max_regression`` relative budget.  Leaves no
policy matches are ignored, so reports may grow new fields without
breaking the gate; a leaf present in the baseline but missing from the
current report *is* a finding (the benchmark stopped measuring it).

Run as ``python -m repro.obs.regress`` from the repository root after
the benches, or with ``--report-only`` in CI jobs that want the table
without the gate.  Exit status: 0 clean, 1 regressions found, 2 usage
errors (missing or unreadable report files).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterator, Mapping, Sequence

__all__ = [
    "DEFAULT_POLICIES",
    "MetricPolicy",
    "REPORT_FILES",
    "compare_reports",
    "flatten_numeric",
    "format_findings",
    "main",
]

#: Benchmark report files the gate knows about (repo-root relative).
REPORT_FILES = (
    "BENCH_serving.json",
    "BENCH_training.json",
    "BENCH_influence_max.json",
)

#: Where the agreed-upon baseline copies live (repo-root relative).
DEFAULT_BASELINE_DIR = "benchmarks/baselines"


@dataclass(frozen=True)
class MetricPolicy:
    """Relative-regression budget for metrics matching ``pattern``.

    ``direction`` says which way is good: ``"lower"`` metrics (latency,
    seconds) regress when the current value exceeds baseline by more
    than ``max_regression`` (relative); ``"higher"`` metrics (qps,
    speedup) regress when current falls below baseline by more than
    ``max_regression``.
    """

    pattern: str
    direction: str
    max_regression: float

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise ValueError(
                f"direction must be 'lower' or 'higher', got {self.direction!r}"
            )
        if self.max_regression <= 0:
            raise ValueError(
                f"max_regression must be positive, got {self.max_regression}"
            )

    def matches(self, path: str) -> bool:
        """Whether this policy governs the flattened metric ``path``."""
        return fnmatchcase(path, self.pattern)

    def regression(self, baseline: float, current: float) -> float:
        """Signed relative regression (positive = worse) of ``current``.

        Degenerate baselines (zero or sign flips) are treated as
        maximally suspicious only when the current value is worse in
        the policy's direction.
        """
        if baseline == 0:
            if self.direction == "lower":
                return float("inf") if current > 0 else 0.0
            return float("inf") if current < 0 else 0.0
        change = (current - baseline) / abs(baseline)
        return change if self.direction == "lower" else -change


@dataclass(frozen=True)
class Finding:
    """One compared metric: its values, budget, and verdict."""

    report: str
    path: str
    baseline: float
    current: float | None
    regression: float
    max_regression: float

    @property
    def regressed(self) -> bool:
        """Whether this metric blew its budget (or disappeared)."""
        return self.current is None or self.regression > self.max_regression


#: Relative budgets per report.  Latency thresholds sit below 1.0 so a
#: genuine 2x slowdown (= +100% relative) always trips the gate, but
#: far enough above run-to-run noise on shared CI runners that the
#: checked-in baselines pass cleanly.  Throughput/speedup budgets are
#: fractions of the baseline rate lost.
DEFAULT_POLICIES: Mapping[str, Sequence[MetricPolicy]] = {
    "BENCH_serving.json": (
        MetricPolicy("workloads.*.p50_ms", "lower", 0.75),
        MetricPolicy("workloads.*.p99_ms", "lower", 0.90),
        MetricPolicy("workloads.*.qps", "higher", 0.50),
    ),
    "BENCH_training.json": (
        MetricPolicy("context_generation.batched_seconds", "lower", 0.75),
        MetricPolicy("train_epoch.batched_seconds", "lower", 0.75),
        # Hogwild scaling: gate absolute per-count throughput, not the
        # efficiency ratios — those track the host's core count, which
        # the baseline can't promise.
        MetricPolicy("parallel.workers.*.examples_per_sec", "higher", 0.50),
    ),
    "BENCH_influence_max.json": (
        MetricPolicy("presets.*.methods.*.selection_seconds", "lower", 0.75),
        # Quality floor: MC-evaluated spread of each method's seed set
        # (seeded evaluator, so drift here means the selection itself
        # changed for the worse, not simulation noise).
        MetricPolicy("presets.*.methods.*.spread", "higher", 0.25),
    ),
}


def flatten_numeric(
    report: Mapping[str, object], prefix: str = ""
) -> dict[str, float]:
    """Flatten nested dicts to ``a.b.c -> float`` for numeric leaves.

    Non-numeric leaves (strings, lists, nulls) are skipped — the gate
    only reasons about measurements.  Booleans are excluded despite
    being ints.
    """
    flat: dict[str, float] = {}
    for key, value in report.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            flat.update(flatten_numeric(value, path))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
    return flat


def compare_reports(
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    policies: Sequence[MetricPolicy],
    report: str = "",
) -> list[Finding]:
    """Compare every policy-governed metric of two benchmark reports.

    Only baseline leaves matched by some policy are compared; a matched
    leaf missing from the current report yields a finding with
    ``current=None`` (which counts as regressed).
    """
    baseline_flat = flatten_numeric(baseline)
    current_flat = flatten_numeric(current)
    findings: list[Finding] = []
    for path in sorted(baseline_flat):
        policy = next((p for p in policies if p.matches(path)), None)
        if policy is None:
            continue
        base_value = baseline_flat[path]
        if path not in current_flat:
            findings.append(
                Finding(report, path, base_value, None, float("inf"),
                        policy.max_regression)
            )
            continue
        current_value = current_flat[path]
        findings.append(
            Finding(
                report,
                path,
                base_value,
                current_value,
                policy.regression(base_value, current_value),
                policy.max_regression,
            )
        )
    return findings


def _iter_report_pairs(
    baseline_dir: Path, current_dir: Path, reports: Sequence[str]
) -> Iterator[tuple[str, Path, Path]]:
    for name in reports:
        yield name, baseline_dir / name, current_dir / name


def format_findings(findings: Sequence[Finding]) -> str:
    """Render the comparison as an aligned plain-text table."""
    lines = [
        f"{'metric':<48}{'baseline':>12}{'current':>12}"
        f"{'change':>9}{'budget':>9}  verdict"
    ]
    for f in findings:
        metric = f"{f.report}:{f.path}"
        if f.current is None:
            current = "missing"
            change = "-"
        else:
            current = f"{f.current:.4g}"
            change = f"{f.regression:+.0%}"
        verdict = "REGRESSED" if f.regressed else "ok"
        lines.append(
            f"{metric:<48}{f.baseline:>12.4g}{current:>12}"
            f"{change:>9}{f.max_regression:>8.0%}  {verdict}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.obs.regress``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description=(
            "Compare fresh BENCH_*.json reports against checked-in "
            "baselines with per-metric relative-regression budgets."
        ),
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path(DEFAULT_BASELINE_DIR),
        help="directory holding the agreed baseline reports",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly produced reports",
    )
    parser.add_argument(
        "--report",
        action="append",
        choices=REPORT_FILES,
        help="limit the gate to one report file (repeatable)",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="print the comparison but always exit 0 on regressions",
    )
    args = parser.parse_args(argv)

    reports = tuple(args.report) if args.report else REPORT_FILES
    findings: list[Finding] = []
    for name, baseline_path, current_path in _iter_report_pairs(
        args.baseline_dir, args.current_dir, reports
    ):
        if not baseline_path.is_file():
            print(f"error: baseline report missing: {baseline_path}")
            return 2
        if not current_path.is_file():
            print(f"error: current report missing: {current_path}")
            return 2
        try:
            baseline = json.loads(baseline_path.read_text())
            current = json.loads(current_path.read_text())
        except json.JSONDecodeError as exc:
            print(f"error: unreadable report for {name}: {exc}")
            return 2
        findings.extend(
            compare_reports(
                baseline, current, DEFAULT_POLICIES.get(name, ()), report=name
            )
        )

    print(format_findings(findings))
    regressed = [f for f in findings if f.regressed]
    if regressed:
        print(
            f"\n{len(regressed)} of {len(findings)} gated metrics regressed"
            + (" (report-only: not failing)" if args.report_only else "")
        )
        return 0 if args.report_only else 1
    print(f"\nall {len(findings)} gated metrics within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
