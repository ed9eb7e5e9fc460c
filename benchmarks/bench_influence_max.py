"""Benchmark — sketch-based (RIS/IMM) seed selection.

Selects ``k = 10`` viral-marketing seeds on the planted ground-truth
probabilities of both synthetic presets (``digg_like`` and
``flickr_like`` at 2000 users) with ``ris`` —
:func:`repro.apps.ris_influence_maximization`: an adaptively sized
reverse-reachable sketch pool (IMM schedule) plus max-coverage
selection over all nodes.

The final seed set is re-evaluated with a seeded Monte-Carlo
estimator (spread ± standard error), independent of the internal
estimate — the RIS coverage estimate of its own selection is
upward-biased by the selection step.  Prefix spreads (``k = 1..10`` of
the selection order) give the spread-vs-wall-clock curve; selection wall time and MC-evaluated spread land in
``BENCH_influence_max.json`` for the :mod:`repro.obs.regress` gate.
Every time comes from the spans the run records: ``selection_seconds``
is the ``bench.ris`` span, split into ``rr_generate_seconds`` (its
``sketch.generate`` spans) and ``celf_seconds`` (its ``sketch.select``
spans).  Sketch telemetry (RR-set counters, schedule spans) is
persisted to ``BENCH_influence_max_manifest.json``.

Run standalone with ``python benchmarks/bench_influence_max.py`` (add
``--smoke`` for the fast CI working point) or under pytest-benchmark
with ``pytest benchmarks/bench_influence_max.py --benchmark-only``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.apps.influence_max import ris_influence_maximization
from repro.data.synthetic import SyntheticSocialDataset
from repro.diffusion.montecarlo import expected_spread, spread_with_standard_error
from repro.obs import RunRecorder, recording

#: Acceptance working point: both presets at 2000 users.
PRESET = dict(num_users=2000, num_seeds=10, eval_runs=1000, curve_runs=300,
              epsilon=0.2)
#: CI working point: same code paths, seconds instead of minutes.  The
#: looser epsilon keeps the sketch pool proportionate to the tiny graph
#: — at 300 users the IMM schedule's fixed lambda' term dominates and a
#: 0.2-epsilon pool would dwarf the graph.
SMOKE_PRESET = dict(num_users=300, num_seeds=5, eval_runs=200, curve_runs=100,
                    epsilon=0.3)
BENCH_SEED = 20180416  # ICDE 2018 week, arbitrary but memorable

DATASETS = ("digg_like", "flickr_like")

REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_influence_max.json"
MANIFEST_PATH = REPORT_PATH.with_name("BENCH_influence_max_manifest.json")


def _counter_value(run: RunRecorder, name: str) -> float:
    """Total of one unlabelled counter in the run's registry, or 0."""
    samples = run.metrics.snapshot().get(name, {}).get("samples", {})
    return float(sum(samples.values()))


def _span_seconds(root, name: str) -> float:
    """Summed duration of the spans called ``name`` below ``root``."""
    total = 0.0
    pending = list(root.children)
    while pending:
        span = pending.pop()
        if span.name == name:
            total += span.duration
        else:
            pending.extend(span.children)
    return total


def _evaluate(probabilities, seeds, eval_runs, curve_runs, seed) -> dict:
    """Common MC evaluation: final spread ± SE plus the prefix curve."""
    spread, stderr = spread_with_standard_error(
        probabilities, seeds, num_runs=eval_runs, seed=seed
    )
    curve = [
        {
            "k": k,
            "spread": expected_spread(
                probabilities, seeds[:k], num_runs=curve_runs, seed=seed + k
            ),
        }
        for k in range(1, len(seeds) + 1)
    ]
    return {"spread": spread, "spread_se": stderr, "curve": curve}


def run_influence_max(
    num_users: int = PRESET["num_users"],
    num_seeds: int = PRESET["num_seeds"],
    eval_runs: int = PRESET["eval_runs"],
    curve_runs: int = PRESET["curve_runs"],
    epsilon: float = PRESET["epsilon"],
    seed: int = BENCH_SEED,
) -> dict:
    """Time and evaluate RIS selection on both presets."""
    run = RunRecorder(name="bench.influence_max")
    run.set_config(
        {
            "num_users": num_users,
            "num_seeds": num_seeds,
            "eval_runs": eval_runs,
        }
    )
    run.annotate(seed=seed)

    presets: dict[str, dict] = {}
    with recording(run):
        for name in DATASETS:
            maker = getattr(SyntheticSocialDataset, name)
            dataset = maker(num_users=num_users, seed=seed)
            probabilities = dataset.planted.edge_probabilities
            graph = dataset.graph
            eval_seed = seed + 1
            methods: dict[str, dict] = {}

            rr_before = _counter_value(run, "sketch.rr_sets")
            with run.span("bench.ris", preset=name) as ris_span:
                ris_sel = ris_influence_maximization(
                    probabilities, num_seeds, epsilon=epsilon, seed=seed
                )
            rr_sets = _counter_value(run, "sketch.rr_sets") - rr_before
            repeat = ris_influence_maximization(
                probabilities, num_seeds, epsilon=epsilon, seed=seed
            )
            if repeat.seeds != ris_sel.seeds:
                raise AssertionError(
                    f"RIS selection not deterministic on {name}: "
                    f"{ris_sel.seeds} vs {repeat.seeds}"
                )
            methods["ris"] = {
                "selection_seconds": ris_span.duration,
                "rr_generate_seconds": _span_seconds(ris_span, "sketch.generate"),
                "celf_seconds": _span_seconds(ris_span, "sketch.select"),
                "internal_estimate": ris_sel.expected_spread,
                "rr_sets": rr_sets,
                "seeds": [int(s) for s in ris_sel.seeds],
                **_evaluate(
                    probabilities, ris_sel.seeds, eval_runs, curve_runs, eval_seed
                ),
            }

            presets[name] = {
                "num_users": graph.num_nodes,
                "num_edges": graph.num_edges,
                "methods": methods,
            }
    run.write(MANIFEST_PATH)

    return {
        "num_seeds": num_seeds,
        "seed": seed,
        "eval_runs": eval_runs,
        "curve_runs": curve_runs,
        "epsilon": epsilon,
        "presets": presets,
        "telemetry": {"manifest": MANIFEST_PATH.name},
    }


def write_report(results: dict, path: Path = REPORT_PATH) -> None:
    """Persist the selection measurements next to the repository root."""
    path.write_text(json.dumps(results, indent=2) + "\n")


def print_report(results: dict) -> None:
    """Human-readable summary of one measurement."""
    for name, preset in results["presets"].items():
        print(
            f"\nInfluence maximisation — {name}"
            f"({preset['num_users']} users, {preset['num_edges']} edges),"
            f" k={results['num_seeds']}"
        )
        print(
            f"{'method':<12}{'select':>10}{'rr-gen':>10}{'celf':>10}"
            f"{'spread':>16}{'estimate':>10}"
        )
        for method, row in preset["methods"].items():
            print(
                f"{method:<12}{row['selection_seconds']:>9.3f}s"
                f"{row['rr_generate_seconds']:>9.3f}s"
                f"{row['celf_seconds']:>9.3f}s"
                f"{row['spread']:>10.2f} ± {row['spread_se']:4.2f}"
                f"{row['internal_estimate']:>10.2f}"
            )


def test_influence_max(benchmark):
    from conftest import run_once

    results = run_once(benchmark, run_influence_max, **SMOKE_PRESET)
    print_report(results)
    write_report(results)
    for name, preset in results["presets"].items():
        assert preset["methods"]["ris"]["rr_sets"] > 0, (name, preset)
    manifest = json.loads(MANIFEST_PATH.read_text())
    assert "sketch.rr_sets" in manifest["metrics"], manifest["metrics"].keys()
    assert any(s["name"] == "sketch.schedule" for s in manifest["spans"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI working point (small graphs, few MC runs)",
    )
    args = parser.parse_args()
    results = run_influence_max(**(SMOKE_PRESET if args.smoke else PRESET))
    print_report(results)
    write_report(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
