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

The planted tables give RR sets of a few dozen nodes, which RR
generation keeps on the calling thread.  The ``rr_threads`` row covers
the regime where it runs threaded: ``flickr_like`` under a constant
edge probability of 0.05 (no training), whose sets average about 500
nodes at 2000 users.  It selects ``k = 50`` seeds repeatedly, with the
process pinned to one core and on every core it may use, in
alternating order, and reports each run's ``rr_generate_seconds``
plus the pool's set and member counts.  Both must pick the same seeds.

Run standalone with ``python benchmarks/bench_influence_max.py`` (add
``--smoke`` for the fast CI working point) or under pytest-benchmark
with ``pytest benchmarks/bench_influence_max.py --benchmark-only``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.apps.influence_max import ris_influence_maximization
from repro.data.synthetic import SyntheticSocialDataset
from repro.diffusion.montecarlo import expected_spread, spread_with_standard_error
from repro.diffusion.probabilities import EdgeProbabilities
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

#: The ``rr_threads`` row: large RR sets, one core against all cores.
THREADS_PRESET = dict(num_users=2000, num_seeds=50, epsilon=0.2, repeats=3)
SMOKE_THREADS_PRESET = dict(num_users=300, num_seeds=5, epsilon=0.3, repeats=1)
#: Constant edge probability of the ``rr_threads`` row.
THREADS_PROBABILITY = 0.05

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


@contextmanager
def _one_core():
    """Pin this thread, and every thread it starts, to one core."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


def _rr_threads(
    run: RunRecorder, num_users: int, num_seeds: int, epsilon: float,
    repeats: int, seed: int,
) -> dict:
    """RR generation time on one core and on all, in alternating order."""
    dataset = SyntheticSocialDataset.flickr_like(num_users=num_users, seed=seed)
    probabilities = EdgeProbabilities.constant(dataset.graph, THREADS_PROBABILITY)
    seconds: dict[str, list[float]] = {"one_core": [], "all_cores": []}
    seed_sets = set()
    for repeat in range(repeats):
        order = ("one_core", "all_cores")
        for cores in order if repeat % 2 == 0 else order[::-1]:
            sets_before = _counter_value(run, "sketch.rr_sets")
            members_before = _counter_value(run, "sketch.rr_nodes")
            pinned = _one_core() if cores == "one_core" else nullcontext()
            with pinned, run.span("bench.rr_threads", cores=cores) as span:
                selection = ris_influence_maximization(
                    probabilities, num_seeds, epsilon=epsilon, seed=seed
                )
            seconds[cores].append(_span_seconds(span, "sketch.generate"))
            seed_sets.add(selection.seeds)
    if len(seed_sets) != 1:
        raise AssertionError(f"RIS seeds depend on the core count: {seed_sets}")
    rr_sets = _counter_value(run, "sketch.rr_sets") - sets_before
    rr_members = _counter_value(run, "sketch.rr_nodes") - members_before
    one, every = (statistics.median(seconds[c]) for c in ("one_core", "all_cores"))
    return {
        "dataset": "flickr_like",
        "num_users": dataset.graph.num_nodes,
        "num_edges": dataset.graph.num_edges,
        "probability": THREADS_PROBABILITY,
        "num_seeds": num_seeds,
        "epsilon": epsilon,
        "cores": len(os.sched_getaffinity(0)),
        "rr_sets": rr_sets,
        "rr_members": rr_members,
        "mean_set_size": rr_members / rr_sets,
        "rr_generate_seconds": seconds,
        "median_one_core_seconds": one,
        "median_all_cores_seconds": every,
        "speedup": one / every,
        "seeds": [int(s) for s in selection.seeds],
    }


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
    threads: dict = THREADS_PRESET,
) -> dict:
    """Time and evaluate RIS selection on both presets, then time RR
    generation on one core and on all (``threads`` sizes that row)."""
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
        rr_threads = _rr_threads(run, seed=seed, **threads)
    run.write(MANIFEST_PATH)

    return {
        "num_seeds": num_seeds,
        "seed": seed,
        "eval_runs": eval_runs,
        "curve_runs": curve_runs,
        "epsilon": epsilon,
        "presets": presets,
        "rr_threads": rr_threads,
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
    row = results["rr_threads"]
    print(
        f"\nRR generation — {row['dataset']} ({row['num_users']} users), "
        f"p={row['probability']}, k={row['num_seeds']}: {row['rr_sets']:.0f} "
        f"sets, {row['rr_members']:.0f} members ({row['mean_set_size']:.0f} "
        f"per set)"
    )
    print(
        f"rr-gen median {row['median_one_core_seconds']:.3f}s on one core, "
        f"{row['median_all_cores_seconds']:.3f}s on {row['cores']} "
        f"(speedup {row['speedup']:.2f})"
    )


def test_influence_max(benchmark):
    from conftest import run_once

    results = run_once(
        benchmark, run_influence_max, threads=SMOKE_THREADS_PRESET, **SMOKE_PRESET
    )
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
    if args.smoke:
        results = run_influence_max(threads=SMOKE_THREADS_PRESET, **SMOKE_PRESET)
    else:
        results = run_influence_max(**PRESET)
    print_report(results)
    write_report(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
