"""Benchmark — read-optimized serving layer latency and throughput.

Measures the blocked exact top-k engine behind
:class:`repro.serve.InfluenceService` at the ``digg_like`` working
point (2000 users): single-query and batched top-k, on both the block
scan path and the precomputed index path, plus the scan path under
concurrent load from a thread pool.  Query latency depends only on the
embedding *shapes*, never the trained values, so the store is built
from the paper initialisation instead of a multi-minute training run.

Reports p50/p99 latency and sustained QPS per workload into
``BENCH_serving.json`` at the repository root; service telemetry
(query counters, latency histograms, precompute spans) is routed
through :mod:`repro.obs` and persisted to
``BENCH_serving_manifest.json`` alongside it.  Every per-operation
latency is also fed into the ``bench.workload.seconds`` histogram, and
the final registry state is rendered to Prometheus text format at
``BENCH_serving_exposition.prom``, where ``histogram_quantile`` over
the ``_bucket`` series gives live percentiles.

Run standalone with ``python benchmarks/bench_serving.py`` (add
``--smoke`` for the fast CI working point) or under pytest-benchmark
with ``pytest benchmarks/bench_serving.py --benchmark-only``.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.ckpt.atomic import atomic_write_text
from repro.core.embeddings import InfluenceEmbedding
from repro.obs import RunRecorder, active_metrics, recording, render_prometheus
from repro.serve import DEFAULT_BLOCK_SIZE, EmbeddingStore, InfluenceService
from repro.serve.service import SERVE_LATENCY_BUCKETS

#: Acceptance working point: the digg_like preset at 2000 users.
PRESET = dict(num_users=2000, dim=32)
#: CI working point: same code paths, seconds instead of minutes.
SMOKE_PRESET = dict(num_users=300, dim=16)
BENCH_SEED = 20180416  # ICDE 2018 week, arbitrary but memorable
TOP_K = 10
BATCH_SIZE = 64
CONCURRENCY = 8

REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"
MANIFEST_PATH = REPORT_PATH.with_name("BENCH_serving_manifest.json")
EXPOSITION_PATH = REPORT_PATH.with_name("BENCH_serving_exposition.prom")


def _percentile(latencies: list[float], q: float) -> float:
    """Linear-interpolated percentile of per-operation latencies."""
    return float(np.percentile(np.asarray(latencies), q))


def _summarize(latencies: list[float], wall: float, queries_per_op: int) -> dict:
    """p50/p99 per-operation latency plus sustained queries-per-second."""
    return {
        "operations": len(latencies),
        "queries": len(latencies) * queries_per_op,
        "p50_ms": _percentile(latencies, 50) * 1e3,
        "p99_ms": _percentile(latencies, 99) * 1e3,
        "qps": len(latencies) * queries_per_op / wall,
    }


def _record_workload(workload: str, latencies: list[float]) -> None:
    """Feed the per-operation latencies into ``bench.workload.seconds``."""
    active_metrics().histogram(
        "bench.workload.seconds",
        SERVE_LATENCY_BUCKETS,
        "per-operation benchmark latency",
    ).observe_many(latencies, workload=workload)


def _time_loop(op, operands) -> tuple[list[float], float]:
    """Run ``op`` once per operand, returning latencies and wall time."""
    latencies = []
    start = time.perf_counter()
    for operand in operands:
        began = time.perf_counter()
        op(operand)
        latencies.append(time.perf_counter() - began)
    return latencies, time.perf_counter() - start


def _time_concurrent(op, operands, workers: int) -> tuple[list[float], float]:
    """Issue one ``op`` per operand from a pool of ``workers`` threads."""

    def timed_op(operand) -> float:
        began = time.perf_counter()
        op(operand)
        return time.perf_counter() - began

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        latencies = list(pool.map(timed_op, operands))
    return latencies, time.perf_counter() - start


def run_serving(
    num_users: int = PRESET["num_users"],
    dim: int = PRESET["dim"],
    seed: int = BENCH_SEED,
    num_queries: int = 400,
    num_batches: int = 30,
    top_k: int = TOP_K,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> dict:
    """Measure serving latency/QPS across the query paths."""
    rng = np.random.default_rng(seed)
    embedding = InfluenceEmbedding.initialize(num_users, dim, seed=seed)

    run = RunRecorder(name="bench.serving")
    run.set_config(
        {
            "num_users": num_users,
            "dim": dim,
            "top_k": top_k,
            "block_size": block_size,
            "batch_size": BATCH_SIZE,
            "concurrency": CONCURRENCY,
        }
    )
    run.set_dataset(preset="digg_like", num_users=num_users)
    run.annotate(seed=seed)

    users = rng.integers(0, num_users, size=num_queries)
    batches = [
        rng.integers(0, num_users, size=BATCH_SIZE) for _ in range(num_batches)
    ]

    workloads: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench_serving_") as tmp:
        store_dir = Path(tmp) / "store"
        with recording(run):
            began = time.perf_counter()
            EmbeddingStore.save(embedding, store_dir)
            store_build_seconds = time.perf_counter() - began
            service = InfluenceService.open(store_dir, block_size=block_size)

            def single(user) -> None:
                service.top_influenced(int(user), top_k)

            def batched(batch) -> None:
                service.top_influenced_batch([int(u) for u in batch], top_k)

            # Warm the page cache and the BLAS-free kernel before timing.
            single(users[0])
            batched(batches[0])

            def measure(workload, timed, queries_per_op) -> None:
                latencies, wall = timed
                workloads[workload] = _summarize(
                    latencies, wall, queries_per_op=queries_per_op
                )
                _record_workload(workload, latencies)

            measure("single_scan", _time_loop(single, users), 1)
            measure("batched_scan", _time_loop(batched, batches), BATCH_SIZE)
            measure(
                "single_scan_concurrent",
                _time_concurrent(single, users, CONCURRENCY),
                1,
            )

            began = time.perf_counter()
            service.precompute(k=top_k, directions=("influenced",))
            precompute_seconds = time.perf_counter() - began

            measure("single_index", _time_loop(single, users), 1)
            measure("batched_index", _time_loop(batched, batches), BATCH_SIZE)
    write_manifest(run)
    write_exposition(run)

    return {
        "preset": "digg_like",
        "num_users": num_users,
        "dim": dim,
        "seed": seed,
        "top_k": top_k,
        "block_size": block_size,
        "batch_size": BATCH_SIZE,
        "concurrency": CONCURRENCY,
        "store_build_seconds": store_build_seconds,
        "precompute_seconds": precompute_seconds,
        "workloads": workloads,
        "telemetry": {
            "manifest": MANIFEST_PATH.name,
            "exposition": EXPOSITION_PATH.name,
        },
    }


def write_report(results: dict, path: Path = REPORT_PATH) -> None:
    """Persist the latency/QPS measurements next to the repository root."""
    path.write_text(json.dumps(results, indent=2) + "\n")


def write_manifest(run: RunRecorder, path: Path = MANIFEST_PATH) -> None:
    """Persist the telemetry run manifest beside the latency report."""
    run.write(path)


def write_exposition(run: RunRecorder, path: Path = EXPOSITION_PATH) -> None:
    """Render the final registry state as Prometheus text format."""
    atomic_write_text(path, render_prometheus(run.metrics.snapshot()))


def print_report(results: dict) -> None:
    """Human-readable summary of one measurement."""
    print(
        f"\nServing latency — digg_like(num_users={results['num_users']}),"
        f" K={results['dim']}, top-{results['top_k']}"
    )
    print(f"{'workload':<24}{'p50':>10}{'p99':>10}{'qps':>12}")
    for name, row in results["workloads"].items():
        print(
            f"{name:<24}{row['p50_ms']:>8.3f}ms{row['p99_ms']:>8.3f}ms"
            f"{row['qps']:>12,.0f}"
        )


def test_serving_latency(benchmark):
    from conftest import run_once

    results = run_once(benchmark, run_serving)
    print_report(results)
    write_report(results)
    # Regression guards: the scan path must stay well under the old
    # dense (N, N) materialisation cost, and the precomputed index must
    # not be slower than scanning.
    assert results["workloads"]["single_scan"]["p99_ms"] < 250.0, results
    assert (
        results["workloads"]["single_index"]["p50_ms"]
        <= results["workloads"]["single_scan"]["p50_ms"]
    ), results
    manifest = json.loads(MANIFEST_PATH.read_text())
    assert "serve.queries" in manifest["metrics"], manifest["metrics"].keys()
    assert "bench.workload.seconds" in manifest["metrics"]
    assert any(
        s["name"] == "serve.precompute.influenced" for s in manifest["spans"]
    )
    assert EXPOSITION_PATH.is_file()
    assert "bench_workload_seconds" in EXPOSITION_PATH.read_text()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI working point (small store, few queries)",
    )
    args = parser.parse_args()
    if args.smoke:
        results = run_serving(
            num_users=SMOKE_PRESET["num_users"],
            dim=SMOKE_PRESET["dim"],
            num_queries=50,
            num_batches=5,
        )
    else:
        results = run_serving()
    print_report(results)
    write_report(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
