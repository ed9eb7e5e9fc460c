"""Workloads and metrics of the pipeline benchmark.

These tables are the single source of truth: ``BENCHMARK.json`` at the
repository root mirrors them (``benchmark_json()`` renders it), and the
smoke test asserts that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Settings shared by every workload.
DIM = 32
CONTEXT_LENGTH = 50
CONTEXT_ALPHA = 0.1
TRAIN_FRACTION = 0.8
TOP_K = 10
#: Deeper than the precomputed index, so these queries take the scan path.
SCAN_K = 2 * TOP_K
BATCH_USERS = 64
#: Serving threads of the open-loop phase, fed by one dispatcher.
OPEN_THREADS = 2
#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Interleaved rounds of the closed-loop query phases.
QUERY_ROUNDS = 3
MC_RUNS = 1000
MC_SEED = 20180416
#: Users whose index and scan answers are compared with a dense reference.
CHECK_USERS = 16
#: The seed set must beat the top out-degree users by this many
#: combined standard errors of the two Monte-Carlo estimates.
MIN_MARGIN_SE = 4.0
#: Held-out activation AUC must beat chance.
MIN_AUC = 0.5
RUN_SECONDS = 3


@dataclass(frozen=True)
class Workload:
    """One set of inputs to the pipeline."""

    name: str
    preset: str
    num_users: int
    num_items: int
    epochs: int
    workers: int
    num_seeds: int
    epsilon: float
    open_qps: float
    why: str
    #: Closed-loop calls: enough that each p99 has ten samples beyond it,
    #: few enough that queries stay a minor share of a 2K workload.
    index_queries: int = 10000
    scan_queries: int = 1500
    batches: int = 400

    def tiny(self) -> "Workload":
        """The same workload at smoke-test size: seconds, not minutes."""
        return replace(
            self,
            num_users=400,
            num_items=40,
            epochs=min(self.epochs, 2),
            num_seeds=min(self.num_seeds, 5),
            epsilon=0.5,
            open_qps=200.0,
            index_queries=500,
            scan_queries=100,
            batches=20,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "digg-2k", "digg_like", 2000, 300, epochs=5, workers=1,
            num_seeds=10, epsilon=0.2, open_qps=600.0,
            why="the preset of every earlier BENCH file: five epochs of "
            "single-worker SGD, then RIS on small RR sets",
        ),
        Workload(
            "serve-6k", "digg_like", 6000, 80, epochs=1, workers=1,
            num_seeds=20, epsilon=0.35, open_qps=150.0, scan_queries=4500,
            why="a wide universe with a sparse log: store build, top-k "
            "precompute and 4,500 scans over 6,000 users; index writes beside reads",
        ),
        Workload(
            "im-flickr-2k", "flickr_like", 2000, 250, epochs=2, workers=2,
            num_seeds=50, epsilon=0.2, open_qps=600.0,
            why="k=50 RIS on many RR sets of hundreds of nodes, the opposite "
            "sketch regime to digg-2k; trains with two hogwild workers",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen; ``None`` for per-layer metrics, which have no bound.
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("pipeline_s", "s", "lower", 0.25),
    Metric("activation_auc", "1", "higher", 0.15),
    Metric("seed_spread", "nodes", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("query_ok_share", "1", "higher", 0.01),
)

#: Stage times and closed-loop query figures.  A user sees them, but on a
#: shared 2-vCPU host their spread over ten runs reached 0.3 to 0.55 of
#: the median, beyond any bound the gate allows; they are reported, not
#: gated (untraced beside the end-to-end metrics, traced as per-layer).
STAGE_FIGURES = (
    Metric("fit_s", "s", "lower"),
    Metric("index_build_s", "s", "lower"),
    Metric("index_p50_us", "us", "lower"),
    Metric("index_p99_us", "us", "lower"),
    Metric("scan_p50_us", "us", "lower"),
    Metric("scan_p99_us", "us", "lower"),
    Metric("batch_qps", "1/s", "higher"),
    Metric("seed_select_s", "s", "lower"),
)

PER_LAYER = STAGE_FIGURES + (
    # repro.data.synthetic
    Metric("data.generate_s", "s", "lower"),
    Metric("data.edges", "count", "higher"),
    Metric("data.actions", "count", "higher"),
    # repro.core.context
    Metric("context.generate_s", "s", "lower"),
    Metric("context.tuples", "count", "higher"),
    Metric("context.walk_steps", "count", "higher"),
    Metric("context.cache_hit_ratio", "1", "higher"),
    # repro.core.inf2vec, repro.core.negative
    Metric("sgd.epoch_s", "s", "lower"),
    Metric("sgd.examples_per_s", "1/s", "higher"),
    Metric("sgd.positives", "count", "higher"),
    Metric("sgd.final_loss", "1", "lower"),
    Metric("negatives.collision_ratio", "1", "lower"),
    Metric("negatives.resample_rounds", "count", "lower"),
    Metric("sgd.clip_rows", "count", "lower"),
    # repro.parallel (in-process training counts as one worker)
    Metric("hogwild.epoch_s", "s", "lower"),
    Metric("hogwild.worker_epoch_s", "s", "lower"),
    Metric("hogwild.barrier_wait_s", "s", "lower"),
    Metric("hogwild.worker_balance", "1", "higher"),
    # repro.serve.store
    Metric("store.save_s", "s", "lower"),
    Metric("store.open_s", "s", "lower"),
    Metric("store.bytes", "B", "lower"),
    # repro.serve.topk, repro.serve.index
    Metric("precompute_s", "s", "lower"),
    Metric("precompute.rows_per_s", "1/s", "higher"),
    Metric("topk.kernel_flops", "flop", "lower"),
    Metric("topk.scan_us", "us", "lower"),
    Metric("index.lookup_us", "us", "lower"),
    # repro.serve.service
    Metric("service.index_overhead_us", "us", "lower"),
    Metric("service.scan_overhead_us", "us", "lower"),
    Metric("service.queries.index", "count", "higher"),
    Metric("service.queries.scan", "count", "higher"),
    # open-loop driver
    Metric("open.offered_qps", "1/s", "higher"),
    Metric("open.achieved_qps", "1/s", "higher"),
    Metric("open.requests", "count", "higher"),
    # Moved from the end-to-end list: not steady on a shared 2-core host.
    Metric("open.p50_ms", "ms", "lower"),
    Metric("open.p99_ms", "ms", "lower"),
    Metric("open.late_p99_ms", "ms", "lower"),
    Metric("open.queue_wait_p50_ms", "ms", "lower"),
    Metric("open.service_p50_ms", "ms", "lower"),
    # repro.apps.influence_max
    Metric("calibrate_s", "s", "lower"),
    # repro.sketch
    Metric("rr.generate_s", "s", "lower"),
    Metric("rr.sets", "count", "lower"),
    Metric("rr.nodes", "count", "lower"),
    Metric("rr.mean_size", "nodes", "lower"),
    Metric("rr.nodes_per_s", "1/s", "higher"),
    Metric("schedule.self_s", "s", "lower"),
    Metric("schedule.capped", "count", "lower"),
    Metric("celf.select_s", "s", "lower"),
    Metric("celf.lazy_evals", "count", "lower"),
    Metric("celf.evals_per_seed", "1", "lower"),
    # repro.diffusion.montecarlo, repro.eval (output checks)
    Metric("mc.referee_s", "s", "lower"),
    Metric("mc.simulations", "count", "higher"),
    Metric("eval.activation_s", "s", "lower"),
    # repro.obs and the stage shares of the traced pipeline_s
    Metric("trace.overhead_frac", "1", "lower"),
    Metric("trace.unattributed_frac", "1", "lower"),
    Metric("share.fit", "1", "lower"),
    Metric("share.serve", "1", "lower"),
    Metric("share.seed", "1", "lower"),
)


def benchmark_json() -> dict[str, object]:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
