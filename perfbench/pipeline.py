"""One run of the pipeline benchmark on one workload.

A run makes its inputs from the seed (set-up, repeated
``spec.SETUP_REPEATS`` times), then runs the pipeline

    Algorithm 1 contexts + SGD epochs -> store build -> top-k precompute
    -> closed-loop queries -> calibration + RIS seed selection

followed by an open-loop query phase of ``seconds`` seconds and the
output checks.  Each layer is timed from outside, around the public
calls the benchmark makes; nothing under ``src/`` is instrumented for
it.  An untraced run reports the end-to-end metrics.  A traced run
runs the pipeline untraced once more for comparison, then again inside
``repro.obs.recording`` and reports the per-layer metrics.
"""

from __future__ import annotations

import math
import queue
import resource
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.apps import embedding_edge_probabilities, ris_influence_maximization
from repro.core import EmbeddingPredictor
from repro.core.context import ContextConfig
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.data.actionlog import ActionLog
from repro.data.synthetic import SyntheticSocialDataset
from repro.diffusion import spread_with_standard_error
from repro.errors import ServingError
from repro.eval import evaluate_activation
from repro.obs import RunRecorder, recording
from repro.parallel import HogwildTrainer
from repro.serve import EmbeddingStore, InfluenceService

import checks
import layers
import spec


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Probe:
    """Times the benchmark's calls into each layer; spans them when tracing."""

    def __init__(self, run: RunRecorder | None = None):
        self.run = run
        self.seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str, **attributes: object):
        span = self.run.span(name, **attributes) if self.run else nullcontext()
        with span:
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


@dataclass
class Inputs:
    """Everything a run derives from its seed before the pipeline starts."""

    dataset: SyntheticSocialDataset
    train: ActionLog
    test: ActionLog
    index_users: list[int]
    scan_users: list[int]
    batch_users: list[np.ndarray]
    check_users: list[int]
    open_users: np.ndarray
    #: Due time of each open-loop request, seconds after the phase starts.
    open_due: np.ndarray
    generate_seconds: float


def make_inputs(workload: spec.Workload, seed: int, seconds: float, probe: Probe) -> Inputs:
    """Synthetic data, the 80/20 episode split, and the query streams."""
    maker = getattr(SyntheticSocialDataset, workload.preset)
    start = time.perf_counter()
    with probe.stage("data.generate"):
        dataset = maker(
            num_users=workload.num_users, num_items=workload.num_items, seed=seed
        )
    generate_seconds = time.perf_counter() - start
    train, test = dataset.log.split(
        (spec.TRAIN_FRACTION, 1.0 - spec.TRAIN_FRACTION), seed=seed
    )
    rng = np.random.default_rng([seed, 1])
    n = workload.num_users
    gaps = rng.exponential(
        1.0 / workload.open_qps, size=int(workload.open_qps * seconds * 1.5) + 16
    )
    due = np.cumsum(gaps)
    due = due[due < seconds]
    return Inputs(
        dataset=dataset,
        train=train,
        test=test,
        index_users=rng.integers(0, n, size=workload.index_queries).tolist(),
        scan_users=rng.integers(0, n, size=workload.scan_queries).tolist(),
        batch_users=list(
            rng.integers(0, n, size=(workload.batches, spec.BATCH_USERS))
        ),
        check_users=rng.choice(n, size=min(spec.CHECK_USERS, n), replace=False).tolist(),
        open_users=rng.integers(0, n, size=due.shape[0]),
        open_due=due,
        generate_seconds=generate_seconds,
    )


def closed_loop(call, operands, k: int, weight: int = 1) -> tuple[np.ndarray, int]:
    """Latency of each ``call(operand, k)``, one client, back to back.

    Returns the latencies in seconds and the number of queries the
    service rejected, ``weight`` per rejected call (a batch call holds
    ``BATCH_USERS`` queries); a rejected call's latency counts too.
    """
    latencies = np.empty(len(operands))
    failed = 0
    clock = time.perf_counter
    for i, operand in enumerate(operands):
        start = clock()
        try:
            call(operand, k)
        except ServingError:
            failed += weight
        latencies[i] = clock() - start
    return latencies, failed


@dataclass
class Pipeline:
    """What one pass of the pipeline produced."""

    workload: spec.Workload
    model: Inf2vecModel
    service: InfluenceService
    probabilities: object
    selection: object
    #: Per-call latencies in seconds, one array per round of each phase.
    latencies: dict[str, list[np.ndarray]]
    failed: int
    seconds: dict[str, float]
    store_dir: Path

    @property
    def attempted(self) -> int:
        calls = {phase: sum(map(len, rounds)) for phase, rounds in self.latencies.items()}
        return calls["index"] + calls["scan"] + calls["batch"] * spec.BATCH_USERS

    def percentile(self, phase: str, q: float) -> float:
        """``q``-th percentile of a phase's latencies over all rounds, seconds."""
        return float(np.percentile(np.concatenate(self.latencies[phase]), q))


def run_pipeline(
    workload: spec.Workload,
    inputs: Inputs,
    seed: int,
    probe: Probe,
    store_dir: Path,
) -> Pipeline:
    """First training call to last seed returned, each layer call timed."""
    graph = inputs.dataset.graph
    # A fresh log object: the episode-network cache is keyed by log
    # identity, and every pass must pay for its own contexts.
    train_log = ActionLog(inputs.train.episodes, inputs.train.num_users)
    config = Inf2vecConfig(
        dim=spec.DIM,
        epochs=workload.epochs,
        context=ContextConfig(length=spec.CONTEXT_LENGTH, alpha=spec.CONTEXT_ALPHA),
    )
    latencies: dict[str, list[np.ndarray]] = {}
    failed = 0
    with probe.stage("pipeline"):
        with probe.stage("train", workers=workload.workers):
            if workload.workers > 1:
                model = HogwildTrainer(
                    config, workers=workload.workers, seed=seed
                ).fit(graph, train_log)
            else:
                model = Inf2vecModel(config, seed=seed).fit(graph, train_log)
        with probe.stage("store.save"):
            EmbeddingStore.save(model.embedding, store_dir)
        with probe.stage("store.open"):
            service = InfluenceService.open(store_dir)
        with probe.stage("serve.precompute"):
            service.precompute(spec.TOP_K)
        phases = (
            ("index", service.top_influenced, inputs.index_users, spec.TOP_K, 1),
            ("scan", service.top_influenced, inputs.scan_users, spec.SCAN_K, 1),
            ("batch", service.top_influenced_batch, inputs.batch_users, spec.TOP_K,
             spec.BATCH_USERS),
        )
        with probe.stage("query.warmup"):
            for _, call, operands, k, _ in phases:
                closed_loop(call, operands[: len(operands) // 20], k)
        # Rounds interleave the phases, so a stall of the host lands in
        # one round of each phase rather than in all of one phase.
        for r in range(spec.QUERY_ROUNDS):
            for phase, call, operands, k, weight in phases:
                size = len(operands) // spec.QUERY_ROUNDS
                with probe.stage(f"query.{phase}"):
                    times, phase_failed = closed_loop(
                        call, operands[r * size : (r + 1) * size], k, weight
                    )
                latencies.setdefault(phase, []).append(times)
                failed += phase_failed
        with probe.stage("calibrate"):
            probabilities = embedding_edge_probabilities(model.embedding, graph)
        with probe.stage("ris"):
            selection = ris_influence_maximization(
                probabilities, workload.num_seeds, epsilon=workload.epsilon, seed=seed
            )
    return Pipeline(
        workload=workload,
        model=model,
        service=service,
        probabilities=probabilities,
        selection=selection,
        latencies=latencies,
        failed=failed,
        seconds=dict(probe.seconds),
        store_dir=store_dir,
    )


@dataclass
class OpenLoop:
    """Per-request timings of the open-loop phase, in seconds."""

    latency: np.ndarray
    queue_wait: np.ndarray
    service_time: np.ndarray
    lateness: np.ndarray
    #: Due offset of each completed request, seconds after the start.
    due: np.ndarray
    failed: int
    duration: float

    def window_p50(self) -> float:
        """Median over one-second windows of each window's p50 latency.

        A stall of the host then moves one window, not the whole figure.
        """
        windows = np.floor(self.due).astype(np.int64)
        return float(
            np.median(
                [np.percentile(self.latency[windows == w], 50) for w in np.unique(windows)]
            )
        )


def open_loop(service: InfluenceService, users: np.ndarray, due: np.ndarray) -> OpenLoop:
    """Poisson arrivals on the scan path, served by ``OPEN_THREADS`` threads.

    One dispatcher hands each request to the serving threads at its due
    time, however far behind they are; latency runs from the due time,
    so a stall also counts against every request queued behind it.
    """
    count = due.shape[0]
    started = np.full(count, np.nan)
    finished = np.full(count, np.nan)
    failures = [0] * spec.OPEN_THREADS
    requests: queue.SimpleQueue = queue.SimpleQueue()
    user_ids = users.tolist()

    def serve(slot: int) -> None:
        clock = time.perf_counter
        while (i := requests.get()) is not None:
            started[i] = clock()
            try:
                service.top_influenced(user_ids[i], spec.SCAN_K)
            except ServingError:
                failures[slot] += 1
            finished[i] = clock()

    threads = [
        threading.Thread(target=serve, args=(slot,), name=f"open-loop-{slot}")
        for slot in range(spec.OPEN_THREADS)
    ]
    for thread in threads:
        thread.start()
    lateness = np.empty(count)
    origin = time.perf_counter() + 0.01
    try:
        for i in range(count):
            target = origin + due[i]
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness[i] = time.perf_counter() - target
            requests.put(i)
    finally:
        for _ in threads:
            requests.put(None)
        for thread in threads:
            thread.join(timeout=120.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("open-loop serving threads did not stop")
    due_at = origin + due
    done = ~np.isnan(finished)
    return OpenLoop(
        latency=finished[done] - due_at[done],
        queue_wait=started[done] - due_at[done],
        service_time=finished[done] - started[done],
        lateness=lateness,
        due=due[done],
        failed=sum(failures) + int(count - done.sum()),
        duration=float(np.nanmax(finished) - origin) if done.any() else 0.0,
    )


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, float | str]]
    #: Figures printed beside the metrics but not part of the result.
    reported: dict[str, dict[str, float | str]]

    def payload(self) -> dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _percentile(values: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale


def _setup(workload, seed, seconds, probe) -> tuple[Inputs, float, float]:
    """Repeat the set-up; return the last inputs and the median timings."""
    totals, generates = [], []
    for _ in range(spec.SETUP_REPEATS):
        start = time.perf_counter()
        inputs = make_inputs(workload, seed, seconds, probe)
        totals.append(time.perf_counter() - start)
        generates.append(inputs.generate_seconds)
    return inputs, statistics.median(totals), statistics.median(generates)


def _checks(pipeline: Pipeline, inputs: Inputs, probe: Probe) -> tuple[float, float]:
    """Run every output check; return the AUC and the seeds' planted spread.

    The margin over the out-degree baseline is checked under the
    calibrated probabilities, the objective RIS optimised.  The reported
    spread is simulated under the dataset's planted probabilities, so a
    model is graded against the ground truth, not against itself.
    """
    workload = pipeline.workload
    seeds = pipeline.selection.seeds
    checks.check_topk(pipeline.service, inputs.check_users, spec.TOP_K, spec.SCAN_K)
    checks.check_seeds(seeds, workload.num_seeds, workload.num_users)
    with probe.stage("check.mc"):
        checks.check_spread(pipeline.probabilities, seeds)
        planted, _ = spread_with_standard_error(
            inputs.dataset.planted.edge_probabilities, list(seeds),
            num_runs=spec.MC_RUNS, seed=spec.MC_SEED,
        )
    with probe.stage("check.activation"):
        auc = evaluate_activation(
            EmbeddingPredictor(pipeline.model.embedding),
            inputs.dataset.graph,
            inputs.test,
        ).auc
    checks.check_training(
        pipeline.model.loss_history, pipeline.model.config.num_negatives, auc
    )
    return auc, planted


def _timings(pipeline: Pipeline) -> dict[str, float]:
    """``pipeline_s`` and the stage figures (``spec.STAGE_FIGURES``)."""
    seconds = pipeline.seconds
    return {
        "pipeline_s": seconds["pipeline"],
        "fit_s": seconds["train"],
        "index_build_s": seconds["store.save"] + seconds["serve.precompute"],
        "index_p50_us": pipeline.percentile("index", 50) * 1e6,
        "index_p99_us": pipeline.percentile("index", 99) * 1e6,
        "scan_p50_us": pipeline.percentile("scan", 50) * 1e6,
        "scan_p99_us": pipeline.percentile("scan", 99) * 1e6,
        "batch_qps": spec.BATCH_USERS / pipeline.percentile("batch", 50),
        "seed_select_s": seconds["calibrate"] + seconds["ris"],
    }


def _end_to_end(pipeline_s, setup_s, auc, spread, rss_mb, attempted,
                failed) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
        "activation_auc": auc,
        "seed_spread": spread,
        "peak_rss_mb": rss_mb,
        "query_ok_share": 1.0 - failed / attempted,
    }


def _per_layer(pipeline, inputs, run, probe, open_result, direct, untraced_s,
               generate_s) -> dict[str, float]:
    workload = pipeline.workload
    seconds = pipeline.seconds
    snapshot = run.metrics.snapshot()
    root = next(span for span in run.tracer.roots if span.name == "pipeline")
    train_span = layers.spans_named(root, "train")[0]
    ris_span = layers.spans_named(root, "ris")[0]
    n = workload.num_users
    # The direct calls replayed the first round's user streams.
    index_us = float(np.median(pipeline.latencies["index"][0])) * 1e6
    scan_us = float(np.median(pipeline.latencies["scan"][0])) * 1e6
    serve_s = sum(
        seconds[name]
        for name in ("store.save", "store.open", "serve.precompute", "query.warmup",
                     "query.index", "query.scan", "query.batch")
    )
    return {
        **_timings(pipeline),
        "data.generate_s": generate_s,
        "data.edges": float(inputs.dataset.graph.num_edges),
        "data.actions": float(inputs.dataset.log.num_actions),
        **layers.training_metrics(
            train_span, snapshot, workload.workers,
            pipeline.model.config.num_negatives, pipeline.model.loss_history,
        ),
        "store.save_s": seconds["store.save"],
        "store.open_s": seconds["store.open"],
        "store.bytes": float(
            sum(p.stat().st_size for p in pipeline.store_dir.iterdir())
        ),
        "precompute_s": seconds["serve.precompute"],
        "precompute.rows_per_s": n / seconds["serve.precompute"],
        # Computed from shapes, not counted: one multiply-add per
        # augmented dimension for every (user, user) score.
        "topk.kernel_flops": 2.0 * n * n * (spec.DIM + 2),
        "topk.scan_us": direct["scan"],
        "index.lookup_us": direct["index"],
        "service.index_overhead_us": index_us - direct["index"],
        "service.scan_overhead_us": scan_us - direct["scan"],
        "service.queries.index": layers.counter_labelled(
            snapshot, "serve.queries", path="index"
        ),
        "service.queries.scan": layers.counter_labelled(
            snapshot, "serve.queries", path="scan"
        ),
        "open.offered_qps": workload.open_qps,
        "open.achieved_qps": open_result.latency.shape[0] / open_result.duration,
        "open.requests": float(open_result.lateness.shape[0]),
        "open.p50_ms": open_result.window_p50() * 1e3,
        "open.p99_ms": _percentile(open_result.latency, 99, 1e3),
        "open.late_p99_ms": _percentile(open_result.lateness, 99, 1e3),
        "open.queue_wait_p50_ms": _percentile(open_result.queue_wait, 50, 1e3),
        "open.service_p50_ms": _percentile(open_result.service_time, 50, 1e3),
        "calibrate_s": seconds["calibrate"],
        **layers.sketch_metrics(ris_span, snapshot, workload.num_seeds),
        "mc.referee_s": probe.seconds["check.mc"],
        # Seeds and baseline under the calibrated probabilities, seeds
        # under the planted ones.
        "mc.simulations": 3.0 * spec.MC_RUNS,
        "eval.activation_s": probe.seconds["check.activation"],
        "trace.overhead_frac": seconds["pipeline"] / untraced_s - 1.0,
        "trace.unattributed_frac": layers.self_seconds(root) / root.duration,
        "share.fit": seconds["train"] / seconds["pipeline"],
        "share.serve": serve_s / seconds["pipeline"],
        "share.seed": (seconds["calibrate"] + seconds["ris"]) / seconds["pipeline"],
    }


def _direct_latencies(pipeline: Pipeline, inputs: Inputs) -> dict[str, float]:
    """Median µs of the index lookup and the scan kernel, called directly.

    They replay the first round's user streams through the service's
    own ``indices`` and ``engine``; the difference from the service's
    median on that round is validation, routing and telemetry.
    """
    rounds = spec.QUERY_ROUNDS
    index_users = inputs.index_users[: len(inputs.index_users) // rounds]
    scan_users = inputs.scan_users[: len(inputs.scan_users) // rounds]
    lookup, _ = closed_loop(
        pipeline.service.indices["influenced"].query, index_users, spec.TOP_K
    )
    scan, _ = closed_loop(
        pipeline.service.engine.top_influenced, scan_users, spec.SCAN_K
    )
    return {
        "index": float(np.median(lookup)) * 1e6,
        "scan": float(np.median(scan)) * 1e6,
    }


def _with_units(values: dict[str, float], table) -> dict[str, dict[str, object]]:
    return {
        metric.name: {"value": float(values[metric.name]), "unit": metric.unit}
        for metric in table
    }


def run_workload(
    workload: spec.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    host: dict[str, object] | None = None,
) -> RunResult:
    """One benchmark run; raises :class:`checks.CheckFailed` on bad output."""
    workdir.mkdir(parents=True, exist_ok=True)
    run = RunRecorder(name=f"perfbench.{workload.name}") if trace else None
    probe = Probe(run)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=workdir))
    try:
        with recording(run) if run else nullcontext():
            with probe.stage("setup"):
                inputs, setup_s, generate_s = _setup(workload, seed, seconds, probe)
        untraced_s = 0.0
        if trace:
            # Warm the code paths with a toy pass, then time the untraced
            # pass that the recording overhead is measured against.
            tiny = workload.tiny()
            for name, pass_workload, pass_inputs in (
                ("warmup", tiny, make_inputs(tiny, seed, 0.1, Probe())),
                ("untraced", workload, inputs),
            ):
                (scratch / name).mkdir()
                untraced_s = run_pipeline(
                    pass_workload, pass_inputs, seed, Probe(), scratch / name
                ).seconds["pipeline"]
        (scratch / "store").mkdir()
        with recording(run) if run else nullcontext():
            pipeline = run_pipeline(workload, inputs, seed, probe, scratch / "store")
            direct = _direct_latencies(pipeline, inputs) if trace else {}
            with probe.stage("open"):
                open_result = open_loop(
                    pipeline.service, inputs.open_users, inputs.open_due
                )
        # Read before the checks, whose simulators are not the pipeline's.
        rss_mb = peak_rss_mb()
        # The checks run outside the recording scope: they are not layers
        # of the pipeline, and instrumented simulators would slow them.
        auc, spread = _checks(pipeline, inputs, probe)
        attempted = pipeline.attempted + open_result.lateness.shape[0]
        failed = pipeline.failed + open_result.failed
        if trace:
            values = _per_layer(
                pipeline, inputs, run, probe, open_result, direct, untraced_s,
                generate_s,
            )
            table = spec.PER_LAYER
            root = next(s for s in run.tracer.roots if s.name == "pipeline")
            run.annotate(
                workload=workload.name,
                seed=seed,
                host=host or {},
                layer_self_seconds=layers.layer_self_seconds(root),
            )
            traces = workdir / "traces"
            traces.mkdir(exist_ok=True)
            stem = f"{workload.name}-seed{seed}"
            run.write(traces / f"{stem}.manifest.json")
            run.write_trace(traces / f"{stem}.trace.jsonl")
            extra = {}
        else:
            timings = _timings(pipeline)
            values = _end_to_end(
                timings["pipeline_s"], setup_s, auc, spread, rss_mb, attempted, failed
            )
            table = spec.END_TO_END
            extra = _with_units(timings, spec.STAGE_FIGURES)
        bad = [name for name, v in values.items() if not math.isfinite(v)]
        if bad:
            raise checks.CheckFailed(f"non-finite metrics: {bad}")
        return RunResult(
            correct=True,
            attempted=attempted,
            failed=failed,
            metrics=_with_units(values, table),
            reported=extra,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
