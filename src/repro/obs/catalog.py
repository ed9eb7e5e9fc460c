"""The telemetry catalog: every metric and span, declared once.

Each metric is a module-level handle declared here, once, with its
name, label set, help text and (for histograms) its bucket edges; an
instrument site imports its handle and calls it::

    SERVE_QUERIES.inc(direction=direction, path=path)

A misspelt handle is an ``ImportError``, a second declaration of a name
raises ``ValueError`` at import, and a handle has only its kind's
mutators.  Each handle records into whichever ``recording`` scope is
active when its event happens (see :mod:`repro.obs.run`).

Spans keep literal names at their sites; :data:`SPAN_CATALOG` declares
them with their attribute keys (``*`` names are families covering
f-string sites such as ``serve.batch.{direction}``).  The
``telemetry-contract`` rule reads the handle declarations and the span
catalog statically, so both stay plain literals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.run import counter, gauge, histogram

__all__ = ["SPAN_CATALOG", "SpanSpec"]

#: Latency edges in seconds: sub-millisecond index hits up to
#: multi-second cold full scans.
_LATENCY_SECONDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 5.0,
)
#: Node-set sizes: IC cascades and RR sets.
_SET_SIZES = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)

# -- counters ----------------------------------------------------------
CKPT_BYTES_WRITTEN = counter("ckpt.bytes_written", (), "total checkpoint bytes written")
CKPT_PRUNED = counter("ckpt.pruned", (), "checkpoints removed by retention")
CKPT_RESUMES = counter("ckpt.resumes", (), "training runs resumed from a checkpoint")
CKPT_SAVES = counter("ckpt.saves", (), "checkpoints written")
CONTEXTS_CACHE_HITS = counter("contexts.cache.hits", (), "episode-network cache hits")
CONTEXTS_CACHE_MISSES = counter("contexts.cache.misses", (), "episode-network cache rebuilds")
CONTEXTS_EPISODES = counter("contexts.episodes", (), "episodes processed")
CONTEXTS_TUPLES = counter("contexts.tuples", (), "(u, C_u^i) tuples generated")
CONTEXTS_WALK_DEAD_ENDS = counter("contexts.walk.dead_ends", (), "forced restarts at successor-less nodes")
CONTEXTS_WALK_RESTARTS = counter("contexts.walk.restarts", (), "probabilistic jumps back to the start")
CONTEXTS_WALK_STEPS = counter("contexts.walk.steps", (), "recorded walk steps")
DIFFUSION_IC_SIMULATIONS = counter("diffusion.ic.simulations", (), "IC cascade simulations run")
NEGATIVES_COLLISIONS = counter("negatives.collisions", (), "negatives initially colliding with excluded users")
NEGATIVES_RESAMPLE_ROUNDS = counter("negatives.resample_rounds", (), "rejection-resample iterations")
SERVE_QUERIES = counter("serve.queries", ("direction", "path"), "top-k influence queries served")
SERVE_QUERY_ERRORS = counter("serve.query.errors", ("direction", "error"), "failed top-k influence queries")
SKETCH_RR_NODES = counter("sketch.rr_nodes", (), "total nodes across sampled RR sets")
SKETCH_RR_SETS = counter("sketch.rr_sets", (), "reverse-reachable sets sampled")
SKETCH_SELECTIONS = counter("sketch.selections", (), "max-coverage seed selections run")
TRAIN_CLIP_ROWS = counter("train.clip.rows", (), "embedding rows rescaled by max_norm")
TRAIN_EPOCHS = counter("train.epochs", (), "completed training epochs")
TRAIN_WORKER_EXAMPLES = counter("train.worker.examples", ("worker",), "positive observations trained, per worker")
# -- gauges ------------------------------------------------------------
TRAIN_EPOCH_EXAMPLES_PER_SEC = gauge("train.epoch.examples_per_sec", ("epoch",), "positive observations per second")
TRAIN_EPOCH_LEARNING_RATE = gauge("train.epoch.learning_rate", ("epoch",), "annealed SGD step")
TRAIN_EPOCH_LOSS = gauge("train.epoch.loss", ("epoch",), "mean per-positive loss")
TRAIN_WORKER_CONTEXTS = gauge("train.worker.contexts", ("worker",), "contexts materialised per worker shard")
TRAIN_WORKER_EPOCH_SECONDS = gauge("train.worker.epoch_seconds", ("worker", "epoch"), "in-worker wall-clock per epoch")
TRAIN_WORKER_LOSS = gauge("train.worker.loss", ("worker", "epoch"), "mean per-positive loss of the worker's shard")
# -- histograms --------------------------------------------------------
BENCH_WORKLOAD_SECONDS = histogram("bench.workload.seconds", ("workload",), "per-operation benchmark latency", _LATENCY_SECONDS)
# A checkpoint is four raw .npy shards and two small JSON files.
CKPT_WRITE_SECONDS = histogram("ckpt.write_seconds", (), "atomic checkpoint write latency", (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0))
# L defaults to 50; larger sweeps go to 200.
CONTEXTS_LENGTH = histogram("contexts.length", (), "full context sizes (local + global)", (0.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0))
# The local share is L·α = 5 of L = 50, so the edges bracket both.
CONTEXTS_WALK_LENGTH = histogram("contexts.walk_length", (), "local random-walk context sizes", (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0))
# Cascades on the synthetic presets are shallow.
DIFFUSION_IC_ROUNDS = histogram("diffusion.ic.rounds", (), "IC rounds until quiescence", (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0))
DIFFUSION_IC_SPREAD = histogram("diffusion.ic.spread", (), "IC activated-set sizes", _SET_SIZES)
SERVE_QUERY_SECONDS = histogram("serve.query.seconds", ("direction", "path"), "per-query latency", _LATENCY_SECONDS)
SKETCH_RR_SIZE = histogram("sketch.rr_size", (), "RR-set sizes", _SET_SIZES)


@dataclass(frozen=True)
class SpanSpec:
    """One declared span name (or ``fnmatch`` family) and its attributes."""

    name: str
    labels: tuple[str, ...] = ()  #: Allowed span-attribute keys.
    description: str = ""


#: Every span name the project opens, sorted by name.
SPAN_CATALOG: tuple[SpanSpec, ...] = (
    SpanSpec("bench.ris", ("preset",), "benchmark: RIS selection"),
    SpanSpec("contexts", ("num_contexts",), "context-corpus generation"),
    SpanSpec("epoch", ("epoch", "loss", "examples", "examples_per_sec", "workers"), "one training epoch"),
    SpanSpec("experiment.*", ("scale",), "one named experiment run (CLI)"),
    SpanSpec("fig9.contexts", ("dim", "seconds"), "fig9: context generation stage"),
    SpanSpec("fig9.emb_ic_iteration", ("dim", "seconds"), "fig9: Emb-IC training iteration"),
    SpanSpec("fig9.iteration", ("dim", "seconds"), "fig9: Inf2vec training iteration"),
    SpanSpec("fit", (), "full training run"),
    SpanSpec("hogwild.fit", ("workers",), "hogwild parallel training run"),
    SpanSpec("serve.batch.*", ("num_queries", "k", "path"), "batched top-k query, per direction"),
    SpanSpec("serve.precompute.*", ("k",), "top-k index precompute, per direction"),
    SpanSpec("sgd", (), "SGD pass over the context corpus"),
    SpanSpec("sketch.generate", ("count",), "batched RR-set generation"),
    SpanSpec("sketch.schedule", ("num_seeds", "epsilon", "lower_bound", "num_sketches", "capped"), "IMM two-phase sampling schedule"),
    SpanSpec("sketch.select", ("num_seeds", "num_sketches"), "greedy max-coverage seed selection"),
    SpanSpec("train_epoch", ("repeat",), "benchmark: one timed training epoch"),
)
