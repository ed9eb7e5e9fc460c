"""The telemetry catalog: every metric and span name, declared once.

A metric name lives at its instrument site
(``metrics.counter("serve.queries", ...)``) and in the Prometheus
exposition / JSONL trace it flows into.  A typo at the site fails
*silently* — the counter simply reports under a name nobody declared.
This module is the single source of truth the ``telemetry-contract``
rule checks every site against:

* :data:`METRIC_CATALOG` — every instrument and span name used in
  ``src/`` or ``benchmarks/``, with its kind and allowed label set.
  Names containing ``*`` are families covering f-string sites whose
  interpolated segment is open-ended (``serve.batch.{direction}``).

The catalog is a **pure literal** so the static-analysis rule can read
it without importing the module; the declarations are also validated
at import time (:func:`validate_catalog`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Sequence

__all__ = [
    "METRIC_CATALOG",
    "MetricSpec",
    "catalog_names",
    "find_spec",
    "validate_catalog",
]


@dataclass(frozen=True)
class MetricSpec:
    """One declared telemetry name: kind, allowed labels, description."""

    name: str  #: Literal name or ``fnmatch`` family (``serve.batch.*``).
    kind: str  #: ``counter`` | ``gauge`` | ``histogram`` | ``span``.
    labels: tuple[str, ...] = ()  #: Allowed label / span-attribute keys.
    description: str = ""

    def matches(self, name: str) -> bool:
        """Whether ``name`` is this spec (exact or family match)."""
        return self.name == name or fnmatchcase(name, self.name)


#: Every telemetry name the project emits.  Kept sorted by kind, then
#: name, so drift shows up as a one-line diff.
METRIC_CATALOG: tuple[MetricSpec, ...] = (
    # -- counters ------------------------------------------------------
    MetricSpec("ckpt.bytes_written", "counter", (), "total checkpoint bytes written"),
    MetricSpec("ckpt.pruned", "counter", (), "checkpoints removed by retention"),
    MetricSpec("ckpt.resumes", "counter", (), "training runs resumed from a checkpoint"),
    MetricSpec("ckpt.saves", "counter", (), "checkpoints written"),
    MetricSpec("contexts.cache.hits", "counter", (), "episode-network cache hits"),
    MetricSpec("contexts.cache.misses", "counter", (), "episode-network cache rebuilds"),
    MetricSpec("contexts.episodes", "counter", (), "episodes processed"),
    MetricSpec("contexts.tuples", "counter", (), "(u, C_u^i) tuples generated"),
    MetricSpec("contexts.walk.dead_ends", "counter", (), "forced restarts at successor-less nodes"),
    MetricSpec("contexts.walk.restarts", "counter", (), "probabilistic jumps back to the start"),
    MetricSpec("contexts.walk.steps", "counter", (), "recorded walk steps"),
    MetricSpec("diffusion.ic.simulations", "counter", (), "IC cascade simulations run"),
    MetricSpec("negatives.collisions", "counter", (), "negatives initially colliding with excluded users"),
    MetricSpec("negatives.resample_rounds", "counter", (), "rejection-resample iterations"),
    MetricSpec("serve.queries", "counter", ("direction", "path"), "top-k influence queries served"),
    MetricSpec("serve.query.errors", "counter", ("direction", "error"), "failed top-k influence queries"),
    MetricSpec("sketch.lazy_evaluations", "counter", (), "CELF re-evaluations during max-coverage selection"),
    MetricSpec("sketch.rr_nodes", "counter", (), "total nodes across sampled RR sets"),
    MetricSpec("sketch.rr_sets", "counter", (), "reverse-reachable sets sampled"),
    MetricSpec("sketch.selections", "counter", (), "max-coverage seed selections run"),
    MetricSpec("train.clip.rows", "counter", (), "embedding rows rescaled by max_norm"),
    MetricSpec("train.epochs", "counter", (), "completed training epochs"),
    MetricSpec("train.worker.examples", "counter", ("worker",), "positive observations trained, per worker"),
    # -- gauges --------------------------------------------------------
    MetricSpec("train.epoch.examples_per_sec", "gauge", ("epoch",), "positive observations per second"),
    MetricSpec("train.epoch.learning_rate", "gauge", ("epoch",), "annealed SGD step"),
    MetricSpec("train.epoch.loss", "gauge", ("epoch",), "mean per-positive loss"),
    MetricSpec("train.worker.contexts", "gauge", ("worker",), "contexts materialised per worker shard"),
    MetricSpec("train.worker.epoch_seconds", "gauge", ("worker", "epoch"), "in-worker wall-clock per epoch"),
    MetricSpec("train.worker.loss", "gauge", ("worker", "epoch"), "mean per-positive loss of the worker's shard"),
    # -- histograms ----------------------------------------------------
    MetricSpec("bench.workload.seconds", "histogram", ("workload",), "per-operation benchmark latency"),
    MetricSpec("ckpt.write_seconds", "histogram", (), "atomic checkpoint write latency"),
    MetricSpec("contexts.length", "histogram", (), "full context sizes (local + global)"),
    MetricSpec("contexts.walk_length", "histogram", (), "local random-walk context sizes"),
    MetricSpec("diffusion.ic.rounds", "histogram", (), "IC rounds until quiescence"),
    MetricSpec("diffusion.ic.spread", "histogram", (), "IC activated-set sizes"),
    MetricSpec("serve.query.seconds", "histogram", ("direction", "path"), "per-query latency"),
    MetricSpec("sketch.rr_size", "histogram", (), "RR-set sizes"),
    # -- spans ---------------------------------------------------------
    MetricSpec("bench.ris", "span", ("preset",), "benchmark: RIS selection"),
    MetricSpec("contexts", "span", ("num_contexts",), "context-corpus generation"),
    MetricSpec("epoch", "span", ("epoch", "loss", "examples", "examples_per_sec", "workers"), "one training epoch"),
    MetricSpec("experiment.*", "span", ("scale",), "one named experiment run (CLI)"),
    MetricSpec("fig9.contexts", "span", ("dim", "seconds"), "fig9: context generation stage"),
    MetricSpec("fig9.emb_ic_iteration", "span", ("dim", "seconds"), "fig9: Emb-IC training iteration"),
    MetricSpec("fig9.iteration", "span", ("dim", "seconds"), "fig9: Inf2vec training iteration"),
    MetricSpec("fit", "span", (), "full training run"),
    MetricSpec("hogwild.fit", "span", ("workers",), "hogwild parallel training run"),
    MetricSpec("partial_fit", "span", (), "incremental training run"),
    MetricSpec("serve.batch.*", "span", ("num_queries", "k", "path"), "batched top-k query, per direction"),
    MetricSpec("serve.precompute.*", "span", ("k",), "top-k index precompute, per direction"),
    MetricSpec("sgd", "span", (), "SGD pass over the context corpus"),
    MetricSpec("sketch.generate", "span", ("count",), "batched RR-set generation"),
    MetricSpec("sketch.schedule", "span", ("num_seeds", "epsilon", "lower_bound", "num_sketches", "capped"), "IMM two-phase sampling schedule"),
    MetricSpec("sketch.select", "span", ("num_seeds", "num_sketches"), "CELF max-coverage seed selection"),
    MetricSpec("train_epoch", "span", ("repeat",), "benchmark: one timed training epoch"),
)

def catalog_names(kind: str | None = None) -> tuple[str, ...]:
    """Declared names (optionally restricted to one instrument kind)."""
    return tuple(
        spec.name
        for spec in METRIC_CATALOG
        if kind is None or spec.kind == kind
    )


def find_spec(name: str, kind: str | None = None) -> MetricSpec | None:
    """The spec covering ``name`` (exact wins over family), or ``None``."""
    family: MetricSpec | None = None
    for spec in METRIC_CATALOG:
        if kind is not None and spec.kind != kind:
            continue
        if spec.name == name:
            return spec
        if family is None and spec.matches(name):
            family = spec
    return family


def validate_catalog(catalog: Sequence[MetricSpec] | None = None) -> None:
    """Raise ``ValueError`` on duplicate (name, kind) declarations."""
    seen: set[tuple[str, str]] = set()
    for spec in METRIC_CATALOG if catalog is None else catalog:
        key = (spec.name, spec.kind)
        if key in seen:
            raise ValueError(f"duplicate catalog entry: {spec.name} ({spec.kind})")
        seen.add(key)


validate_catalog()
