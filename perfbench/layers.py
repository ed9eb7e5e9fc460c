"""Per-layer accounting of a traced pipeline run.

The traced run records two kinds of spans into one
:class:`repro.obs.RunRecorder`: the benchmark's own spans around each
public call it makes (``train``, ``store.save``, ``calibrate``, ...)
and the spans and counters the program already emits under recording
(``fit``, ``contexts``, ``epoch``, ``sgd``, ``hogwild.fit``,
``serve.precompute.*``, ``sketch.*``).  A span's self time is its
duration minus its children's; spans on one thread nest, so children
never overlap.  Every span belongs to the layer of its nearest ancestor
named in ``LAYER_OF_SPAN``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Iterator

#: The spans that open a layer; every other span inherits its parent's.
LAYER_OF_SPAN = {
    "pipeline": "unattributed",
    "train": "repro.core.inf2vec",
    "hogwild.fit": "repro.parallel",
    "contexts": "repro.core.context",
    "store.save": "repro.serve.store",
    "store.open": "repro.serve.store",
    "serve.precompute": "repro.serve.index",
    "serve.precompute.influenced": "repro.serve.topk",
    "query.warmup": "repro.serve.service",
    "query.index": "repro.serve.service",
    "query.scan": "repro.serve.service",
    "query.batch": "repro.serve.service",
    "calibrate": "repro.apps.influence_max",
    "ris": "repro.apps.influence_max",
    "sketch.schedule": "repro.sketch",
    "sketch.generate": "repro.sketch",
    "sketch.select": "repro.sketch",
}


def self_seconds(span) -> float:
    """Duration of ``span`` not covered by its children."""
    return span.duration - sum(child.duration for child in span.children)


def walk(span, layer: str | None = None) -> Iterator[tuple[object, str | None]]:
    """Depth-first ``(span, layer)`` pairs of a span tree."""
    pending = [(span, LAYER_OF_SPAN.get(span.name, layer))]
    while pending:
        node, node_layer = pending.pop()
        yield node, node_layer
        for child in reversed(node.children):
            pending.append((child, LAYER_OF_SPAN.get(child.name, node_layer)))


def layer_self_seconds(pipeline_span) -> dict[str, float]:
    """Self time per layer under the ``pipeline`` span (they sum to it)."""
    totals: dict[str, float] = defaultdict(float)
    for span, layer in walk(pipeline_span):
        totals[layer or "unattributed"] += self_seconds(span)
    return dict(totals)


def spans_named(root, name: str) -> list:
    return [span for span, _ in walk(root) if span.name == name]


def counter_total(snapshot: dict, name: str) -> float:
    """Sum of a counter over all its label sets (0 when never created)."""
    samples = snapshot.get(name, {}).get("samples", {})
    return float(sum(samples.values()))


def counter_labelled(snapshot: dict, name: str, **labels: str) -> float:
    """Sum of a counter over the label sets that carry ``labels``."""
    wanted = {f"{key}={value}" for key, value in labels.items()}
    samples = snapshot.get(name, {}).get("samples", {})
    return float(
        sum(v for key, v in samples.items() if wanted <= set(key.split(",")))
    )


def gauge_samples(snapshot: dict, name: str) -> dict[tuple, float]:
    """A gauge's values keyed by their sorted ``(label, value)`` pairs."""
    samples = snapshot.get(name, {}).get("samples", {})
    return {
        tuple(tuple(pair.split("=", 1)) for pair in key.split(",") if pair): value
        for key, value in samples.items()
    }


def histogram_sum(snapshot: dict, name: str) -> float:
    samples = snapshot.get(name, {}).get("samples", {})
    return float(sum(state["sum"] for state in samples.values()))


def training_metrics(train_span, snapshot: dict, workers: int,
                     num_negatives: int, loss_history) -> dict[str, float]:
    """Context, SGD and hogwild metrics read from the ``train`` span tree.

    In-process training (``workers=1``) counts as one worker: its
    parent epoch is the ``epoch`` span, its worker time the ``sgd``
    span.  Hogwild workers record into their own processes, so their
    walk, negative-sampling and clipping counters are not visible here
    and read 0; their corpus size and per-epoch seconds come from the
    ``train.worker.*`` gauges the parent sets.
    """
    epoch_spans = spans_named(train_span, "epoch")
    epoch_seconds = [span.duration for span in epoch_spans]
    rates = gauge_samples(snapshot, "train.epoch.examples_per_sec")
    metrics: dict[str, float] = {
        "sgd.epoch_s": statistics.fmean(epoch_seconds),
        "sgd.examples_per_s": statistics.fmean(rates.values()),
        "sgd.final_loss": float(loss_history[-1]),
        "negatives.resample_rounds": counter_total(snapshot, "negatives.resample_rounds"),
        "sgd.clip_rows": counter_total(snapshot, "train.clip.rows"),
        "hogwild.epoch_s": statistics.fmean(epoch_seconds),
    }
    if workers > 1:
        fit_span = spans_named(train_span, "hogwild.fit")[0]
        # Workers build their corpora before the first epoch starts.
        metrics["context.generate_s"] = (
            epoch_spans[0].start_unix - fit_span.start_unix
        )
        contexts = gauge_samples(snapshot, "train.worker.contexts")
        metrics["context.tuples"] = float(sum(contexts.values()))
        metrics["context.walk_steps"] = 0.0
        metrics["context.cache_hit_ratio"] = 0.0
        examples = defaultdict(float)
        for key, value in snapshot["train.worker.examples"]["samples"].items():
            examples[key] += value
        positives = sum(examples.values()) / len(epoch_spans)
        worker_seconds: dict[str, float] = defaultdict(float)
        for labels, seconds in gauge_samples(
            snapshot, "train.worker.epoch_seconds"
        ).items():
            epoch = dict(labels)["epoch"]
            worker_seconds[epoch] = max(worker_seconds[epoch], seconds)
        slowest = [worker_seconds[str(i)] for i in range(len(epoch_spans))]
        metrics["hogwild.worker_balance"] = min(examples.values()) / max(
            examples.values()
        )
    else:
        context_spans = spans_named(train_span, "contexts")
        metrics["context.generate_s"] = sum(s.duration for s in context_spans)
        metrics["context.tuples"] = counter_total(snapshot, "contexts.tuples")
        metrics["context.walk_steps"] = counter_total(snapshot, "contexts.walk.steps")
        hits = counter_total(snapshot, "contexts.cache.hits")
        misses = counter_total(snapshot, "contexts.cache.misses")
        metrics["context.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        positives = histogram_sum(snapshot, "contexts.length")
        slowest = [span.duration for span in spans_named(train_span, "sgd")]
        metrics["hogwild.worker_balance"] = 1.0
    metrics["sgd.positives"] = positives
    metrics["negatives.collision_ratio"] = counter_total(
        snapshot, "negatives.collisions"
    ) / max(positives * num_negatives * len(epoch_spans), 1.0)
    metrics["hogwild.worker_epoch_s"] = statistics.fmean(slowest)
    metrics["hogwild.barrier_wait_s"] = statistics.fmean(
        epoch - worker for epoch, worker in zip(epoch_seconds, slowest)
    )
    return metrics


def sketch_metrics(seed_root, snapshot: dict, num_seeds: int) -> dict[str, float]:
    """RR generation, schedule and CELF metrics of the seed stage."""
    generate_s = sum(s.duration for s in spans_named(seed_root, "sketch.generate"))
    schedule = spans_named(seed_root, "sketch.schedule")
    sets = counter_total(snapshot, "sketch.rr_sets")
    nodes = counter_total(snapshot, "sketch.rr_nodes")
    lazy = counter_total(snapshot, "sketch.lazy_evaluations")
    selections = counter_total(snapshot, "sketch.selections")
    return {
        "rr.generate_s": generate_s,
        "rr.sets": sets,
        "rr.nodes": nodes,
        "rr.mean_size": nodes / sets if sets else 0.0,
        "rr.nodes_per_s": nodes / generate_s if generate_s > 0 else 0.0,
        "schedule.self_s": sum(self_seconds(s) for s in schedule),
        "schedule.capped": float(
            sum(bool(s.attributes.get("capped")) for s in schedule)
        ),
        "celf.select_s": sum(
            s.duration for s in spans_named(seed_root, "sketch.select")
        ),
        "celf.lazy_evals": lazy,
        "celf.evals_per_seed": lazy / (selections * num_seeds) if selections else 0.0,
    }
