"""Output checks of the pipeline benchmark.

Each check raises :class:`CheckFailed` with a message naming what was
wrong; the run then exits non-zero.  No check is folded into a metric.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.diffusion import spread_with_standard_error

import spec


class CheckFailed(Exception):
    """A pipeline output disagrees with its reference."""


def dense_topk(service, user: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference answer: sort the full score row ``x(user, ·)`` with biases.

    Ties go to the smaller user id (the serving layer's lexsort order).
    """
    store = service.store
    row = (
        np.asarray(store.target) @ np.asarray(store.source[user])
        + float(store.source_bias[user])
        + np.asarray(store.target_bias)
    )
    order = np.lexsort((np.arange(row.shape[0]), -row))[:k]
    return order, row[order]


def check_topk(service, users: Sequence[int], index_k: int, scan_k: int) -> None:
    """Index-path and scan-path answers must equal the dense reference.

    Ids must match exactly and scores to rounding.
    """
    index = service.indices.get("influenced")
    if index is None or index.k < index_k or scan_k <= index.k:
        raise CheckFailed(
            f"index depth {None if index is None else index.k} does not route "
            f"k={index_k} to the index and k={scan_k} to the scan"
        )
    for user in users:
        for path, k in (("index", index_k), ("scan", scan_k)):
            result = service.top_influenced(int(user), k)
            ids, scores = dense_topk(service, int(user), k)
            if not np.array_equal(result.indices, ids):
                raise CheckFailed(
                    f"{path} top-{k} ids of user {user} differ from the dense "
                    f"reference: {result.indices.tolist()} vs {ids.tolist()}"
                )
            if not np.allclose(result.scores, scores, rtol=1e-9, atol=1e-9):
                raise CheckFailed(
                    f"{path} top-{k} scores of user {user} differ from the "
                    "dense reference beyond rounding"
                )


def check_seeds(seeds: Sequence[int], num_seeds: int, num_users: int) -> None:
    """The seed set must be ``num_seeds`` distinct, in-range users."""
    ids = [int(s) for s in seeds]
    if len(ids) != num_seeds or len(set(ids)) != num_seeds:
        raise CheckFailed(f"expected {num_seeds} distinct seeds, got {ids}")
    if min(ids) < 0 or max(ids) >= num_users:
        raise CheckFailed(f"seed outside [0, {num_users}): {ids}")


def top_out_degree(graph, count: int) -> list[int]:
    """The ``count`` highest out-degree users, ties to the smaller id."""
    degrees = np.diff(graph.out_csr()[0])
    return np.lexsort((np.arange(degrees.shape[0]), -degrees))[:count].tolist()


def check_spread(probabilities, seeds: Sequence[int]) -> None:
    """Monte-Carlo referee: the seeds must beat the top out-degree users.

    Both sets are simulated ``spec.MC_RUNS`` times with the fixed
    ``spec.MC_SEED`` under the probabilities the selection optimised;
    the seeds' spread must exceed the baseline's by more than
    ``spec.MIN_MARGIN_SE`` combined standard errors.
    """
    spread, stderr = spread_with_standard_error(
        probabilities, list(seeds), num_runs=spec.MC_RUNS, seed=spec.MC_SEED
    )
    baseline, baseline_stderr = spread_with_standard_error(
        probabilities,
        top_out_degree(probabilities.graph, len(seeds)),
        num_runs=spec.MC_RUNS,
        seed=spec.MC_SEED,
    )
    combined = math.hypot(stderr, baseline_stderr)
    margin = (spread - baseline) / combined if combined > 0 else math.inf
    if not margin > spec.MIN_MARGIN_SE:
        raise CheckFailed(
            f"seed spread {spread:.2f} beats the out-degree baseline "
            f"{baseline:.2f} by {margin:.2f} SE, not more than "
            f"{spec.MIN_MARGIN_SE}"
        )


def check_training(loss_history: Sequence[float], num_negatives: int, auc: float) -> None:
    """Training must lower the loss and beat chance at activation prediction.

    With one epoch there is no earlier epoch to compare against, so the
    final loss is compared with ``(1 + num_negatives) · ln 2``: the loss
    of scores at zero, which the near-zero initialisation starts from.
    """
    losses = [float(x) for x in loss_history]
    if not losses or not all(math.isfinite(x) for x in losses):
        raise CheckFailed(f"loss history is empty or not finite: {losses}")
    if len(losses) > 1 and not losses[-1] < losses[0]:
        raise CheckFailed(f"final loss {losses[-1]} is not below the first {losses[0]}")
    untrained = (1 + num_negatives) * math.log(2.0)
    if not losses[-1] < untrained:
        raise CheckFailed(
            f"final loss {losses[-1]} is not below the untrained {untrained:.4f}"
        )
    if not auc > spec.MIN_AUC:
        raise CheckFailed(f"activation AUC {auc} is not above {spec.MIN_AUC}")
