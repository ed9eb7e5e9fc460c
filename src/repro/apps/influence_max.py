"""Influence maximisation on learned influence parameters.

Viral marketing — pick the ``k`` seed users that maximise expected
spread — is the application motivating the paper's introduction
(Kempe et al. [1]).  This module closes that loop on top of the
library's learned models:

* :func:`ris_influence_maximization` — the seed selector: an
  adaptively sized pool of reverse-reachable sets (:mod:`repro.sketch`)
  and greedy max-coverage over it, on an :class:`EdgeProbabilities`
  table from any IC-based model (DE, ST, EM, Emb-IC, or planted ground
  truth), at selection cost near-linear in the pool size.  Monte-Carlo
  simulation (:mod:`repro.diffusion.montecarlo`) is the referee that
  scores the chosen seeds.  An embedding drives it through
  :func:`embedding_edge_probabilities`.
* :func:`embedding_seed_selection` — a representation shortcut: rank
  users by their aggregate outgoing influence score
  ``mean_v x(u, v)`` plus marginal-coverage re-ranking, avoiding
  simulation entirely (the speed advantage Section V-B2 highlights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.embeddings import InfluenceEmbedding
from repro.data.graph import SocialGraph
from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import EvaluationError
from repro.serve.scoring import DEFAULT_BLOCK_SIZE, iter_source_rows
from repro.sketch.rrsets import DEFAULT_BATCH_SIZE
from repro.sketch.schedule import (
    DEFAULT_ELL,
    DEFAULT_EPSILON,
    DEFAULT_MAX_SKETCHES,
    adaptive_rr_pool,
)
from repro.sketch.select import max_coverage_seeds
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int, check_probability


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + e^-x)`` without overflow for strongly negative ``x``.

    The naive form computes ``np.exp(-x)``, which overflows to ``inf``
    (with a RuntimeWarning) once ``x < ~-709``; ``logaddexp`` evaluates
    ``log(1 + e^-x)`` in the stable regime for either sign, so
    ``exp(-logaddexp(0, -x))`` is exact-to-rounding everywhere.
    """
    return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))


def _row_medians(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=1)``, bit for bit, from one selection.

    ``np.median`` partitions a copy at three positions (both middles,
    and the last one for its NaN check).  This partitions ``rows`` *in
    place* at the upper middle ``h = width // 2`` only: the lower middle
    of an even row is then the largest entry left of ``h``, and a row
    holds a NaN exactly when the entries from ``h`` on do, since
    selection orders NaN last.  The middles are averaged the way
    ``np.mean`` sums them, from ``+0.0``, so a ``-0.0`` middle gives
    ``0.0`` as ``np.median`` does.  Rows holding a NaN are handed to
    ``np.median`` itself, which returns one of their NaNs.
    """
    half = rows.shape[1] // 2
    rows.partition(half, axis=1)
    if rows.shape[1] % 2:
        medians = rows[:, half] + 0.0
    else:
        medians = (rows[:, :half].max(axis=1) + rows[:, half] + 0.0) / 2.0
    nan_rows = np.flatnonzero(np.isnan(rows[:, half:].max(axis=1)))
    if nan_rows.size:
        medians[nan_rows] = np.median(rows[nan_rows], axis=1)
    return medians


def _calibration_shift(scores: np.ndarray, mean_probability: float) -> float:
    """The ``shift`` with ``mean(sigmoid(scores - shift)) = mean_probability``.

    Bisection on ``[min - 30, max + 30]`` for at most 100 steps.  It
    stops once the midpoint equals an end of the bracket: no float lies
    strictly between the ends any more, so every later step would leave
    the returned midpoint's bits as they are.
    """

    def mean_sigmoid(shift: float) -> float:
        return float(np.mean(_stable_sigmoid(scores - shift)))

    low, high = scores.min() - 30.0, scores.max() + 30.0
    for _ in range(100):
        mid = (low + high) / 2.0
        if mid == low or mid == high:
            break
        if mean_sigmoid(mid) > mean_probability:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


@dataclass(frozen=True)
class SeedSelection:
    """Result of a seed-selection run.

    Attributes
    ----------
    seeds:
        Chosen seed users, in selection order.
    marginal_gains:
        Estimated marginal spread gain of each selection.
    expected_spread:
        Estimated total spread of the final seed set (the RIS coverage
        estimate for RIS; ``nan`` for the embedding heuristic).
    """

    seeds: tuple[int, ...]
    marginal_gains: tuple[float, ...]
    expected_spread: float


def embedding_edge_probabilities(
    embedding: InfluenceEmbedding,
    graph: SocialGraph,
    mean_probability: float = 0.05,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> EdgeProbabilities:
    """Calibrated IC probabilities from learned influence scores.

    Lets an embedding drive RIS seed selection and Monte-Carlo spread
    evaluation: each social edge gets ``P_uv = sigmoid(x'(u, v) - shift)``
    where ``x'`` is the influence score *centred per source* (each
    source's median score over all users subtracted — raw SGNS scores
    carry an arbitrary per-source offset, see
    :func:`embedding_seed_selection`) and the global ``shift`` is binary-searched so the mean edge
    probability equals ``mean_probability``.  Anchoring the mean to an
    externally chosen (or ST-estimated) activity level preserves the
    learned ordering while giving IC simulation the absolute scale it
    needs.

    Score rows are streamed through the blocked serving kernels
    (``block_size`` rows of scratch at a time), so calibration works at
    ``num_users`` far beyond what a dense score matrix would allow.
    """
    check_probability("mean_probability", mean_probability)
    if mean_probability in (0.0, 1.0):
        return EdgeProbabilities.constant(graph, mean_probability)
    edge_array = graph.edge_array()
    if edge_array.shape[0] == 0:
        return EdgeProbabilities(graph, np.empty(0))
    raw = embedding.score_pairs(edge_array[:, 0], edge_array[:, 1])
    # Per-source medians over all users, streamed in bounded row chunks
    # for just the sources that actually carry edges — the old code
    # materialised the full (num_users, num_users) score matrix here.
    sources = np.unique(edge_array[:, 0])
    median_by_source = np.empty(sources.shape[0], dtype=np.float64)
    offset = 0
    for users, rows in iter_source_rows(embedding, sources, block_size):
        median_by_source[offset : offset + users.shape[0]] = _row_medians(rows)
        offset += users.shape[0]
    scores = raw - median_by_source[np.searchsorted(sources, edge_array[:, 0])]
    shift = _calibration_shift(scores, mean_probability)
    values = _stable_sigmoid(scores - shift)
    return EdgeProbabilities(graph, np.clip(values, 0.0, 1.0))


def ris_influence_maximization(
    probabilities: EdgeProbabilities,
    num_seeds: int,
    epsilon: float = DEFAULT_EPSILON,
    ell: float = DEFAULT_ELL,
    seed: SeedLike = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_sketches: int = DEFAULT_MAX_SKETCHES,
) -> SeedSelection:
    """Sketch-based (RIS/IMM) seed selection under the IC model.

    Builds an adaptively sized pool of reverse-reachable sets
    (:func:`repro.sketch.adaptive_rr_pool`) and runs greedy
    max-coverage over it (:func:`repro.sketch.max_coverage_seeds`), at
    near-linear selection cost.

    Parameters
    ----------
    probabilities:
        Edge probabilities (learned or planted).
    num_seeds:
        Size ``k`` of the seed set.
    epsilon / ell:
        IMM schedule knobs: the selection is a ``(1 - 1/e - epsilon)``
        approximation with probability ``1 - n^-ell`` (pool-cap
        permitting).
    seed:
        RNG seed/Generator for root sampling and the reverse-cascade
        live-edge draws (seeded Generators only; the same seed
        reproduces the same seed set bit-for-bit).
    batch_size:
        Roots per lockstep reverse-cascade batch.
    max_sketches:
        Hard cap on the pool size.

    Notes
    -----
    ``expected_spread`` is the RIS coverage estimate of the selected
    set.  It is upward-biased by the selection itself (bounded by
    ``epsilon`` under the IMM guarantee); for an unbiased figure,
    re-estimate the returned seeds with
    :func:`repro.diffusion.montecarlo.spread_with_standard_error` or
    :meth:`repro.sketch.RRSketchPool.spread_estimate` on a fresh pool.
    """
    graph = probabilities.graph
    num_seeds = check_positive_int("num_seeds", num_seeds)
    if num_seeds > graph.num_nodes:
        raise EvaluationError(
            f"num_seeds={num_seeds} exceeds the number of nodes {graph.num_nodes}"
        )
    pool, _schedule = adaptive_rr_pool(
        probabilities,
        num_seeds,
        epsilon=epsilon,
        ell=ell,
        seed=seed,
        batch_size=batch_size,
        max_sketches=max_sketches,
    )
    result = max_coverage_seeds(pool, num_seeds)
    scale = pool.spread_scale()
    return SeedSelection(
        seeds=result.seeds,
        marginal_gains=tuple(scale * count for count in result.marginal_counts),
        expected_spread=graph.num_nodes * result.coverage_fraction,
    )


def embedding_seed_selection(
    embedding: InfluenceEmbedding,
    num_seeds: int,
    coverage_penalty: float = 0.5,
    top_k: int = 50,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SeedSelection:
    """Simulation-free seed selection from learned representations.

    The score ``x(u, v)`` carries a per-source offset (``b_u`` plus the
    scale SGNS chose for ``S_u``), so raw scores are only
    rank-meaningful *within* one source — comparing ``mean_v x(u, v)``
    across users rewards untrained users whose scores sit at the
    initialisation baseline.  The influence potential used here removes
    that calibration: each user's score row is centred on its own
    median and the potential is the mass of the ``top_k`` centred
    scores — "how far above their own baseline can this user push
    their most susceptible targets".

    Greedy selection with a diversity re-rank: after picking ``u``,
    every remaining candidate's potential is discounted by
    ``coverage_penalty * cosine(S_candidate, S_u)_+``, discouraging
    seeds that influence the same audience.

    Potentials are computed from streamed score rows
    (:func:`repro.serve.scoring.iter_source_rows`, ``block_size``
    bounding scratch memory) — no dense score matrix is built.
    """
    num_seeds = check_positive_int("num_seeds", num_seeds)
    top_k = check_positive_int("top_k", top_k)
    if num_seeds > embedding.num_users:
        raise EvaluationError(
            f"num_seeds={num_seeds} exceeds num_users={embedding.num_users}"
        )
    if coverage_penalty < 0:
        raise EvaluationError(
            f"coverage_penalty must be >= 0, got {coverage_penalty}"
        )
    # Influence potentials streamed per source row: each user's row is
    # centred on its own median and the top_k centred mass summed, one
    # bounded chunk of rows at a time — the dense
    # (num_users, num_users) matrix the old code built never exists.
    k = min(top_k, embedding.num_users)
    base_scores = np.empty(embedding.num_users, dtype=np.float64)
    for users, rows in iter_source_rows(embedding, block_size=block_size):
        centered = np.maximum(rows - _row_medians(rows)[:, None], 0.0)
        base_scores[users] = np.sort(centered, axis=1)[:, -k:].sum(axis=1)
    norms = np.linalg.norm(embedding.source, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    directions = embedding.source / norms[:, None]

    adjusted = base_scores.astype(np.float64).copy()
    chosen: list[int] = []
    gains: list[float] = []
    for _ in range(num_seeds):
        adjusted[chosen] = -np.inf
        pick = int(np.argmax(adjusted))
        chosen.append(pick)
        gains.append(float(adjusted[pick]))
        similarity = np.maximum(directions @ directions[pick], 0.0)
        adjusted -= coverage_penalty * similarity * np.abs(base_scores)
    return SeedSelection(
        seeds=tuple(chosen),
        marginal_gains=tuple(gains),
        expected_spread=float("nan"),
    )
