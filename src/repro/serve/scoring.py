"""Blocked, deterministic scoring primitives for the serving layer.

The influence score ``x(u, v) = S_u · T_v + b_u + b̃_v`` (Section IV-C)
decomposes into a plain inner product over *bias-augmented* vectors::

    x(u, v) = [S_u ; b_u ; 1] · [T_v ; 1 ; b̃_v]

so every "who does u influence / who influences v" question is a
max-inner-product search (MIPS) over one augmented matrix — no score
matrix ever needs to be materialised.  The helpers here build the
augmented queries and score the opposite side in blocks sized by
score cells, not rows; :func:`block_rows` states the rule and the
scratch it bounds.

Determinism contract
--------------------
gemm chooses the candidates; einsum produces every score that is
returned.  Every score this module hands out is computed with
``np.einsum(..., optimize=False)``.  BLAS ``@`` picks different
kernels (and therefore different floating-point summation orders)
depending on operand shapes and thread count, so a blocked scan
through ``@`` would *not* be bitwise-identical to a full-matrix scan.
``einsum`` reduces each output element independently in a fixed loop
order, so a score's bits depend only on its two rows: not on the block
size, the number of queries in a batch, or which other rows are
scored with it — the property the serving tests pin bitwise.

:func:`candidate_scores` still uses ``@``, but only to choose which
entries of a block are worth scoring: every entry whose exact score
could reach the k-th place is kept, by a margin that bounds how far
any two summation orders can disagree, and only the survivors are
scored by ``einsum``.  The choice depends on gemm's bits; the answer
does not.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from repro.errors import ServingError
from repro.utils.validation import check_positive_int

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "EmbeddingLike",
    "augment_sources",
    "augment_targets",
    "candidate_scores",
    "check_k",
    "check_users",
    "max_row_norm",
    "score_block",
    "iter_source_rows",
    "aggregated_scores",
]

_INT64_MAX = int(np.iinfo(np.int64).max)

#: Default block size: database rows per block of a many-query scan, and
#: the unit of every block's score-cell budget (see :func:`block_rows`).
DEFAULT_BLOCK_SIZE = 1024


class EmbeddingLike:
    """Structural type for anything exposing the four parameter arrays.

    Both :class:`repro.core.embeddings.InfluenceEmbedding` and
    :class:`repro.serve.store.EmbeddingStore` satisfy it; the scoring
    kernels only touch ``source``, ``target``, ``source_bias`` and
    ``target_bias``, so memory-mapped stores are scanned without ever
    copying a full matrix.
    """

    source: np.ndarray
    target: np.ndarray
    source_bias: np.ndarray
    target_bias: np.ndarray


def check_users(users: int | Sequence[int], num_users: int) -> int | np.ndarray:
    """The one check of query user ids, shared by every serving entry point.

    ``users`` is one id or a non-empty 1-D sequence of ids, each an
    integer in ``[0, num_users)``.  One id comes back as an ``int``, a
    batch as an int64 array, so a single query slices one row where a
    batch takes a block.  Negative ids are refused rather than wrapped
    by numpy indexing to another user's row, and float, bool and object
    ids are refused rather than truncated or read as a mask.
    """
    if _is_integer(users):
        ids = None
        low = high = int(users)
    else:
        ids = np.asarray(users)
        if ids.ndim > 1 or ids.size == 0:
            raise ServingError(
                "query users must be one id or a non-empty 1-D array of ids"
            )
        if ids.dtype.kind not in "iu" and not (
            ids.dtype.kind == "O" and all(map(_is_integer, ids.flat))
        ):
            raise ServingError(f"query user ids must be integers, got {ids.dtype}")
        low, high = int(ids.min()), int(ids.max())
    if high > _INT64_MAX:  # beyond int64 is outside any universe
        raise ServingError(f"user ids outside served universe [0, {num_users})")
    if low < 0 or high >= num_users:
        raise ServingError(
            f"user {low if low < 0 else high} outside served universe "
            f"[0, {num_users})"
        )
    if ids is None or ids.ndim == 0:
        return low
    return ids.astype(np.int64, copy=False)


def _is_integer(value: object) -> bool:
    """Whether ``value`` is an ``int`` or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_k(k: int, num_users: int) -> int:
    """The one check of a top-k depth: an integer in ``[1, num_users]``."""
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= num_users:
        raise ServingError(
            f"k must be an integer in [1, {num_users}], got {k!r}"
        )
    return int(k)


def augment_sources(
    embedding: EmbeddingLike, users: Sequence[int] | None = None
) -> np.ndarray:
    """Bias-augmented source rows ``[S_u ; b_u ; 1]``.

    With ``users=None`` every user is augmented (the database side of a
    ``top_influencers`` scan); otherwise only the requested rows are
    built (the query side of a ``top_influenced`` scan).
    """
    source = embedding.source
    bias = embedding.source_bias
    if users is not None:
        ids = np.atleast_1d(check_users(users, source.shape[0]))
        source = source[ids]
        bias = bias[ids]
    out = np.empty((source.shape[0], source.shape[1] + 2), dtype=np.float64)
    out[:, :-2] = source
    out[:, -2] = bias
    out[:, -1] = 1.0
    return out


def augment_targets(
    embedding: EmbeddingLike, users: Sequence[int] | None = None
) -> np.ndarray:
    """Bias-augmented target rows ``[T_v ; 1 ; b̃_v]``."""
    target = embedding.target
    bias = embedding.target_bias
    if users is not None:
        ids = np.atleast_1d(check_users(users, target.shape[0]))
        target = target[ids]
        bias = bias[ids]
    out = np.empty((target.shape[0], target.shape[1] + 2), dtype=np.float64)
    out[:, :-2] = target
    out[:, -2] = 1.0
    out[:, -1] = bias
    return out


def score_block(queries: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Pairwise augmented inner products, ``(m, d+2) × (b, d+2) → (m, b)``.

    The one scoring kernel everything in :mod:`repro.serve` goes
    through.  ``optimize=False`` keeps ``einsum`` on its fixed-order
    reduction path (no BLAS dispatch), which is what makes blocked
    results bitwise-identical to a full scan — see the module
    docstring.
    """
    return np.einsum("kj,ij->ki", queries, block, optimize=False)


#: Unit roundoff of float64 under round-to-nearest.
_UNIT_ROUNDOFF = 2.0**-53
#: Spacing of the float64 subnormals: a product that underflows is off
#: by at most half of it.
_SUBNORMAL = 2.0**-1074


def max_row_norm(matrix: np.ndarray) -> float:
    """Largest row 2-norm, ``sqrt(Σ x²)`` as computed in float64.

    The ``database_norm`` :func:`candidate_scores` expects.  NaN or
    infinite when ``matrix`` holds a non-finite value, or when a square
    overflows.
    """
    squares = np.einsum("ij,ij->i", matrix, matrix, optimize=False)
    return float(np.sqrt(squares.max()))


def _block_threshold(gemm: np.ndarray, k: int, margin: np.ndarray) -> np.ndarray:
    """Each row's k-th largest gemm score minus twice its margin, ``(m, 1)``."""
    kth = gemm.shape[1] - k
    return np.partition(gemm, kth, axis=1)[:, kth, None] - 2.0 * margin[:, None]


def candidate_scores(
    queries: np.ndarray,
    block: np.ndarray,
    k: int,
    database_norm: float,
    floor: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact scores of the block entries that can still reach the k-th place.

    Returns ``(scores, columns)``, both ``(m, w)``: row ``i`` holds the
    :func:`score_block` scores of query ``i`` against the chosen rows of
    ``block`` and their positions in it, in ascending position order.
    Rows with fewer than ``w`` candidates are padded at the end with
    score ``-inf`` and position ``len(block)``.  ``database_norm`` is
    :func:`max_row_norm` of the database ``block`` comes from;
    ``floor`` is each query's exact k-th best score so far, or ``None``
    while fewer than ``k`` rows have been scanned.

    **Choice.**  A BLAS pass ``g = queries @ block.T`` scores every
    entry in gemm's summation order.  With ``M`` the query's margin
    (below), an entry survives when ``g`` is at least

    * the block's k-th largest ``g`` minus ``2M`` — its exact score
      could reach the block's exact k-th place, which is at least the
      k-th largest ``g`` minus ``M``; and
    * ``floor − M`` — its exact score could reach the exact k-th place
      so far, which only rises as the scan goes on.

    The first rule is applied only to blocks longer than ``k`` (a
    shorter block with no floor is scored whole, with no gemm pass),
    and when a floor is given only to the queries it leaves with more
    than ``k`` candidates.  Comparisons are written "not below", so a NaN
    gemm score or threshold keeps its entry.  Survivors are rescored by
    the einsum reduction of :func:`score_block`, pair by pair; a
    score's bits depend only on its two rows, so they are the bits the
    full block would give.

    **Margin.**  For a float64 dot product of length ``d`` in any
    summation order, with or without fused multiply-adds,
    ``|fl(q·x) − q·x| ≤ γ_d·Σ|q_i||x_i| + d·2⁻¹⁰⁷⁵``, with
    ``γ_d = d·u / (1 − d·u)``, ``u = 2⁻⁵³``, and the last term the
    products that underflow (Higham, *Accuracy and Stability of
    Numerical Algorithms*, §3.1 and §2.1).  ``Σ|q_i||x_i| ≤ ‖q‖·‖x‖``,
    so gemm and einsum scores differ by at most
    ``2·γ_d·‖q‖·max‖x‖ + d·2⁻¹⁰⁷⁴``, here with ``d = dim + 2``.  The
    norms are themselves computed: a computed norm ``n`` bounds the
    true one by ``n·(1 + γ_{d+2}) + τ``, where ``τ = √d·2⁻⁵³⁷`` covers
    squares that underflow to zero.  So, per query, the margin is::

        B = (1 + 2⁻²⁰)·(‖q‖ + τ)·(max‖x‖ + τ)
        M = 2·γ_d·B + (d + 1)·2⁻¹⁰⁷⁴

    The factor ``1 + 2⁻²⁰`` covers the relative rounding of the norms
    and of ``M`` itself, about ``(2d + 12)·u``; the extra ``2⁻¹⁰⁷⁴``
    covers ``M``'s own underflow.  Each threshold is one rounded
    subtraction, and comparing a float against the rounded threshold
    keeps every float at or above the exact one.

    **Fallback.**  When ``B`` is not finite for some query — a NaN or
    ±inf in it or in the database, or a norm that overflows — every
    entry of the block is a candidate and is scored by
    :func:`score_block`, with no gemm pass.  Otherwise no score
    overflows, in either order: every partial sum stays within
    ``(1 + γ_d)·Σ|q_i||x_i| ≤ B``.
    """
    num_queries, num_rows = queries.shape[0], block.shape[0]
    dim = queries.shape[1]
    tau = math.sqrt(dim) * 2.0**-537
    query_norms = np.sqrt(np.einsum("ij,ij->i", queries, queries, optimize=False))
    with np.errstate(over="ignore"):  # an overflowing B is the fallback's cue
        bound = (1.0 + 2.0**-20) * (database_norm + tau) * (query_norms + tau)
    # ``not <`` is also true for NaN.
    if (floor is None and num_rows <= k) or not bound.max() < math.inf:
        positions = np.arange(num_rows, dtype=np.int64)
        return score_block(queries, block), np.broadcast_to(
            positions, (num_queries, num_rows)
        )
    gamma = dim * _UNIT_ROUNDOFF / (1.0 - dim * _UNIT_ROUNDOFF)
    margin = 2.0 * gamma * bound + (dim + 1) * _SUBNORMAL
    gemm = queries @ block.T
    if floor is None:
        keep = ~(gemm < _block_threshold(gemm, k, margin))
    else:
        keep = ~(gemm < (floor - margin)[:, None])
    kept = np.flatnonzero(keep)
    if floor is not None:
        counts = np.bincount(kept // num_rows, minlength=num_queries)
        crowded = np.flatnonzero(counts > k)
        if crowded.size:
            keep[crowded] &= ~(
                gemm[crowded] < _block_threshold(gemm[crowded], k, margin[crowded])
            )
            kept = np.flatnonzero(keep)
    if num_queries == 1:
        return score_block(queries, block[kept]), kept[None]
    rows, columns = np.divmod(kept, num_rows)
    counts = np.bincount(rows, minlength=num_queries)
    # kept is in (row, column) order, the order a mask assignment fills.
    filled = np.arange(counts.max(), dtype=np.int64) < counts[:, None]
    scores = np.full(filled.shape, -math.inf, dtype=np.float64)
    scores[filled] = np.einsum(
        "ij,ij->i", queries[rows], block[columns], optimize=False
    )
    positions = np.full(filled.shape, num_rows, dtype=np.int64)
    positions[filled] = columns
    return scores, positions


def block_rows(block_size: int, dim: int, width: int) -> int:
    """Rows per block when each row holds ``width`` score cells.

    The one block-size rule of the serving layer.  The cell budget of a
    block is ``block_size × (dim + 2)``: the floats one
    ``block_size``-row block of the augmented ``(N, dim + 2)`` database
    holds.  A block gets as many rows as fit that budget, and at least
    one.  Its two users:

    * :meth:`repro.serve.topk.TopKEngine._scan` (``width`` = number of
      queries ``m``, never fewer than ``block_size`` rows) scores
      ``max(block_size, block_size × (dim + 2) // m)`` database rows per
      block — one block for a single query over up to
      ``block_size × (dim + 2)`` users, ``block_size``-row blocks for a
      batch of ``dim + 2`` or more — so a scan holds
      ``block_size × max(dim + 2, m)`` score cells of scratch plus its
      ``(m, k)`` running best, whatever the number of users;
    * :func:`iter_source_rows` (``width`` = number of users ``N``)
      yields ``max(1, block_size × (dim + 2) // N)`` whole score rows
      per chunk, at most ``max(block_size × (dim + 2), N)`` cells.
    """
    return max(1, block_size * (dim + 2) // max(width, 1))


def iter_source_rows(
    embedding: EmbeddingLike,
    sources: Sequence[int] | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream full score rows ``x(u, ·)`` in bounded row chunks.

    Yields ``(user_ids, rows)`` where ``rows[i]`` is the complete
    ``(num_users,)`` score row of ``user_ids[i]``.  Callers that need a
    whole-row statistic (a median, a per-row top-k mass) consume the
    stream instead of materialising the dense ``(num_users, num_users)``
    matrix.  A chunk holds :func:`block_rows` rows and is scored in
    one :func:`score_block` call; each yielded ``rows`` array is fresh,
    so the caller owns it and may reorder it in place.
    """
    block_size = check_positive_int("block_size", block_size)
    num_users = embedding.source.shape[0]
    ids = (
        np.arange(num_users, dtype=np.int64)
        if sources is None
        else np.atleast_1d(check_users(sources, num_users))
    )
    rows_per_chunk = block_rows(block_size, embedding.source.shape[1], num_users)
    targets = augment_targets(embedding)
    for start in range(0, ids.shape[0], rows_per_chunk):
        chunk = ids[start : start + rows_per_chunk]
        yield chunk, score_block(augment_sources(embedding, chunk), targets)


#: Aggregators with a vectorised per-block form (Eq. 7 names).
_BUILTIN_AGGREGATES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "ave": lambda block: block.mean(axis=0),
    "sum": lambda block: block.sum(axis=0),
    "max": lambda block: block.max(axis=0),
    "latest": lambda block: block[-1],
}

AggregatorLike = Union[str, Callable[[np.ndarray], float]]


def aggregated_scores(
    embedding: EmbeddingLike,
    sources: Sequence[int],
    aggregator: AggregatorLike,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Aggregate ``x(u, v)`` over sources ``u`` for every target ``v``.

    The blocked replacement for the old dense
    ``(num_sources, num_users)`` matrix in
    :meth:`repro.core.prediction.EmbeddingPredictor.diffusion_scores`:
    each target block of at most ``block_size`` columns is scored and
    reduced before the next is touched.  ``aggregator`` is either a
    builtin name (``"ave"``/``"sum"``/``"max"``/``"latest"``, applied
    vectorised) or any callable mapping a 1-D per-target score column
    to a float (applied per column via ``np.apply_along_axis``).
    """
    block_size = check_positive_int("block_size", block_size)
    num_users = embedding.source.shape[0]
    if isinstance(aggregator, str):
        try:
            reduce = _BUILTIN_AGGREGATES[aggregator.strip().lower()]
        except KeyError:
            raise ServingError(
                f"unknown aggregator {aggregator!r}; expected one of "
                f"{sorted(_BUILTIN_AGGREGATES)} or a callable"
            ) from None
    else:
        custom = aggregator

        def reduce(block: np.ndarray) -> np.ndarray:
            return np.apply_along_axis(custom, 0, block)
    queries = augment_sources(embedding, sources)
    targets = augment_targets(embedding)
    out = np.empty(num_users, dtype=np.float64)
    for start in range(0, num_users, block_size):
        pairwise = score_block(queries, targets[start : start + block_size])
        out[start : start + pairwise.shape[1]] = reduce(pairwise)
    return out
