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
Every kernel in this module computes scores with
``np.einsum(..., optimize=False)`` rather than BLAS ``@``.  BLAS picks
different kernels (and therefore different floating-point summation
orders) depending on operand shapes, so a blocked scan through ``@``
would *not* be bitwise-identical to a full-matrix scan.  ``einsum``
reduces each output element independently in a fixed loop order, which
makes every function here invariant to both the block size and the
number of queries in a batch — the property the serving tests pin
bitwise.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, Union

import numpy as np

from repro.errors import ServingError
from repro.utils.validation import check_positive_int

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "EmbeddingLike",
    "augment_sources",
    "augment_targets",
    "score_block",
    "iter_blocks",
    "iter_source_rows",
    "aggregated_scores",
]

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


def _validate_users(users: Sequence[int], num_users: int) -> np.ndarray:
    """Normalise user ids to an int64 array and bounds-check them."""
    ids = np.atleast_1d(np.asarray(users, dtype=np.int64))
    if ids.ndim != 1:
        raise ServingError(f"user ids must be scalar or 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= num_users):
        raise ServingError(
            f"user ids must lie in [0, {num_users}), got range "
            f"[{ids.min()}, {ids.max()}]"
        )
    return ids


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
        ids = _validate_users(users, source.shape[0])
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
        ids = _validate_users(users, target.shape[0])
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


def iter_blocks(
    matrix: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start_row, matrix[start:start + block_size])`` slices."""
    block_size = check_positive_int("block_size", block_size)
    for start in range(0, matrix.shape[0], block_size):
        yield start, matrix[start : start + block_size]


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
        else _validate_users(sources, num_users)
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
    ids = _validate_users(sources, num_users)
    if ids.shape[0] == 0:
        raise ServingError("aggregated_scores requires at least one source")
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
    queries = augment_sources(embedding, ids)
    targets = augment_targets(embedding)
    out = np.empty(num_users, dtype=np.float64)
    for col_start, block in iter_blocks(targets, block_size):
        pairwise = score_block(queries, block)  # (num_sources, b)
        out[col_start : col_start + block.shape[0]] = reduce(pairwise)
    return out
