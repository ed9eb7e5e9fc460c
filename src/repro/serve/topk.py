"""Blocked exact top-k engine over the augmented-vector MIPS decomposition.

Answers the two serving questions at bounded memory:

* ``top_influenced(u, k)`` — the ``k`` users ``v`` maximising
  ``x(u, v)``: a max-inner-product scan of the augmented *target* rows
  with query ``[S_u ; b_u ; 1]``;
* ``top_influencers(v, k)`` — the ``k`` users ``u`` maximising
  ``x(u, v)``: the symmetric scan of the augmented *source* rows with
  query ``[T_v ; 1 ; b̃_v]``.

The database side is scanned in row blocks sized by score cells
(:func:`repro.serve.scoring.block_rows`), so a single query over a few
thousand users is one block.  Each block goes through
:func:`repro.serve.scoring.candidate_scores`: one BLAS pass picks the
entries that can still reach the k-th place — against the block's own
k-th gemm score and the running best's exact k-th score — and only
those are scored exactly.  The survivors are merged after the running
best and cut back to ``k``, which bounds a scan's scratch whatever the
number of users.  Each cut is a selection, not a sort:
``np.partition`` finds the k-th best score of every merged row, the
``k`` survivors (every score above it, then the lowest ids among those
equal to it) are kept, and only those are ``lexsort``-ed.  The
augmented database of each direction, and its largest row norm, are
built once per engine, on its first scan.

Results are *exact* and bitwise-identical to a brute-force full-scan
argsort: gemm only chooses candidates, every returned score comes from
the deterministic ``einsum`` kernel (see :mod:`repro.serve.scoring`,
whose :func:`~repro.serve.scoring.candidate_scores` states the margin
that makes the choice safe), and ties are broken by the smaller user
id, which makes the ranking a total order independent of blocking.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.serve.scoring import (
    DEFAULT_BLOCK_SIZE,
    EmbeddingLike,
    augment_sources,
    augment_targets,
    block_rows,
    candidate_scores,
    check_k,
    max_row_norm,
)
from repro.utils.validation import check_positive_int

__all__ = ["TopKResult", "TopKEngine"]


@dataclass(frozen=True)
class TopKResult:
    """Ranked answer to one (or a batch of) top-k queries.

    Attributes
    ----------
    indices:
        User ids in rank order — shape ``(k,)`` for a single query,
        ``(m, k)`` for a batch.
    scores:
        The matching influence scores ``x(u, v)``, same shape.
    """

    indices: np.ndarray
    scores: np.ndarray

    @property
    def k(self) -> int:
        """Number of ranked results per query."""
        return int(self.indices.shape[-1])


def _tied_survivors(
    negated: np.ndarray, indices: np.ndarray, kth: np.ndarray, k: int
) -> np.ndarray:
    """Survivor mask of rows whose k-th score is tied or NaN.

    Every entry strictly above the k-th score survives; entries equal
    to it fill the row up to ``k`` in position order, which is id order
    in the rows :meth:`TopKEngine._scan` builds (see :func:`_rank_topk`).
    A row whose k-th score is NaN keeps the survivors of a full
    ``lexsort``, which ranks NaN last.
    """
    above = negated < kth
    tied = negated == kth
    short = k - above.sum(axis=-1, keepdims=True)
    keep = above | (tied & (np.cumsum(tied, axis=-1) <= short))
    nan_rows = np.flatnonzero(np.isnan(kth[:, 0]))
    if nan_rows.size:
        full = np.lexsort((indices[nan_rows], negated[nan_rows]), axis=-1)
        keep[nan_rows] = False
        keep[nan_rows[:, None], full[:, :k]] = True
    return keep


def _rank_topk(
    scores: np.ndarray, indices: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of ``(m, w)`` candidates, ties to low id.

    The result is ordered by ``(-score, index)`` — descending score,
    ascending user id on exact ties — a deterministic total order, so
    cutting to ``k`` after every merge step commutes with cutting once
    at the end (the property the bitwise tests pin).

    Rows wider than ``k`` are first cut by selection, in O(w):
    ``np.partition`` finds each row's k-th largest score, and the
    entries at or above it survive.  Where more than ``k`` entries
    reach that score, ties straddle the k-th place; those rows keep
    every entry strictly above it and then the entries equal to it in
    position order.  Position order among equal scores is ascending id
    order because of how :meth:`TopKEngine._scan` builds a row: the
    running best, already sorted by ``(-score, index)``, followed by a
    block's candidates, whose ids ascend and all exceed the best's (a
    row's ``-inf`` padding comes last, with an id past the block).
    Only the ``(m, k)`` survivors are then ``lexsort``-ed.
    """
    if scores.shape[-1] > k:
        negated = -scores
        kth = np.partition(negated, k - 1, axis=-1)[:, k - 1 : k]
        keep = negated <= kth
        tied_rows = np.flatnonzero(keep.sum(axis=-1) != k)
        if tied_rows.size:
            keep[tied_rows] = _tied_survivors(
                negated[tied_rows], indices[tied_rows], kth[tied_rows], k
            )
        columns = np.nonzero(keep)[1].reshape(scores.shape[0], k)
        scores = np.take_along_axis(scores, columns, axis=-1)
        indices = np.take_along_axis(indices, columns, axis=-1)
    order = np.lexsort((indices, -scores), axis=-1)
    return (
        np.take_along_axis(scores, order, axis=-1),
        np.take_along_axis(indices, order, axis=-1),
    )


class TopKEngine:
    """Exact blocked top-k queries over an embedding or embedding store.

    Parameters
    ----------
    embedding:
        Anything exposing ``source``/``target``/``source_bias``/
        ``target_bias`` — an in-memory
        :class:`~repro.core.embeddings.InfluenceEmbedding` or a
        memory-mapped :class:`~repro.serve.store.EmbeddingStore`.
    block_size:
        Sets the score-cell budget of a scan block; blocks are sized by
        :func:`repro.serve.scoring.block_rows`.

    Each block is scored in two passes: gemm picks the candidates and
    einsum scores them, so answers are bitwise those of a full einsum
    scan whatever the BLAS thread count (see
    :func:`~repro.serve.scoring.candidate_scores`).  A database or query
    holding NaN or ±inf, or one whose norms overflow, is scanned by
    einsum alone.

    The engine snapshots the parameters on first scan: the augmented
    database of a direction (``augment_targets`` for
    :meth:`top_influenced`, ``augment_sources`` for
    :meth:`top_influencers`) and its largest row norm are built once,
    when that direction is first queried, and reused by every later
    scan.  That costs ``num_users × (dim + 2)`` float64 per direction
    used, and means
    parameters changed after the first scan are not seen — build a new
    engine for a new embedding.  A served store is a read-only memmap,
    so :class:`~repro.serve.service.InfluenceService`'s one engine per
    store augments it once.

    Query users and ``k`` go through
    :func:`~repro.serve.scoring.check_users` and
    :func:`~repro.serve.scoring.check_k`, the checks the index and the
    service also call, so a bad request gets the same
    :class:`~repro.errors.ServingError` text from each.
    """

    def __init__(
        self,
        embedding: EmbeddingLike,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        self.embedding = embedding
        self.block_size = check_positive_int("block_size", block_size)
        self._databases: dict[Callable, tuple[np.ndarray, float]] = {}
        self._database_lock = threading.Lock()

    @property
    def num_users(self) -> int:
        """Size of the user universe being served."""
        return int(self.embedding.source.shape[0])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def top_influenced(self, user: int, k: int) -> TopKResult:
        """The ``k`` users most influenced by ``user``, best first."""
        batch = self.top_influenced_batch([user], k)
        return TopKResult(batch.indices[0], batch.scores[0])

    def top_influencers(self, user: int, k: int) -> TopKResult:
        """The ``k`` users most influencing ``user``, best first."""
        batch = self.top_influencers_batch([user], k)
        return TopKResult(batch.indices[0], batch.scores[0])

    def top_influenced_batch(
        self, users: Sequence[int], k: int
    ) -> TopKResult:
        """Batched :meth:`top_influenced` — one ranked row per query user."""
        queries = augment_sources(self.embedding, users)
        return self._scan(queries, augment_targets, k)

    def top_influencers_batch(
        self, users: Sequence[int], k: int
    ) -> TopKResult:
        """Batched :meth:`top_influencers` — one ranked row per query user."""
        queries = augment_targets(self.embedding, users)
        return self._scan(queries, augment_sources, k)

    # ------------------------------------------------------------------
    # Core scan
    # ------------------------------------------------------------------

    def _database(
        self, augment: Callable[[EmbeddingLike], np.ndarray]
    ) -> tuple[np.ndarray, float]:
        """The database ``augment`` builds and its largest row norm, built once.

        The norm is :func:`~repro.serve.scoring.max_row_norm`: NaN or
        infinite when the database is not finite, which sends every
        scan of it down the all-einsum path of
        :func:`~repro.serve.scoring.candidate_scores`.  A built database
        is read without the lock; the lock only keeps concurrent first
        scans from building it twice.
        """
        entry = self._databases.get(augment)
        if entry is None:
            with self._database_lock:
                entry = self._databases.get(augment)
                if entry is None:
                    database = augment(self.embedding)
                    entry = (database, max_row_norm(database))
                    self._databases[augment] = entry
        return entry

    def _scan(
        self, queries: np.ndarray, augment: Callable, k: int
    ) -> TopKResult:
        """Blocked exact MIPS: merge running top-k after every block.

        Blocks are sized by :func:`block_rows`.  Each block yields only
        the entries :func:`candidate_scores` keeps, with their exact
        scores; the first block is cut on its own, each later one
        merged after the running best, whose k-th score is the floor
        of the next block's choice.
        """
        k = check_k(k, self.num_users)
        database, database_norm = self._database(augment)
        num_queries = queries.shape[0]
        rows = max(
            self.block_size,
            block_rows(self.block_size, database.shape[1] - 2, num_queries),
        )
        best_scores = best_indices = None
        for start in range(0, database.shape[0], rows):
            block = database[start : start + rows]
            full = best_scores is not None and best_scores.shape[1] == k
            scores, columns = candidate_scores(
                queries, block, k, database_norm,
                best_scores[:, -1] if full else None,
            )
            if scores.shape[1] == 0:
                continue
            indices = columns + start
            if best_scores is not None:
                scores = np.concatenate([best_scores, scores], axis=1)
                indices = np.concatenate([best_indices, indices], axis=1)
            best_scores, best_indices = _rank_topk(scores, indices, k)
        return TopKResult(indices=best_indices, scores=best_scores)
