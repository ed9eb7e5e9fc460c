"""The influence serving facade: store + engine + optional indices.

:class:`InfluenceService` is what a request handler holds: it opens a
memory-mapped :class:`~repro.serve.store.EmbeddingStore`, discovers any
top-k indices persisted next to it, and routes each query to the
cheapest exact path — an O(k) index lookup when the precomputed depth
covers the request, a blocked scan otherwise.  Both paths return
bitwise-identical rankings (the index is built by the same engine), so
routing is purely a latency decision.

Single and batch queries take one route, ``InfluenceService._query``.
It checks the users and ``k`` with
:func:`~repro.serve.scoring.check_users` and
:func:`~repro.serve.scoring.check_k` before it routes.  The engine and
the index call the same two checks, so a bad request raises
:class:`~repro.errors.ServingError` with one text whichever entry point
takes it.

Telemetry follows the repo's null-default contract: inside a
``with recording(run):`` scope every query increments
``serve.queries`` (labelled by direction and path) and observes its
latency into the ``serve.query.seconds`` histogram (live percentiles
come from its buckets), and failed queries increment the
``serve.query.errors`` counter (labelled by direction and error type)
before the exception propagates, once per failed query; outside a
scope the cost is one attribute check.  Batches
(``serve.batch.<direction>``) and index precomputes
(``serve.precompute.<direction>``) also open a span; single queries
open none.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from repro.obs.catalog import SERVE_QUERIES, SERVE_QUERY_ERRORS, SERVE_QUERY_SECONDS
from repro.obs.run import active_metrics, active_run
from repro.serve.index import INDEX_DIRECTIONS, TopKIndex
from repro.serve.scoring import DEFAULT_BLOCK_SIZE, check_k, check_users
from repro.serve.store import EmbeddingStore
from repro.serve.topk import TopKEngine, TopKResult

__all__ = ["InfluenceService"]

PathLike = Union[str, Path]


def _record_query(direction: str, path: str, seconds: float) -> None:
    """Record one served query into the ambient metrics registry."""
    if not active_metrics().enabled:
        return
    SERVE_QUERIES.inc(direction=direction, path=path)
    SERVE_QUERY_SECONDS.observe(seconds, direction=direction, path=path)


def _record_error(direction: str, error: BaseException) -> None:
    """Count one failed query (the exception still propagates)."""
    if not active_metrics().enabled:
        return
    SERVE_QUERY_ERRORS.inc(direction=direction, error=type(error).__name__)


class InfluenceService:
    """Read-optimized top-k influence queries over a persisted store.

    Parameters
    ----------
    store:
        An opened (memory-mapped) embedding store.
    block_size:
        Block size for live scans, which are sized by
        :func:`repro.serve.scoring.block_rows` (see :class:`TopKEngine`).
    indices:
        Pre-opened top-k indices by direction; :meth:`open` discovers
        persisted ones automatically.
    """

    def __init__(
        self,
        store: EmbeddingStore,
        block_size: int = DEFAULT_BLOCK_SIZE,
        indices: dict[str, TopKIndex] | None = None,
    ):
        self.store = store
        self.engine = TopKEngine(store, block_size=block_size)
        self.indices = dict(indices or {})

    @classmethod
    def open(
        cls,
        directory: PathLike,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "InfluenceService":
        """Open the store at ``directory`` plus any persisted indices."""
        store = EmbeddingStore.open(directory)
        indices = {
            direction: TopKIndex.open(directory, direction)
            for direction in INDEX_DIRECTIONS
            if TopKIndex.exists(directory, direction)
        }
        return cls(store, block_size=block_size, indices=indices)

    @property
    def num_users(self) -> int:
        """Size of the user universe being served."""
        return self.store.num_users

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def top_influenced(self, user: int, k: int) -> TopKResult:
        """The ``k`` users most influenced by ``user``, best first."""
        return self._query("influenced", user, k)

    def top_influencers(self, user: int, k: int) -> TopKResult:
        """The ``k`` users most influencing ``user``, best first."""
        return self._query("influencers", user, k)

    def top_influenced_batch(self, users: Sequence[int], k: int) -> TopKResult:
        """Batched :meth:`top_influenced`, one ranked row per user."""
        return self._query("influenced", users, k)

    def top_influencers_batch(self, users: Sequence[int], k: int) -> TopKResult:
        """Batched :meth:`top_influencers`, one ranked row per user."""
        return self._query("influencers", users, k)

    def _query(
        self, direction: str, users: int | Sequence[int], k: int
    ) -> TopKResult:
        """The one query route: check, route, record.

        ``users`` is one id or a 1-D batch.  Both are checked before
        routing, so the index and the scan refuse the same request with
        the same text, and a failure is counted once.  Only a batch
        opens a span.
        """
        start = time.perf_counter()
        try:
            users = check_users(users, self.num_users)
            k = check_k(k, self.num_users)
            if isinstance(users, np.ndarray):
                with active_run().span(
                    f"serve.batch.{direction}", num_queries=users.shape[0], k=k
                ) as span:
                    result, path = self._route(direction, users, k)
                    span.set_attribute("path", path)
            else:
                result, path = self._route(direction, users, k)
        except BaseException as exc:
            _record_error(direction, exc)
            raise
        _record_query(direction, path, time.perf_counter() - start)
        return result

    def _route(
        self, direction: str, users: int | np.ndarray, k: int
    ) -> tuple[TopKResult, str]:
        """Answer checked ``users`` from the index if it is deep enough.

        Slicing the index with one id takes a row, with a batch a block.
        """
        index = self.indices.get(direction)
        if index is not None and k <= index.k:
            result = TopKResult(
                indices=np.asarray(index.indices[users, :k]),
                scores=np.asarray(index.scores[users, :k]),
            )
            return result, "index"
        batch = isinstance(users, np.ndarray)
        engine = self.engine
        if direction == "influenced":
            scan = engine.top_influenced_batch if batch else engine.top_influenced
        else:
            scan = engine.top_influencers_batch if batch else engine.top_influencers
        return scan(users, k), "scan"

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------

    def precompute(
        self, k: int, directions: Sequence[str] = ("influenced",)
    ) -> None:
        """Build top-k indices for ``directions`` and persist them.

        Each index is written next to the store, so later :meth:`open`
        calls pick it up, and reopened mapped, so it serves this
        service's queries from shared pages like an opened one.
        """
        for direction in directions:
            with active_run().span(f"serve.precompute.{direction}", k=k):
                index = TopKIndex.build(self.engine, k, direction=direction)
            index.save(self.store.directory)
            self.indices[direction] = TopKIndex.open(
                self.store.directory, direction
            )

    def __repr__(self) -> str:
        loaded = sorted(self.indices)
        return (
            f"InfluenceService(num_users={self.num_users}, "
            f"indices={loaded})"
        )
