"""The influence serving facade: store + engine + optional indices.

:class:`InfluenceService` is what a request handler holds: it opens a
memory-mapped :class:`~repro.serve.store.EmbeddingStore`, discovers any
top-k indices persisted next to it, and routes each query to the
cheapest exact path — an O(k) index lookup when the precomputed depth
covers the request, a blocked scan otherwise.  Both paths return
bitwise-identical rankings (the index is built by the same engine), so
routing is purely a latency decision.

Telemetry follows the repo's null-default contract: inside a
``with recording(run):`` scope every query increments
``serve.queries`` (labelled by direction and path) and observes its
latency into the ``serve.query.seconds`` histogram (live percentiles
come from its buckets), and failed queries increment the
``serve.query.errors`` counter (labelled by direction and error type)
before the exception propagates; outside a scope the cost is one
attribute check.  Batch entry points and index precomputes
additionally open a span; single queries open none.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from repro.errors import ServingError
from repro.obs.run import active_metrics, active_run
from repro.serve.index import INDEX_DIRECTIONS, TopKIndex
from repro.serve.scoring import DEFAULT_BLOCK_SIZE
from repro.serve.store import EmbeddingStore
from repro.serve.topk import TopKEngine, TopKResult

__all__ = ["InfluenceService", "SERVE_LATENCY_BUCKETS"]

PathLike = Union[str, Path]

#: Query-latency histogram edges in seconds: sub-millisecond index hits
#: up to multi-second cold full scans.
SERVE_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    5.0,
)


def _record_query(direction: str, path: str, seconds: float) -> None:
    """Record one served query into the ambient metrics registry."""
    metrics = active_metrics()
    if not metrics.enabled:
        return
    metrics.counter(
        "serve.queries", "top-k influence queries served"
    ).inc(direction=direction, path=path)
    metrics.histogram(
        "serve.query.seconds", SERVE_LATENCY_BUCKETS, "per-query latency"
    ).observe(seconds, direction=direction, path=path)


def _record_error(direction: str, error: BaseException) -> None:
    """Count one failed query (the exception still propagates)."""
    metrics = active_metrics()
    if not metrics.enabled:
        return
    metrics.counter(
        "serve.query.errors", "failed top-k influence queries"
    ).inc(direction=direction, error=type(error).__name__)


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
    # Single-user queries
    # ------------------------------------------------------------------

    def top_influenced(self, user: int, k: int) -> TopKResult:
        """The ``k`` users most influenced by ``user``, best first."""
        return self._query("influenced", user, k)

    def top_influencers(self, user: int, k: int) -> TopKResult:
        """The ``k`` users most influencing ``user``, best first."""
        return self._query("influencers", user, k)

    def _check_user(self, user: int) -> int:
        """Validate a user id against the served universe."""
        user = int(user)
        if not 0 <= user < self.num_users:
            raise ServingError(
                f"user {user} outside served universe "
                f"[0, {self.num_users})"
            )
        return user

    def _check_users(self, users: np.ndarray) -> np.ndarray:
        """Validate a batch of user ids against the served universe.

        Negative ids would otherwise wrap silently through numpy fancy
        indexing on the index path and return the wrong users' rows.
        """
        if users.ndim != 1 or users.shape[0] == 0:
            raise ServingError(
                "at least one query user is required (1-D id array)"
            )
        bad = (users < 0) | (users >= self.num_users)
        if bad.any():
            raise ServingError(
                f"user {int(users[bad][0])} outside served universe "
                f"[0, {self.num_users})"
            )
        return users

    def _check_k(self, k: int) -> int:
        """Validate ``k`` once, before path routing.

        Both backends reject bad depths (the scan via
        ``TopKEngine._check_k``, the index via its depth check), but
        routing happens first — an unchecked ``k`` picks the path, and
        the index path's numpy slicing would quietly truncate
        ``k > num_users`` instead of failing like the scan does.
        Validating here makes the two paths raise identically.
        """
        k = int(k)
        if k < 1:
            raise ServingError(f"k must be a positive integer, got {k}")
        if k > self.num_users:
            raise ServingError(
                f"k={k} exceeds num_users={self.num_users}"
            )
        return k

    def _query(self, direction: str, user: int, k: int) -> TopKResult:
        start = time.perf_counter()
        try:
            user = self._check_user(user)
            k = self._check_k(k)
            index = self.indices.get(direction)
            if index is not None and k <= index.k:
                result = index.query(user, k)
                path = "index"
            else:
                scan = (
                    self.engine.top_influenced
                    if direction == "influenced"
                    else self.engine.top_influencers
                )
                result = scan(user, k)
                path = "scan"
        except BaseException as exc:
            _record_error(direction, exc)
            raise
        _record_query(direction, path, time.perf_counter() - start)
        return result

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------

    def top_influenced_batch(self, users: Sequence[int], k: int) -> TopKResult:
        """Batched :meth:`top_influenced`, one ranked row per user."""
        return self._query_batch("influenced", users, k)

    def top_influencers_batch(self, users: Sequence[int], k: int) -> TopKResult:
        """Batched :meth:`top_influencers`, one ranked row per user."""
        return self._query_batch("influencers", users, k)

    def _query_batch(
        self, direction: str, users: Sequence[int], k: int
    ) -> TopKResult:
        users = np.asarray(users, dtype=np.int64)
        start = time.perf_counter()
        index = self.indices.get(direction)
        with active_run().span(
            f"serve.batch.{direction}", num_queries=int(users.shape[0]), k=k
        ) as span:
            try:
                users = self._check_users(users)
                k = self._check_k(k)
                if index is not None and k <= index.k:
                    result = TopKResult(
                        indices=np.asarray(index.indices[users, :k]),
                        scores=np.asarray(index.scores[users, :k]),
                    )
                    path = "index"
                else:
                    scan = (
                        self.engine.top_influenced_batch
                        if direction == "influenced"
                        else self.engine.top_influencers_batch
                    )
                    result = scan(users, k)
                    path = "scan"
            except BaseException as exc:
                _record_error(direction, exc)
                raise
            span.set_attribute("path", path)
        _record_query(direction, path, time.perf_counter() - start)
        return result

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------

    def precompute(
        self,
        k: int,
        directions: Sequence[str] = ("influenced",),
        batch_size: int = 64,
        persist: bool = True,
    ) -> dict[str, TopKIndex]:
        """Build (and by default persist) top-k indices for ``directions``.

        Built indices immediately serve subsequent queries; with
        ``persist=True`` they are also written next to the store so
        future :meth:`open` calls pick them up.
        """
        built: dict[str, TopKIndex] = {}
        for direction in directions:
            with active_run().span(
                f"serve.precompute.{direction}", k=k
            ):
                index = TopKIndex.build(
                    self.engine, k, direction=direction, batch_size=batch_size
                )
            if persist:
                index.save(self.store.directory)
                # Reopen mapped so served pages are shared, like open().
                index = TopKIndex.open(self.store.directory, direction)
            self.indices[direction] = index
            built[direction] = index
        return built

    def index_batch_query(self, direction: str, users: Sequence[int]) -> TopKResult:
        """Full-depth index rows for ``users`` (index must exist)."""
        index = self.indices.get(direction)
        if index is None:
            error = ServingError(f"no {direction!r} index is loaded")
            _record_error(direction, error)
            raise error
        users = np.asarray(users, dtype=np.int64)
        try:
            users = self._check_users(users)
        except ServingError as exc:
            _record_error(direction, exc)
            raise
        return TopKResult(
            indices=np.asarray(index.indices[users]),
            scores=np.asarray(index.scores[users]),
        )

    def __repr__(self) -> str:
        loaded = sorted(self.indices)
        return (
            f"InfluenceService(num_users={self.num_users}, "
            f"indices={loaded})"
        )
