"""Precomputed top-k influence indices, persisted next to the store.

A serving deployment that answers the same "top influenced / top
influencers" questions at request rate should not rescan the embedding
per query.  :class:`TopKIndex` materialises the exact answer for
*every* user once (through the blocked :class:`~repro.serve.topk.
TopKEngine`, so the build itself never allocates a dense score matrix)
and persists it as two raw ``.npy`` shards — ``(num_users, k)`` ids and
scores — plus a JSON manifest, all written atomically.  Opened with
``np.load(mmap_mode="r")``, a lookup is two row slices of shared
read-only pages: O(k), independent of ``num_users``.  The manifest
records a :func:`~repro.serve.store.content_digest` of both parts, which
:meth:`TopKIndex.open` checks, so a damaged part raises
:class:`ServingError` instead of answering wrongly.

Because the index is built by the same engine the scan path uses, an
index lookup with ``k' ≤ k`` returns bitwise-identical results to a
live blocked scan — the service exploits that to route queries.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.ckpt.atomic import atomic_output, atomic_write_text
from repro.errors import ServingError
from repro.serve.store import (
    content_digest,
    load_shard,
    manifest_field,
    read_manifest,
    store_fingerprint,
)
from repro.serve.scoring import check_k, check_users
from repro.serve.topk import TopKEngine, TopKResult

__all__ = ["TopKIndex", "INDEX_DIRECTIONS"]

PathLike = Union[str, Path]

#: Bumped on any incompatible change to the on-disk layout.
INDEX_FORMAT_VERSION = 1

#: The two query directions an index can be built for.
INDEX_DIRECTIONS = ("influenced", "influencers")

#: Users per engine batch of :meth:`TopKIndex.build`.  A batch this
#: size keeps the scan's 1,024-row blocks (DESIGN.md §12), and batch
#: boundaries leave every bit of the index unchanged.
BUILD_BATCH = 64


def _manifest_name(direction: str) -> str:
    return f"topk_{direction}.json"


def _shard_name(direction: str, part: str) -> str:
    return f"topk_{direction}_{part}.npy"


def _check_direction(direction: str) -> str:
    if direction not in INDEX_DIRECTIONS:
        raise ServingError(
            f"unknown index direction {direction!r}; "
            f"expected one of {INDEX_DIRECTIONS}"
        )
    return direction


class TopKIndex:
    """Materialised exact top-k answers for one query direction.

    Parameters
    ----------
    direction:
        ``"influenced"`` (rows rank targets of each source) or
        ``"influencers"`` (rows rank sources of each target).
    indices / scores:
        ``(num_users, k)`` ranked user ids and scores, row ``u`` being
        the full answer for query user ``u``.
    """

    def __init__(self, direction: str, indices: np.ndarray, scores: np.ndarray):
        self.direction = _check_direction(direction)
        if indices.shape != scores.shape or indices.ndim != 2:
            raise ServingError(
                f"index shards disagree: ids {indices.shape}, "
                f"scores {scores.shape}"
            )
        self.indices = indices
        self.scores = scores

    @property
    def num_users(self) -> int:
        """Number of query users covered (one row each)."""
        return int(self.indices.shape[0])

    @property
    def k(self) -> int:
        """Depth of the precomputed ranking."""
        return int(self.indices.shape[1])

    # ------------------------------------------------------------------
    # Build / query
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, engine: TopKEngine, k: int, direction: str = "influenced"
    ) -> "TopKIndex":
        """Precompute the exact top-k for every user via ``engine``.

        ``k`` beyond the number of users is cut to it.  Queries run in
        engine batches of :data:`BUILD_BATCH` users; each batch is a
        blocked scan (blocks sized by
        :func:`repro.serve.scoring.block_rows`), so its scratch does not
        grow with ``num_users``.
        """
        _check_direction(direction)
        query = (
            engine.top_influenced_batch
            if direction == "influenced"
            else engine.top_influencers_batch
        )
        num_users = engine.num_users
        depth = check_k(min(k, num_users), num_users)
        indices = np.empty((num_users, depth), dtype=np.int64)
        scores = np.empty_like(indices, dtype=np.float64)
        for start in range(0, num_users, BUILD_BATCH):
            stop = min(start + BUILD_BATCH, num_users)
            result = query(np.arange(start, stop, dtype=np.int64), depth)
            indices[start:stop] = result.indices
            scores[start:stop] = result.scores
        return cls(direction, indices, scores)

    def query(self, user: int, k: int | None = None) -> TopKResult:
        """The precomputed ranking for ``user``, cut to ``k`` entries.

        A 1-D batch of users gets one ranked row each.
        """
        user = check_users(user, self.num_users)
        depth = self.k if k is None else check_k(k, self.num_users)
        if depth > self.k:
            raise ServingError(
                f"k={depth} exceeds the precomputed index depth {self.k}"
            )
        return TopKResult(
            indices=np.asarray(self.indices[user, :depth]),
            scores=np.asarray(self.scores[user, :depth]),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory: PathLike) -> Path:
        """Persist the index into a store directory, manifest last.

        The manifest records the fingerprint of the store in
        ``directory``, the store the index was computed from.
        """
        directory = Path(directory)
        parts = {
            "ids": np.ascontiguousarray(self.indices, dtype=np.int64),
            "scores": np.ascontiguousarray(self.scores, dtype=np.float64),
        }
        for part, array in parts.items():
            with atomic_output(directory / _shard_name(self.direction, part)) as tmp:
                np.save(tmp, array)
        manifest = {
            "format_version": INDEX_FORMAT_VERSION,
            "direction": self.direction,
            "num_users": self.num_users,
            "k": self.k,
            "digest": content_digest(parts.values()),
            "store_fingerprint": store_fingerprint(directory),
            "shards": {
                "ids": _shard_name(self.direction, "ids"),
                "scores": _shard_name(self.direction, "scores"),
            },
        }
        return atomic_write_text(
            directory / _manifest_name(self.direction),
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )

    @classmethod
    def open(cls, directory: PathLike, direction: str = "influenced") -> "TopKIndex":
        """Open a persisted index with memory-mapped shards.

        An index whose recorded store fingerprint differs from the
        store now in ``directory`` (the store was re-saved after the
        index was built), or whose parts do not match the manifest's
        digest, raises :class:`ServingError`.
        """
        directory = Path(directory)
        manifest_path = directory / _manifest_name(_check_direction(direction))
        if not manifest_path.is_file():
            raise ServingError(f"no persisted {direction!r} index in {directory}")
        manifest = read_manifest(manifest_path)
        if manifest.get("format_version") != INDEX_FORMAT_VERSION:
            raise ServingError(
                f"unsupported index format_version "
                f"{manifest.get('format_version')!r}"
            )
        if manifest.get("store_fingerprint") != store_fingerprint(directory):
            raise ServingError(
                f"stale {direction!r} index in {directory}: it was built for "
                "another store; rebuild it with precompute"
            )
        shards = manifest_field(manifest, "shards", dict, manifest_path)
        arrays = {}
        for part, dtype in (("ids", np.int64), ("scores", np.float64)):
            filename = shards.get(part)
            if not isinstance(filename, str) or not (
                directory / filename
            ).is_file():
                raise ServingError(
                    f"missing index shard {part!r} for direction {direction!r}"
                )
            arrays[part] = load_shard(directory / filename, dtype)
        index = cls(direction, arrays["ids"], arrays["scores"])
        declared = (
            manifest_field(manifest, "num_users", int, manifest_path),
            manifest_field(manifest, "k", int, manifest_path),
        )
        if (index.num_users, index.k) != declared:
            raise ServingError(
                f"index shards disagree with manifest {manifest_path}"
            )
        digest = manifest_field(manifest, "digest", str, manifest_path)
        if content_digest(arrays.values()) != digest:
            raise ServingError(
                f"corrupt {direction!r} index in {directory}: its parts do "
                f"not match the digest in {manifest_path}"
            )
        return index

    @staticmethod
    def exists(directory: PathLike, direction: str = "influenced") -> bool:
        """Whether a persisted index manifest is present."""
        return (Path(directory) / _manifest_name(_check_direction(direction))).is_file()

    def __repr__(self) -> str:
        return (
            f"TopKIndex(direction={self.direction!r}, "
            f"num_users={self.num_users}, k={self.k})"
        )
