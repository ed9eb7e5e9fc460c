"""Precomputed top-k influence indices, persisted next to the store.

A serving deployment that answers the same "top influenced / top
influencers" questions at request rate should not rescan the embedding
per query.  :class:`TopKIndex` materialises the exact answer for
*every* user once (through the blocked :class:`~repro.serve.topk.
TopKEngine`, so the build itself never allocates a dense score matrix)
and persists it as two raw ``.npy`` shards — ``(num_users, k)`` ids and
scores — plus a JSON manifest, all written atomically.  Opened with
``np.load(mmap_mode="r")``, a lookup is two row slices of shared
read-only pages: O(k), independent of ``num_users``.

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
from repro.serve.store import load_shard
from repro.serve.topk import TopKEngine, TopKResult
from repro.utils.validation import check_positive_int

__all__ = ["TopKIndex", "INDEX_DIRECTIONS"]

PathLike = Union[str, Path]

#: Bumped on any incompatible change to the on-disk layout.
INDEX_FORMAT_VERSION = 1

#: The two query directions an index can be built for.
INDEX_DIRECTIONS = ("influenced", "influencers")


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
        cls,
        engine: TopKEngine,
        k: int,
        direction: str = "influenced",
        batch_size: int = 64,
    ) -> "TopKIndex":
        """Precompute the exact top-k for every user via ``engine``.

        Queries run in batches of ``batch_size`` users; each batch is a
        blocked scan, so peak memory stays bounded by the engine's
        ``block_size`` regardless of ``num_users``.
        """
        _check_direction(direction)
        k = check_positive_int("k", k)
        batch_size = check_positive_int("batch_size", batch_size)
        query = (
            engine.top_influenced_batch
            if direction == "influenced"
            else engine.top_influencers_batch
        )
        num_users = engine.num_users
        indices = np.empty((num_users, min(k, num_users)), dtype=np.int64)
        scores = np.empty_like(indices, dtype=np.float64)
        for start in range(0, num_users, batch_size):
            users = np.arange(
                start, min(start + batch_size, num_users), dtype=np.int64
            )
            result = query(users, min(k, num_users))
            indices[start : start + users.shape[0]] = result.indices
            scores[start : start + users.shape[0]] = result.scores
        return cls(direction, indices, scores)

    def query(self, user: int, k: int | None = None) -> TopKResult:
        """The precomputed ranking for ``user``, cut to ``k`` entries."""
        user = int(user)
        if not 0 <= user < self.num_users:
            raise ServingError(
                f"user {user} outside [0, {self.num_users})"
            )
        depth = self.k if k is None else check_positive_int("k", k)
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
        """Persist the index into a store directory, manifest last."""
        directory = Path(directory)
        with atomic_output(directory / _shard_name(self.direction, "ids")) as tmp:
            np.save(tmp, np.ascontiguousarray(self.indices, dtype=np.int64))
        with atomic_output(
            directory / _shard_name(self.direction, "scores")
        ) as tmp:
            np.save(tmp, np.ascontiguousarray(self.scores, dtype=np.float64))
        manifest = {
            "format_version": INDEX_FORMAT_VERSION,
            "direction": self.direction,
            "num_users": self.num_users,
            "k": self.k,
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
        """Open a persisted index with memory-mapped shards."""
        directory = Path(directory)
        manifest_path = directory / _manifest_name(_check_direction(direction))
        if not manifest_path.is_file():
            raise ServingError(f"no persisted {direction!r} index in {directory}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ServingError(
                f"corrupt index manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("format_version") != INDEX_FORMAT_VERSION:
            raise ServingError(
                f"unsupported index format_version "
                f"{manifest.get('format_version')!r}"
            )
        shards = manifest.get("shards", {})
        arrays = {}
        for part in ("ids", "scores"):
            filename = shards.get(part)
            if filename is None or not (directory / filename).is_file():
                raise ServingError(
                    f"missing index shard {part!r} for direction {direction!r}"
                )
            arrays[part] = load_shard(directory / filename)
        index = cls(direction, arrays["ids"], arrays["scores"])
        if index.num_users != int(manifest.get("num_users", -1)) or index.k != int(
            manifest.get("k", -1)
        ):
            raise ServingError(
                f"index shards disagree with manifest {manifest_path}"
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
