"""Memory-mapped embedding store: raw ``.npy`` shards + a JSON manifest.

Training persists an :class:`~repro.core.embeddings.InfluenceEmbedding`
as one compressed ``.npz`` archive — great for archival, useless for
serving: every worker process that opens it decompresses a private copy
of all four arrays.  :class:`EmbeddingStore` is the read-optimized
layout instead: each parameter array is written as an *uncompressed*
raw ``.npy`` shard (via :func:`repro.ckpt.atomic.atomic_output`, so a
crash mid-save never corrupts a live store) and opened with
``np.load(mmap_mode="r")``.  Opening is O(1) — no bytes are read until
a block is scanned — and because the mapping is shared and read-only,
every worker process on the host serves from the *same* physical pages.

Layout of a store directory::

    store/
      store.json           # manifest: version, shapes, dtype, shard names
      source.npy           # S      (num_users, dim)
      target.npy           # T      (num_users, dim)
      source_bias.npy      # b      (num_users,)
      target_bias.npy      # b̃      (num_users,)

Top-k indices persisted by :class:`repro.serve.index.TopKIndex` live in
the same directory, next to the shards they were computed from.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.ckpt.atomic import atomic_output, atomic_write_text
from repro.core.embeddings import InfluenceEmbedding
from repro.errors import ServingError

__all__ = [
    "EmbeddingStore",
    "STORE_FORMAT_VERSION",
    "STORE_MANIFEST_FILENAME",
]

PathLike = Union[str, Path]

#: Bumped on any incompatible change to the on-disk layout.
STORE_FORMAT_VERSION = 1

#: Manifest file name inside a store directory.
STORE_MANIFEST_FILENAME = "store.json"

#: Shard base names, in manifest order.
_SHARDS = ("source", "target", "source_bias", "target_bias")


def load_shard(path: Path) -> np.ndarray:
    """Memory-map one ``.npy`` shard read-only.

    A truncated, zeroed or emptied file raises :class:`ServingError`
    naming the shard instead of numpy's ``ValueError``/``EOFError``.
    """
    try:
        return np.load(path, mmap_mode="r")
    except (ValueError, OSError, EOFError) as exc:
        raise ServingError(f"unreadable shard {path}: {exc}") from exc


class EmbeddingStore:
    """Read-only, memory-mapped view of a persisted embedding.

    Instances come from :meth:`open` (or :meth:`save`, which persists
    and immediately reopens).  The four parameter attributes mirror
    :class:`~repro.core.embeddings.InfluenceEmbedding`, so a store can
    be handed directly to every blocked kernel in
    :mod:`repro.serve.scoring`.
    """

    def __init__(
        self,
        directory: Path,
        source: np.ndarray,
        target: np.ndarray,
        source_bias: np.ndarray,
        target_bias: np.ndarray,
    ):
        self.directory = directory
        self.source = source
        self.target = target
        self.source_bias = source_bias
        self.target_bias = target_bias

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    @classmethod
    def save(
        cls, embedding: InfluenceEmbedding, directory: PathLike
    ) -> "EmbeddingStore":
        """Persist ``embedding`` as a store and return the opened store.

        Each shard is written through ``atomic_output`` (temp + fsync +
        rename), and the manifest is written *last* — a reader either
        sees a complete, consistent store or, if the saver crashed, the
        previous manifest still describing the previous complete shards.
        """
        directory = Path(directory)
        arrays = {
            "source": embedding.source,
            "target": embedding.target,
            "source_bias": embedding.source_bias,
            "target_bias": embedding.target_bias,
        }
        manifest: dict[str, object] = {
            "format_version": STORE_FORMAT_VERSION,
            "num_users": embedding.num_users,
            "dim": embedding.dim,
            "dtype": "float64",
            "shards": {},
        }
        for name in _SHARDS:
            filename = f"{name}.npy"
            with atomic_output(directory / filename) as tmp:
                np.save(tmp, np.ascontiguousarray(arrays[name], dtype=np.float64))
            manifest["shards"][name] = filename  # type: ignore[index]
        atomic_write_text(
            directory / STORE_MANIFEST_FILENAME,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
        return cls.open(directory)

    @classmethod
    def open(cls, directory: PathLike) -> "EmbeddingStore":
        """Open a store with every shard memory-mapped read-only."""
        directory = Path(directory)
        manifest_path = directory / STORE_MANIFEST_FILENAME
        if not manifest_path.is_file():
            raise ServingError(
                f"not an embedding store: missing {manifest_path}"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ServingError(f"corrupt store manifest {manifest_path}: {exc}")
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise ServingError(
                f"unsupported store format_version {version!r} "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        shards = manifest.get("shards", {})
        arrays: dict[str, np.ndarray] = {}
        for name in _SHARDS:
            filename = shards.get(name)
            if filename is None:
                raise ServingError(f"store manifest lists no {name!r} shard")
            path = directory / filename
            if not path.is_file():
                raise ServingError(f"missing store shard {path}")
            arrays[name] = load_shard(path)
        cls._validate_shapes(manifest, arrays)
        return cls(directory, **arrays)

    @staticmethod
    def _validate_shapes(
        manifest: dict[str, object], arrays: dict[str, np.ndarray]
    ) -> None:
        """Cross-check shard shapes against the manifest."""
        num_users = int(manifest.get("num_users", -1))
        dim = int(manifest.get("dim", -1))
        expected = {
            "source": (num_users, dim),
            "target": (num_users, dim),
            "source_bias": (num_users,),
            "target_bias": (num_users,),
        }
        for name, shape in expected.items():
            if arrays[name].shape != shape:
                raise ServingError(
                    f"store shard {name!r} has shape {arrays[name].shape}, "
                    f"manifest says {shape}"
                )

    # ------------------------------------------------------------------
    # Shape / views
    # ------------------------------------------------------------------

    @property
    def num_users(self) -> int:
        """Size of the user universe."""
        return int(self.source.shape[0])

    @property
    def dim(self) -> int:
        """Embedding dimensionality ``K``."""
        return int(self.source.shape[1])

    def embedding(self) -> InfluenceEmbedding:
        """A zero-copy :class:`InfluenceEmbedding` over the mapped shards.

        The wrapped arrays stay memory-mapped and read-only; use
        :meth:`InfluenceEmbedding.copy` if mutable arrays are needed.
        """
        return InfluenceEmbedding(
            self.source, self.target, self.source_bias, self.target_bias
        )

    def __repr__(self) -> str:
        return (
            f"EmbeddingStore(directory={str(self.directory)!r}, "
            f"num_users={self.num_users}, dim={self.dim})"
        )
