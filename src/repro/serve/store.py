"""Memory-mapped embedding store: raw ``.npy`` shards + a JSON manifest.

:class:`EmbeddingStore` is the one on-disk form of a trained
:class:`~repro.core.embeddings.InfluenceEmbedding`: ``train --store-dir``
writes it and ``serve --store-dir`` opens it.  Each parameter array is
written as an *uncompressed* raw ``.npy`` shard (via
:func:`repro.ckpt.atomic.atomic_output`, so a crash mid-save never
corrupts a live store) and opened with ``np.load(mmap_mode="r")``.
Opening reads each shard once, to check it against the manifest's
content fingerprint; because the mapping is shared and read-only, every
worker process on the host then serves from the *same* physical pages.

Layout of a store directory::

    store/
      store.json           # manifest: version, shapes, dtype, shard names,
                           #   content fingerprint
      source.npy           # S      (num_users, dim)
      target.npy           # T      (num_users, dim)
      source_bias.npy      # b      (num_users,)
      target_bias.npy      # b̃      (num_users,)

Top-k indices persisted by :class:`repro.serve.index.TopKIndex` live in
the same directory, next to the shards they were computed from.  Each
records the store's fingerprint (the :func:`content_digest` of the
shards), so an index left over from an earlier store in the same
directory is refused instead of served, and a digest of its own parts.
Both manifests go through :func:`read_manifest`: a damaged one raises
:class:`ServingError` naming the file.  A shard whose bytes no longer
match its manifest's digest raises :class:`ServingError` on open, so a
flipped bit is an error, never a silent wrong answer.
"""

from __future__ import annotations

import hashlib
import json
from tokenize import TokenError
from pathlib import Path
from typing import Iterable, Union

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


def load_shard(path: Path, dtype: type) -> np.ndarray:
    """Memory-map one ``.npy`` shard of ``dtype`` read-only.

    A truncated, zeroed or emptied file, a header numpy cannot parse, or
    one naming another dtype or byte order raises :class:`ServingError`
    naming the shard instead of numpy's ``ValueError``/``EOFError``, the
    header parser's ``SyntaxError``/``TokenError``, or a reinterpreted
    array.
    """
    try:
        array = np.load(path, mmap_mode="r")
    except (ValueError, OSError, EOFError, SyntaxError, TokenError) as exc:
        raise ServingError(f"unreadable shard {path}: {exc}") from exc
    if array.dtype != dtype:
        raise ServingError(
            f"unreadable shard {path}: dtype {array.dtype.str}, "
            f"expected {np.dtype(dtype).str}"
        )
    return array


def content_digest(arrays: Iterable[np.ndarray]) -> str:
    """sha256 over the shape and the bytes of each array, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def read_manifest(path: Path) -> dict:
    """Read the JSON object in a store or index manifest.

    Undecodable bytes, malformed JSON and any JSON value that is not an
    object raise :class:`ServingError` naming the file.
    """
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ServingError(f"corrupt manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ServingError(
            f"corrupt manifest {path}: expected a JSON object, "
            f"got {type(manifest).__name__}"
        )
    return manifest


def manifest_field(manifest: dict, key: str, kind: type, path: Path):
    """``manifest[key]`` if it is a ``kind``, else :class:`ServingError`.

    ``bool`` is refused where ``int`` is asked for (JSON ``true`` is
    not a count).
    """
    value = manifest.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ServingError(
            f"corrupt manifest {path}: {key!r} is {value!r}, "
            f"not a {kind.__name__}"
        )
    return value


def store_fingerprint(directory: PathLike) -> str | None:
    """The content fingerprint recorded by the store in ``directory``.

    ``None`` when the directory holds no store manifest (or one written
    before fingerprints existed).  Reads the manifest only; the shards
    are never re-hashed.
    """
    path = Path(directory) / STORE_MANIFEST_FILENAME
    return read_manifest(path).get("fingerprint") if path.is_file() else None


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
        The fingerprint is hashed once, from the arrays being written;
        the returned store passes :meth:`open`'s manifest, dtype and
        shape checks but is not hashed again.
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
            arrays[name] = np.ascontiguousarray(arrays[name], dtype=np.float64)
            with atomic_output(directory / filename) as tmp:
                np.save(tmp, arrays[name])
            manifest["shards"][name] = filename  # type: ignore[index]
        manifest["fingerprint"] = content_digest(arrays[name] for name in _SHARDS)
        atomic_write_text(
            directory / STORE_MANIFEST_FILENAME,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
        return cls._map(directory)[0]

    @classmethod
    def open(cls, directory: PathLike) -> "EmbeddingStore":
        """Open a store with every shard memory-mapped read-only.

        Shards whose contents do not match the manifest's fingerprint
        raise :class:`ServingError` naming the store.
        """
        directory = Path(directory)
        store, fingerprint = cls._map(directory)
        if content_digest(getattr(store, name) for name in _SHARDS) != fingerprint:
            raise ServingError(
                f"corrupt store {directory}: its shards do not match the "
                f"fingerprint in {directory / STORE_MANIFEST_FILENAME}"
            )
        return store

    @classmethod
    def _map(cls, directory: Path) -> tuple["EmbeddingStore", str]:
        """Map the shards of the store in ``directory``, unhashed.

        Checks the manifest, each shard's dtype and the shapes, and
        returns the store with the fingerprint its manifest records.
        """
        manifest_path = directory / STORE_MANIFEST_FILENAME
        if not manifest_path.is_file():
            raise ServingError(
                f"not an embedding store: missing {manifest_path}"
            )
        manifest = read_manifest(manifest_path)
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise ServingError(
                f"unsupported store format_version {version!r} "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        shards = manifest_field(manifest, "shards", dict, manifest_path)
        arrays: dict[str, np.ndarray] = {}
        for name in _SHARDS:
            filename = shards.get(name)
            if not isinstance(filename, str):
                raise ServingError(f"store manifest lists no {name!r} shard")
            path = directory / filename
            if not path.is_file():
                raise ServingError(f"missing store shard {path}")
            arrays[name] = load_shard(path, np.float64)
        cls._validate_shapes(
            manifest_field(manifest, "num_users", int, manifest_path),
            manifest_field(manifest, "dim", int, manifest_path),
            arrays,
        )
        fingerprint = manifest_field(manifest, "fingerprint", str, manifest_path)
        return cls(directory, **arrays), fingerprint

    @staticmethod
    def _validate_shapes(
        num_users: int, dim: int, arrays: dict[str, np.ndarray]
    ) -> None:
        """Cross-check shard shapes against the manifest."""
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
