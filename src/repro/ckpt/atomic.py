"""Atomic file persistence: temp file + fsync + ``os.replace``.

Every persistence path in this library (checkpoints, embedding
stores, edge lists and action logs, run manifests, span traces) writes
through the helpers here so a crash — SIGKILL, power loss, a full disk raising
mid-write — can never leave a partially written file at the final
destination.  The contract:

1. data is written to a temporary file *in the same directory* as the
   destination (``os.replace`` is only atomic within a filesystem);
2. the temp file is fsynced so the bytes are durable before the rename;
3. ``os.replace`` atomically installs the temp file at the destination;
4. the directory entry is fsynced (best effort) so the rename itself
   survives a crash.

On any failure the temp file is unlinked and the destination is left
exactly as it was — either the previous complete version or absent.

Temp names keep the destination's suffix (``.source.npy.<rand>.tmp.npy``)
because :func:`numpy.save` silently appends ``.npy`` to paths that
lack it, which would otherwise break the rename; they start with a dot
so ``*.npy`` globs never pick up an uncommitted file.

A checkpoint is a directory, so it is built whole under a hidden temp
name beside its destination and renamed into place the same way: no
name that checkpoint discovery matches ever holds a partial one.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

PathLike = Union[str, Path]

__all__ = [
    "atomic_output",
    "atomic_write_bytes",
    "atomic_write_text",
]


def _fsync_path(path: Path) -> None:
    """Flush a written file's bytes to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory entry (not all OSes allow it)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_output(path: PathLike) -> Iterator[Path]:
    """Yield a temp path that atomically becomes ``path`` on success.

    Usage::

        with atomic_output("run/source.npy") as tmp:
            np.save(tmp, array)
        # crash anywhere above: run/source.npy untouched

    The parent directory is created if missing.  The yielded path lives
    in the destination's directory and carries the destination's suffix;
    write the complete payload to it inside the block.  On normal exit
    the temp file is fsynced and renamed over ``path``; on exception it
    is removed and the exception propagates.
    """
    final = Path(path)
    directory = final.parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=f".{final.name}.", suffix=".tmp" + final.suffix
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        yield tmp
        _fsync_path(tmp)
        os.replace(tmp, final)
        _fsync_dir(directory)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _atomic_directory(path: PathLike) -> Iterator[Path]:
    """Yield a hidden temp directory that atomically becomes ``path``.

    The temp directory sits beside ``path``; fill it inside the block.
    On normal exit a directory already at ``path`` is moved aside, the
    temp directory is renamed over ``path``, and the old one is
    removed.  On exception the temp directory is removed and ``path``
    is left as it was.
    """
    final = Path(path)
    directory = final.parent
    directory.mkdir(parents=True, exist_ok=True)
    tmp = Path(
        tempfile.mkdtemp(dir=directory, prefix=f".{final.name}.", suffix=".tmp")
    )
    aside = tmp.with_name(tmp.name + ".old")
    try:
        yield tmp
        if final.exists():
            os.replace(final, aside)
        os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _fsync_dir(directory)
    shutil.rmtree(aside, ignore_errors=True)


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Atomically write ``data`` to ``path``; returns the final path."""
    final = Path(path)
    with atomic_output(final) as tmp:
        tmp.write_bytes(data)
    return final


def atomic_write_text(
    path: PathLike, text: str, encoding: str = "utf-8"
) -> Path:
    """Atomically write ``text`` to ``path``; returns the final path."""
    return atomic_write_bytes(path, text.encode(encoding))
