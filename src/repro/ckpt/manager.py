"""Checkpoint lifecycle: cadence, retention, and latest-valid discovery.

:class:`CheckpointManager` owns one checkpoint directory.  The training
loop calls :meth:`CheckpointManager.maybe_save` at every epoch end; the
manager decides whether the cadence fires, writes the state atomically
as a directory (``ckpt-<epoch:08d>/``, see :mod:`repro.ckpt.state`),
prunes beyond the retention budget, and records checkpoint telemetry
(count, bytes, write latency) into the active ``recording`` scope.

Discovery is defensive: :meth:`CheckpointManager.latest_state` walks the
directory newest-first and *skips* truncated or corrupt checkpoints
(each with a logged warning) instead of dying on the first bad one —
exactly the behaviour a crash-recovery path needs, since the checkpoint
being written at the moment of the crash is the likeliest casualty.
"""

from __future__ import annotations

import re
import shutil
import time
from pathlib import Path
from typing import Union

from repro.ckpt.state import TrainingState
from repro.errors import CheckpointError
from repro.obs.catalog import (
    CKPT_BYTES_WRITTEN,
    CKPT_PRUNED,
    CKPT_SAVES,
    CKPT_WRITE_SECONDS,
)
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive_int

PathLike = Union[str, Path]

__all__ = ["CheckpointManager"]

logger = get_logger("ckpt.manager")

_CKPT_PATTERN = re.compile(r"^ckpt-(\d{8})$")
#: The retired single-file format, named on resume but never loaded.
_RETIRED_PATTERN = re.compile(r"^ckpt-\d{8}\.npz$")


class CheckpointManager:
    """Every-N-epochs checkpointing with last-K retention for one directory.

    Parameters
    ----------
    directory:
        Where checkpoints live; created if missing.
    every:
        Cadence — save after every ``every``-th completed epoch (the
        training loop additionally forces a save at the final epoch and
        on early convergence).
    keep:
        Retention — after each save, only the ``keep`` newest
        checkpoints (by epoch) are kept on disk.
    """

    def __init__(self, directory: PathLike, every: int = 1, keep: int = 3):
        self.every = check_positive_int("every", every)
        self.keep = check_positive_int("keep", keep)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------

    def path_for_epoch(self, epoch: int) -> Path:
        """The canonical checkpoint directory for ``epoch``."""
        return self.directory / f"ckpt-{epoch:08d}"

    def maybe_save(
        self,
        model: object,
        epoch: int,
        entry_rng_state: dict | None = None,
        force: bool = False,
        worker_topology: dict | None = None,
    ) -> Path | None:
        """Save at the configured cadence; returns the path or ``None``.

        ``force`` bypasses the cadence (used for the final epoch and for
        early-convergence exits, so the terminal state is always on
        disk).  ``worker_topology`` is stamped into the state by the
        parallel trainer (see :class:`~repro.ckpt.state.TrainingState`).
        """
        if not force and (epoch + 1) % self.every != 0:
            return None
        return self.save(
            model,
            epoch,
            entry_rng_state=entry_rng_state,
            worker_topology=worker_topology,
        )

    def save(
        self,
        model: object,
        epoch: int,
        entry_rng_state: dict | None = None,
        worker_topology: dict | None = None,
    ) -> Path:
        """Capture, atomically write, prune, and record one checkpoint."""
        state = TrainingState.capture(
            model,
            epoch,
            entry_rng_state=entry_rng_state,
            worker_topology=worker_topology,
        )
        path = self.path_for_epoch(epoch)
        started = time.perf_counter()
        path = state.save(path)
        elapsed = time.perf_counter() - started
        size = sum(part.stat().st_size for part in path.iterdir())
        CKPT_SAVES.inc()
        CKPT_BYTES_WRITTEN.inc(size)
        CKPT_WRITE_SECONDS.observe(elapsed)
        logger.debug(
            "checkpoint epoch %d -> %s (%d bytes, %.3fs)",
            epoch, path, size, elapsed,
        )
        self._prune()
        return path

    def _prune(self) -> None:
        """Delete all but the ``keep`` newest checkpoints."""
        paths = self.checkpoint_paths()
        for path in paths[: -self.keep]:
            shutil.rmtree(path, ignore_errors=True)
            logger.debug("pruned checkpoint %s", path)
            CKPT_PRUNED.inc()

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------

    def checkpoint_paths(self) -> list[Path]:
        """Managed checkpoint directories, sorted by epoch ascending.

        Only committed checkpoints match (``ckpt-NNNNNNNN``); one being
        written sits under a hidden temp name and is never listed.
        """
        found = []
        for path in self.directory.iterdir():
            match = _CKPT_PATTERN.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _epoch, path in sorted(found)]

    def latest_path(self) -> Path | None:
        """Newest checkpoint by epoch, without validating it."""
        paths = self.checkpoint_paths()
        return paths[-1] if paths else None

    def latest_state(self) -> TrainingState | None:
        """Load the newest checkpoint that validates.

        Corrupt or truncated checkpoints (e.g. bit rot, or a file left
        at a checkpoint's name) are skipped with a warning; ``None``
        means no usable checkpoint exists.  Checkpoints in the retired
        single-file ``.npz`` format are never loaded; when they are all
        the directory holds, a warning names them.
        """
        for path in reversed(self.checkpoint_paths()):
            try:
                return TrainingState.load(path)
            except CheckpointError as exc:
                logger.warning("skipping unusable checkpoint %s: %s", path, exc)
        retired = sorted(
            path.name
            for path in self.directory.iterdir()
            if _RETIRED_PATTERN.match(path.name)
        )
        if retired:
            logger.warning(
                "ignoring %d checkpoint(s) in the retired single-file .npz "
                "format (version 1) in %s: %s; checkpoints are now "
                "directories and these are not migrated",
                len(retired), self.directory, ", ".join(retired),
            )
        return None

    def __repr__(self) -> str:
        return (
            f"CheckpointManager({str(self.directory)!r}, "
            f"every={self.every}, keep={self.keep})"
        )
