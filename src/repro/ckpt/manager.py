"""Checkpoint lifecycle: cadence, retention, and latest-valid discovery.

:class:`CheckpointManager` owns one checkpoint directory.  The training
loop calls :meth:`CheckpointManager.maybe_save` at every epoch end; the
manager decides whether the cadence fires, writes the state atomically
as a directory (``ckpt-<epoch:08d>/``, see :mod:`repro.ckpt.state`),
prunes beyond the retention budget, and records checkpoint telemetry
(count, bytes, write latency) into the ambient
:func:`repro.obs.run.active_metrics` registry.

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
from repro.obs.run import active_metrics
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive_int

PathLike = Union[str, Path]

__all__ = ["CheckpointManager"]

logger = get_logger("ckpt.manager")

#: Write-latency histogram edges (seconds): a checkpoint is four raw
#: ``.npy`` shards and two small JSON files, so sub-millisecond to a few
#: seconds brackets every scale.
CKPT_WRITE_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

_CKPT_PATTERN = re.compile(r"^ckpt-(\d{8})$")


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
        metrics = active_metrics()
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
        if metrics.enabled:
            metrics.counter("ckpt.saves", "checkpoints written").inc()
            metrics.counter(
                "ckpt.bytes_written", "total checkpoint bytes written"
            ).inc(size)
            metrics.histogram(
                "ckpt.write_seconds",
                CKPT_WRITE_LATENCY_BUCKETS,
                "atomic checkpoint write latency",
            ).observe(elapsed)
        logger.debug(
            "checkpoint epoch %d -> %s (%d bytes, %.3fs)",
            epoch, path, size, elapsed,
        )
        self._prune()
        return path

    def _prune(self) -> None:
        """Delete all but the ``keep`` newest checkpoints."""
        metrics = active_metrics()
        paths = self.checkpoint_paths()
        for path in paths[: -self.keep]:
            shutil.rmtree(path, ignore_errors=True)
            logger.debug("pruned checkpoint %s", path)
            if metrics.enabled:
                metrics.counter(
                    "ckpt.pruned", "checkpoints removed by retention"
                ).inc()

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
        means no usable checkpoint exists.
        """
        for path in reversed(self.checkpoint_paths()):
            try:
                return TrainingState.load(path)
            except CheckpointError as exc:
                logger.warning("skipping unusable checkpoint %s: %s", path, exc)
        return None

    def __repr__(self) -> str:
        return (
            f"CheckpointManager({str(self.directory)!r}, "
            f"every={self.every}, keep={self.keep})"
        )
