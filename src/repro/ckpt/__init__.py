"""repro.ckpt — crash-safe checkpointing and atomic persistence.

Three pieces:

* :mod:`repro.ckpt.atomic` — the atomic-write primitive (temp file in
  the destination directory + fsync + ``os.replace``) shared by every
  persistence path in the library;
* :mod:`repro.ckpt.state` — :class:`TrainingState`, the full training
  snapshot (parameter arrays, epoch counter, loss history, config
  fingerprint, and the numpy ``Generator`` bit-states) that makes a
  resumed run bitwise-identical to an uninterrupted one.  On disk it is
  a directory: an embedding store plus a digested ``state.json``;
* :mod:`repro.ckpt.manager` — :class:`CheckpointManager`, the
  every-N-epochs cadence, last-K retention, and latest-valid discovery
  that skips corrupt checkpoints.

Quickstart::

    from repro import Inf2vecModel, Inf2vecConfig
    from repro.ckpt import CheckpointManager

    manager = CheckpointManager("run/ckpt", every=5, keep=3)
    model = Inf2vecModel(Inf2vecConfig(epochs=20), seed=0)
    model.fit(graph, log, checkpoint=manager)

    # after a crash, an identical invocation picks up where it stopped:
    model = Inf2vecModel(Inf2vecConfig(epochs=20), seed=0)
    model.fit(graph, log, checkpoint=manager, resume=True)
"""

from repro.ckpt.atomic import (
    atomic_output,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.ckpt.state import CHECKPOINT_VERSION, TrainingState
from repro.ckpt.manager import CheckpointManager
from repro.errors import CheckpointError

__all__ = [
    "atomic_output",
    "atomic_write_bytes",
    "atomic_write_text",
    "CHECKPOINT_VERSION",
    "TrainingState",
    "CheckpointManager",
    "CheckpointError",
]
