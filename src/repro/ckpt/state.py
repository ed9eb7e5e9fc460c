"""Full training-state serialization for :class:`repro.core.inf2vec.Inf2vecModel`.

A checkpoint must let a resumed run continue *bitwise-identically* to
an uninterrupted one, so :class:`TrainingState` captures everything the
epoch loop consumes:

* all four parameter arrays (``S``, ``T``, ``b``, ``b̃``);
* the index of the last completed epoch and the loss history through it;
* the config fingerprint (resume refuses a mismatched config);
* the numpy ``Generator`` bit-state at the end of that epoch, so the
  resumed shuffles and negative draws replay the original stream;
* the bit-state at ``fit()`` entry, so resume can regenerate the exact
  same context corpus before fast-forwarding the stream.

A checkpoint is a directory: the four arrays as an
:class:`~repro.serve.store.EmbeddingStore` (so ``serve --store-dir``
opens it as is) plus a ``state.json`` holding the rest, the store's
fingerprint, and a sha256 ``digest`` over those fields.  It is built
under a hidden temp name and renamed into place.
:meth:`TrainingState.load` raises :class:`~repro.errors.CheckpointError`
for anything it cannot trust — a damaged shard or manifest, a
``state.json`` with a foreign version, a missing field or a wrong
digest, another checkpoint's shards, a retired single-file ``.npz`` —
instead of letting the corruption surface later as a numpy error.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.ckpt.atomic import _atomic_directory, atomic_write_text
from repro.errors import CheckpointError, ServingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.embeddings import InfluenceEmbedding
    from repro.core.inf2vec import Inf2vecModel

PathLike = Union[str, Path]

__all__ = ["CHECKPOINT_VERSION", "TrainingState"]

#: Format version stamped into every ``state.json``.  Version 1 was the
#: retired single-file ``.npz`` archive.
CHECKPOINT_VERSION = 2

#: The state file inside a checkpoint directory, beside the store.
_STATE_FILENAME = "state.json"

#: Fields every ``state.json`` holds.
_FIELDS = (
    "checkpoint_version",
    "epoch",
    "loss_history",
    "config_fingerprint",
    "rng_state",
    "entry_rng_state",
    "worker_topology",
    "fingerprint",
    "digest",
)


def _json_default(value: object) -> object:
    """JSON fallback for RNG-state members (ndarrays, numpy ints).

    PCG64 state is plain (big) ints; MT19937 carries a uint32 key
    array, which a ``Generator`` accepts back as a list.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot encode RNG state member {type(value).__name__}")


def _digest(fields: dict) -> str:
    """sha256 over the canonical JSON of the ``state.json`` fields."""
    text = json.dumps(fields, sort_keys=True, default=_json_default)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_state(path: Path) -> dict:
    """The fields of the ``state.json`` in ``path``, version and digest checked."""
    state_path = path / _STATE_FILENAME
    try:
        fields = json.loads(state_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(fields, dict):
        raise CheckpointError(f"checkpoint {state_path} is not a JSON object")
    version = fields.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} in {path} "
            f"(this library writes version {CHECKPOINT_VERSION})"
        )
    missing = [name for name in _FIELDS if name not in fields]
    if missing:
        raise CheckpointError(f"checkpoint {path} is missing fields {missing}")
    if fields.pop("digest") != _digest(fields):
        raise CheckpointError(
            f"corrupt checkpoint {path}: {_STATE_FILENAME} does not match "
            "its digest"
        )
    return fields


@dataclass(frozen=True)
class TrainingState:
    """Everything needed to resume an ``Inf2vecModel`` training run.

    Attributes
    ----------
    source, target, source_bias, target_bias:
        The four parameter arrays at the end of ``epoch``.
    epoch:
        Index of the last completed epoch (0-based); resume continues
        at ``epoch + 1``.
    loss_history:
        Mean per-positive loss of epochs ``0..epoch`` inclusive.
    config_fingerprint:
        Fingerprint of the training config (see
        :func:`repro.obs.run.config_fingerprint`); resume refuses a
        checkpoint whose fingerprint differs from the live config's.
    rng_state:
        ``Generator.bit_generator.state`` at the end of ``epoch``.
    entry_rng_state:
        The bit-state at ``fit()`` entry, before context generation —
        resume replays it so the regenerated corpus is identical.
    worker_topology:
        Written by every training run: a mapping with ``workers`` (the
        shard count, 1 for an in-process fit), ``entry_rng_states``
        (each shard's RNG state at its start — a hogwild worker's
        spawn-derived birth state, replayed so it regenerates its exact
        shard corpus), and ``rng_states`` (each shard's stream at the
        end of ``epoch``).  Resume-equivalence is *per worker count*:
        resume refuses a topology whose worker count differs from the
        run's own.  ``None`` (a state captured without one) counts as
        one worker.
    """

    source: np.ndarray
    target: np.ndarray
    source_bias: np.ndarray
    target_bias: np.ndarray
    epoch: int
    loss_history: tuple[float, ...]
    config_fingerprint: str
    rng_state: dict = field(repr=False)
    entry_rng_state: dict = field(repr=False)
    worker_topology: dict | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Capture / restore
    # ------------------------------------------------------------------

    @classmethod
    def capture(
        cls,
        model: "Inf2vecModel",
        epoch: int,
        entry_rng_state: dict | None = None,
        worker_topology: dict | None = None,
    ) -> "TrainingState":
        """Snapshot a fitted model at the end of ``epoch``.

        Arrays are copied so continued training never mutates the
        captured state.  ``entry_rng_state`` defaults to the model's
        *current* bit-state, which is only correct for corpora that are
        not regenerated from an earlier stream position — the training
        loop always passes the true fit-entry state.
        """
        from repro.obs.run import config_fingerprint

        embedding = model.embedding
        rng_state = copy.deepcopy(model.rng.bit_generator.state)
        if entry_rng_state is None:
            entry_rng_state = copy.deepcopy(rng_state)
        _, fingerprint = config_fingerprint(model.config)
        return cls(
            source=embedding.source.copy(),
            target=embedding.target.copy(),
            source_bias=embedding.source_bias.copy(),
            target_bias=embedding.target_bias.copy(),
            epoch=int(epoch),
            loss_history=tuple(float(x) for x in model.loss_history),
            config_fingerprint=fingerprint,
            rng_state=rng_state,
            entry_rng_state=copy.deepcopy(entry_rng_state),
            worker_topology=copy.deepcopy(worker_topology),
        )

    def to_embedding(self) -> "InfluenceEmbedding":
        """The captured parameters as a fresh :class:`InfluenceEmbedding`."""
        from repro.core.embeddings import InfluenceEmbedding

        return InfluenceEmbedding(
            self.source.copy(),
            self.target.copy(),
            self.source_bias.copy(),
            self.target_bias.copy(),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: PathLike) -> Path:
        """Atomically write the state as a checkpoint directory at ``path``.

        The state is validated first, so only what :meth:`load` accepts
        reaches disk.  A crash mid-write leaves at most a hidden temp
        directory behind, never a partial checkpoint at ``path``.
        """
        from repro.core.embeddings import InfluenceEmbedding
        from repro.serve.store import EmbeddingStore, store_fingerprint

        self.validate()
        final = Path(path)
        with _atomic_directory(final) as tmp:
            EmbeddingStore.save(
                InfluenceEmbedding(
                    self.source, self.target, self.source_bias, self.target_bias
                ),
                tmp,
            )
            fields = {
                "checkpoint_version": CHECKPOINT_VERSION,
                "epoch": self.epoch,
                "loss_history": list(self.loss_history),
                "config_fingerprint": self.config_fingerprint,
                "rng_state": self.rng_state,
                "entry_rng_state": self.entry_rng_state,
                "worker_topology": self.worker_topology,
                "fingerprint": store_fingerprint(tmp),
            }
            fields["digest"] = _digest(fields)
            atomic_write_text(
                tmp / _STATE_FILENAME,
                json.dumps(fields, indent=2, sort_keys=True, default=_json_default)
                + "\n",
            )
        return final

    @classmethod
    def load(cls, path: PathLike) -> "TrainingState":
        """Load and validate a checkpoint directory written by :meth:`save`.

        The arrays are copied out of the store's read-only mappings,
        because training mutates them.

        Raises
        ------
        CheckpointError
            If the directory is missing, any file in it is damaged, its
            state names a foreign format version or other shards, the
            state fails structural validation, or ``path`` is a retired
            single-file ``.npz`` checkpoint.
        """
        from repro.serve.store import EmbeddingStore, store_fingerprint

        final = Path(path)
        if final.is_file():
            raise CheckpointError(
                f"{final} is a file: the single-file .npz checkpoint format "
                "(version 1) is retired; checkpoints are directories "
                f"(version {CHECKPOINT_VERSION})"
            )
        fields = _read_state(final)
        try:
            store = EmbeddingStore.open(final)
            fingerprint = store_fingerprint(final)
        except ServingError as exc:
            raise CheckpointError(f"corrupt checkpoint {final}: {exc}") from exc
        if fields["fingerprint"] != fingerprint:
            raise CheckpointError(
                f"corrupt checkpoint {final}: its shards are not the ones "
                f"{_STATE_FILENAME} was written with"
            )
        try:
            state = cls(
                source=np.array(store.source),
                target=np.array(store.target),
                source_bias=np.array(store.source_bias),
                target_bias=np.array(store.target_bias),
                epoch=int(fields["epoch"]),
                loss_history=tuple(float(x) for x in fields["loss_history"]),
                config_fingerprint=fields["config_fingerprint"],
                rng_state=fields["rng_state"],
                entry_rng_state=fields["entry_rng_state"],
                worker_topology=fields["worker_topology"],
            )
            state.validate(source=str(final))
        except (AttributeError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {final} is malformed: {exc}"
            ) from exc
        return state

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, source: str = "checkpoint") -> None:
        """Structural consistency checks; raises :class:`CheckpointError`."""
        if self.source.ndim != 2 or self.source.shape != self.target.shape:
            raise CheckpointError(
                f"{source}: source shape {self.source.shape} does not match "
                f"target shape {self.target.shape}"
            )
        num_users = self.source.shape[0]
        if (
            self.source_bias.shape != (num_users,)
            or self.target_bias.shape != (num_users,)
        ):
            raise CheckpointError(
                f"{source}: bias shapes {self.source_bias.shape}/"
                f"{self.target_bias.shape} do not match {num_users} users"
            )
        if self.epoch < 0:
            raise CheckpointError(f"{source}: negative epoch {self.epoch}")
        if len(self.loss_history) != self.epoch + 1:
            raise CheckpointError(
                f"{source}: loss history has {len(self.loss_history)} entries "
                f"for epoch {self.epoch} (expected {self.epoch + 1})"
            )
        if not self.config_fingerprint:
            raise CheckpointError(f"{source}: empty config fingerprint")
        if self.worker_topology is not None:
            topology = self.worker_topology
            workers = int(topology.get("workers", 0))
            entry_states = topology.get("entry_rng_states", ())
            states = topology.get("rng_states", ())
            if (
                workers < 1
                or len(entry_states) != workers
                or len(states) != workers
            ):
                raise CheckpointError(
                    f"{source}: worker topology is inconsistent "
                    f"(workers={workers}, {len(entry_states)} entry states, "
                    f"{len(states)} states)"
                )

    @property
    def num_users(self) -> int:
        """Size of the captured user universe."""
        return int(self.source.shape[0])

    @property
    def dim(self) -> int:
        """Captured embedding dimensionality."""
        return int(self.source.shape[1])
