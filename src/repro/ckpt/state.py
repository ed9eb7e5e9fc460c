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

Checkpoints are single ``.npz`` archives written through
:func:`repro.ckpt.atomic.atomic_output`; :meth:`TrainingState.load`
validates structure and version and raises
:class:`~repro.errors.CheckpointError` for anything it cannot trust —
a truncated file, an empty file, a foreign format version, mismatched
array shapes — instead of letting the corruption surface later as a
cryptic numpy error.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.ckpt.atomic import atomic_output, ensure_suffix
from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.embeddings import InfluenceEmbedding
    from repro.core.inf2vec import Inf2vecModel

PathLike = Union[str, Path]

__all__ = ["CHECKPOINT_VERSION", "TrainingState"]

#: Format version stamped into every checkpoint archive.
CHECKPOINT_VERSION = 1

#: Keys every checkpoint archive must contain.
_REQUIRED_KEYS = (
    "checkpoint_version",
    "source",
    "target",
    "source_bias",
    "target_bias",
    "epoch",
    "loss_history",
    "config_fingerprint",
    "rng_state",
    "entry_rng_state",
)


def _json_default(value: object) -> object:
    """JSON fallback for RNG-state members (ndarrays, numpy ints)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot encode RNG state member {type(value).__name__}")


def _encode_rng_state(state: dict) -> str:
    """JSON-encode a ``Generator.bit_generator.state`` dict.

    PCG64 state is plain (big) ints; MT19937 carries a uint32 key array
    — both serialise through the ndarray-to-list fallback.
    """
    return json.dumps(state, default=_json_default)


def _rebuild_rng_state(state: object) -> dict:
    """Validate a decoded RNG state (rebuilding MT19937's key array)."""
    if not isinstance(state, dict) or "bit_generator" not in state:
        raise CheckpointError("checkpoint RNG state is not a bit-generator dict")
    if state.get("bit_generator") == "MT19937":
        inner = state.get("state", {})
        if isinstance(inner, dict) and isinstance(inner.get("key"), list):
            inner["key"] = np.asarray(inner["key"], dtype=np.uint32)
    return state


def _decode_rng_state(text: str) -> dict:
    """Invert :func:`_encode_rng_state`."""
    return _rebuild_rng_state(json.loads(text))


def _encode_worker_topology(topology: dict | None) -> str:
    """JSON-encode the optional parallel-trainer worker topology.

    Consistency is enforced here, at write time, so an inconsistent
    topology (worker count not matching the per-worker state lists)
    can never reach disk and poison a future resume.
    """
    if topology is None:
        return "null"
    workers = int(topology.get("workers", 0))
    if (
        workers < 1
        or len(topology.get("entry_rng_states", ())) != workers
        or len(topology.get("rng_states", ())) != workers
    ):
        raise CheckpointError(
            "worker topology is inconsistent: workers must be >= 1 and "
            "match the per-worker RNG state lists"
        )
    return json.dumps(topology, default=_json_default)


def _decode_worker_topology(text: str) -> dict | None:
    """Invert :func:`_encode_worker_topology`, validating the shape."""
    data = json.loads(text)
    if data is None:
        return None
    if not isinstance(data, dict):
        raise CheckpointError("checkpoint worker topology is not a mapping")
    try:
        topology = {
            "workers": int(data["workers"]),
            "entry_rng_states": [
                _rebuild_rng_state(state) for state in data["entry_rng_states"]
            ],
            "rng_states": [
                _rebuild_rng_state(state) for state in data["rng_states"]
            ],
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint worker topology is malformed: {exc}"
        ) from exc
    return topology


def _as_text(value: np.ndarray) -> str:
    """Decode a 0-d bytes array stored by :func:`numpy.savez`."""
    return bytes(value).decode("utf-8")


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
        """Atomically write the state as an ``.npz`` archive.

        Returns the final path (with the ``.npz`` suffix normalised).
        A crash mid-write leaves at most a hidden temp file behind,
        never a truncated checkpoint at the destination.
        """
        final = ensure_suffix(path, ".npz")
        with atomic_output(final) as tmp:
            np.savez_compressed(
                tmp,
                checkpoint_version=np.int64(CHECKPOINT_VERSION),
                source=self.source,
                target=self.target,
                source_bias=self.source_bias,
                target_bias=self.target_bias,
                epoch=np.int64(self.epoch),
                loss_history=np.asarray(self.loss_history, dtype=np.float64),
                config_fingerprint=np.bytes_(
                    self.config_fingerprint.encode("utf-8")
                ),
                rng_state=np.bytes_(
                    _encode_rng_state(self.rng_state).encode("utf-8")
                ),
                entry_rng_state=np.bytes_(
                    _encode_rng_state(self.entry_rng_state).encode("utf-8")
                ),
                worker_topology=np.bytes_(
                    _encode_worker_topology(self.worker_topology).encode(
                        "utf-8"
                    )
                ),
            )
        return final

    @classmethod
    def load(cls, path: PathLike) -> "TrainingState":
        """Load and validate a checkpoint written by :meth:`save`.

        Raises
        ------
        CheckpointError
            If the file is missing, truncated, empty, carries a foreign
            format version, or fails structural validation.
        """
        final = ensure_suffix(path, ".npz")
        try:
            archive = np.load(final)
        except CheckpointError:
            raise
        except Exception as exc:  # zipfile/OSError/pickle zoo — one boundary
            raise CheckpointError(
                f"cannot read checkpoint {final}: {exc}"
            ) from exc
        try:
            with archive as data:
                missing = [k for k in _REQUIRED_KEYS if k not in data.files]
                if missing:
                    raise CheckpointError(
                        f"checkpoint {final} is missing fields {missing}"
                    )
                version = int(data["checkpoint_version"])
                if version != CHECKPOINT_VERSION:
                    raise CheckpointError(
                        f"unsupported checkpoint version {version} in {final} "
                        f"(this library writes version {CHECKPOINT_VERSION})"
                    )
                state = cls(
                    source=np.asarray(data["source"], dtype=np.float64),
                    target=np.asarray(data["target"], dtype=np.float64),
                    source_bias=np.asarray(
                        data["source_bias"], dtype=np.float64
                    ),
                    target_bias=np.asarray(
                        data["target_bias"], dtype=np.float64
                    ),
                    epoch=int(data["epoch"]),
                    loss_history=tuple(
                        float(x) for x in data["loss_history"]
                    ),
                    config_fingerprint=_as_text(data["config_fingerprint"]),
                    rng_state=_decode_rng_state(_as_text(data["rng_state"])),
                    entry_rng_state=_decode_rng_state(
                        _as_text(data["entry_rng_state"])
                    ),
                    # Optional: absent from pre-parallel checkpoints.
                    worker_topology=(
                        _decode_worker_topology(
                            _as_text(data["worker_topology"])
                        )
                        if "worker_topology" in data.files
                        else None
                    ),
                )
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {final} is corrupt: {exc}"
            ) from exc
        state.validate(source=str(final))
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
