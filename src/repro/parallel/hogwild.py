"""Multi-process hogwild training for Inf2vec.

:class:`HogwildTrainer` runs :meth:`repro.core.inf2vec.Inf2vecModel.fit`
across ``workers`` shards.  At ``workers=1`` that is the in-process fit
itself: no subprocess, no shared memory, the same RNG stream.  At
``workers>1`` it initialises the four parameter arrays once, places
them in shared memory (:class:`~repro.parallel.shared.SharedEmbedding`),
shards the action log's episodes across worker processes, and runs
lock-free SGD — every worker applies the sparse Eq. 6 updates directly
to the shared pages, Niu et al.'s hogwild scheme.  The parent drives
the model's one epoch loop over a per-worker command pipe, so the
anneal, loss aggregation, convergence test and checkpoints (at epoch
barriers, with the worker topology) are those of the in-process fit.

Determinism contract (documented in DESIGN.md §14):

* Worker RNG streams are spawn-derived from the trainer's seeded
  generator (:meth:`numpy.random.Generator.spawn`), so every stochastic
  draw is attributable to the trainer seed — the repo's no-global-rng
  invariant extends across processes.
* Sharding is deterministic (greedy size-balanced, ties by position).
* At ``workers=1`` training and resume are bitwise-deterministic and
  bitwise-equal to ``Inf2vecModel.fit``.  At ``workers>1`` the
  *schedule* of interleaved shared-memory updates is up to the OS, so
  runs are only statistically reproducible; resume restores every
  worker's exact stream but not the interleaving.  Resume therefore
  requires the same worker count that wrote the checkpoint, and
  cross-worker-count comparisons hold only within a documented loss
  tolerance.
"""

from __future__ import annotations

import copy
import multiprocessing
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.inf2vec import (
    EpochReport,
    Inf2vecConfig,
    Inf2vecModel,
    hogwild_worker_main,
)
from repro.data.actionlog import ActionLog
from repro.data.graph import SocialGraph
from repro.errors import TrainingError
from repro.obs.catalog import TRAIN_WORKER_CONTEXTS
from repro.obs.run import active_run
from repro.parallel.shared import SharedEmbedding
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from multiprocessing.connection import Connection

    from repro.ckpt.manager import CheckpointManager

logger = get_logger("parallel.hogwild")

#: Seconds to wait for workers to exit before escalating to terminate().
_JOIN_TIMEOUT = 10.0


def shard_episodes(log: ActionLog, workers: int) -> list[ActionLog]:
    """Split a log into ``workers`` size-balanced episode shards.

    Greedy longest-processing-time assignment: episodes sorted by
    descending adoption count (ties by log position) go to the
    currently lightest shard, which balances per-worker positive counts
    far better than round-robin on heavy-tailed cascade sizes.  The
    assignment is a pure function of ``(log, workers)`` — the
    determinism anchor for per-worker corpus regeneration on resume.
    Every episode lands in exactly one shard; shards preserve the log's
    episode order; with fewer episodes than workers the tail shards are
    empty (their workers idle through each epoch).
    """
    workers = check_positive_int("workers", workers)
    episodes = log.episodes
    order = sorted(
        range(len(episodes)), key=lambda i: (-len(episodes[i]), i)
    )
    buckets: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for index in order:
        lightest = min(range(workers), key=lambda w: (loads[w], w))
        buckets[lightest].append(index)
        loads[lightest] += len(episodes[index])
    return [
        ActionLog(
            [episodes[i] for i in sorted(bucket)], num_users=log.num_users
        )
        for bucket in buckets
    ]


class HogwildTrainer:
    """Shared-memory parallel Inf2vec training (see module docstring).

    Parameters
    ----------
    config:
        Training hyper-parameters; the same schedule, convergence test,
        and batch settings as the single-process model.
    workers:
        Worker count.  ``1`` trains in process, exactly as
        ``Inf2vecModel(config, seed).fit`` does — the
        resume-equivalence anchor.
    seed:
        Trainer RNG seed.  Initialises the embedding and spawns the
        per-worker generators; must be spawnable (an int seed, or a
        Generator carrying a seed sequence) at ``workers>1``.

    Worker processes start with ``fork`` where the platform offers it
    (cheap, shares the parent's resource tracker) and ``spawn``
    elsewhere; worker arguments are picklable either way.

    Examples
    --------
    >>> from repro.data.synthetic import SyntheticSocialDataset
    >>> data = SyntheticSocialDataset.digg_like(num_users=60, num_items=12,
    ...                                         seed=0)
    >>> trainer = HogwildTrainer(Inf2vecConfig(dim=8, epochs=2), workers=2,
    ...                          seed=0)
    >>> model = trainer.fit(data.graph, data.log)  # doctest: +SKIP
    """

    def __init__(
        self,
        config: Inf2vecConfig | None = None,
        workers: int = 1,
        seed: SeedLike = None,
    ):
        self.config = config if config is not None else Inf2vecConfig()
        self.workers = check_positive_int("workers", workers)
        self._rng = ensure_rng(seed)
        self._seed_text = None if seed is None else str(seed)
        self._model: Inf2vecModel | None = None
        #: Wall-clock seconds per completed epoch (barrier to barrier
        #: at ``workers>1``) — the scaling benchmark reads this.
        self.epoch_seconds: list[float] = []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        graph: SocialGraph,
        log: ActionLog,
        checkpoint: "CheckpointManager | None" = None,
        resume: bool = False,
    ) -> Inf2vecModel:
        """Train across ``self.workers`` shards; returns the model.

        The returned :class:`Inf2vecModel` owns a private copy of the
        final parameters (the shared blocks are freed before
        returning), its loss history, and the trainer's RNG stream —
        interchangeable with a single-process ``fit`` result.

        ``checkpoint``/``resume`` follow the single-process contract,
        with the topology restriction described in the module
        docstring: resume requires a checkpoint written at the same
        worker count (``Inf2vecModel.fit`` counts as one worker).
        """
        model = Inf2vecModel(self.config, seed=self._rng)
        model._seed_text = self._seed_text
        if self.workers == 1:
            self.epoch_seconds = model._fit_log(graph, log, checkpoint, resume)
        else:
            self.epoch_seconds = self._fit_workers(
                model, graph, log, checkpoint, resume
            )
        self._model = model
        return model

    def _fit_workers(
        self,
        model: Inf2vecModel,
        graph: SocialGraph,
        log: ActionLog,
        checkpoint: "CheckpointManager | None",
        resume: bool,
    ) -> list[float]:
        """The ``workers>1`` fit: one shard per process on shared pages."""
        config = self.config
        num_users = check_positive_int("num_users", graph.num_nodes)
        state = model._resume_state(checkpoint, resume, self.workers)
        entry_rng_state = copy.deepcopy(self._rng.bit_generator.state)
        start_epoch = model._begin(state, num_users)
        resume_states: list[dict | None]
        if state is not None:
            topology = state.worker_topology
            entry_states = copy.deepcopy(topology["entry_rng_states"])
            resume_states = copy.deepcopy(topology["rng_states"])
            entry_rng_state = copy.deepcopy(state.entry_rng_state)
        else:
            entry_states = [
                copy.deepcopy(child.bit_generator.state)
                for child in self._spawn_worker_rngs()
            ]
            resume_states = [None] * self.workers
        if start_epoch >= config.epochs:
            # The checkpoint already covers the full budget; nothing to
            # spawn workers for.
            return []

        shared = SharedEmbedding.create(model.embedding)
        model._embedding = shared.embedding
        processes: list[multiprocessing.Process] = []
        conns: list["Connection"] = []
        try:
            run = active_run()
            with run.span("hogwild.fit", workers=self.workers):
                model._record_run_header(
                    num_users=num_users,
                    num_edges=graph.num_edges,
                    num_episodes=len(log),
                )
                run.annotate(workers=self.workers)
                shards = shard_episodes(log, self.workers)
                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:  # a platform without fork
                    context = multiprocessing.get_context("spawn")
                for worker_id in range(self.workers):
                    parent_conn, child_conn = context.Pipe()
                    process = context.Process(
                        target=hogwild_worker_main,
                        args=(
                            worker_id,
                            shared.spec,
                            config,
                            graph,
                            shards[worker_id],
                            entry_states[worker_id],
                            resume_states[worker_id],
                            child_conn,
                        ),
                        daemon=True,
                        name=f"hogwild-worker-{worker_id}",
                    )
                    process.start()
                    child_conn.close()
                    processes.append(process)
                    conns.append(parent_conn)
                self._await_ready(conns, processes)

                def run_epoch(epoch: int, learning_rate: float) -> list[EpochReport]:
                    for conn in conns:
                        conn.send(("epoch", epoch, learning_rate))
                    return self._collect_epoch(conns, processes)

                return model._run_epochs(
                    run_epoch,
                    entry_states,
                    start_epoch,
                    checkpoint,
                    entry_rng_state,
                )
        finally:
            self._shutdown(processes, conns)
            final_embedding = shared.snapshot()
            shared.close()
            shared.unlink()
            model._embedding = final_embedding

    @property
    def model(self) -> Inf2vecModel:
        """The model produced by the last :meth:`fit` call."""
        if self._model is None:
            raise TrainingError("HogwildTrainer has not been fitted yet")
        return self._model

    def _spawn_worker_rngs(self) -> list[np.random.Generator]:
        try:
            return list(self._rng.spawn(self.workers))
        except TypeError as exc:  # a Generator without a seed sequence
            raise TrainingError(
                "hogwild training needs a spawnable parent generator; "
                "construct the trainer with an int seed (or a Generator "
                "built by default_rng)"
            ) from exc

    # ------------------------------------------------------------------
    # Worker protocol
    # ------------------------------------------------------------------

    def _await_ready(
        self,
        conns: list["Connection"],
        processes: list[multiprocessing.Process],
    ) -> None:
        """Block until every worker finished setup (corpus generation)."""
        for worker_id, conn in enumerate(conns):
            reply = self._recv(conn, processes[worker_id], worker_id)
            if reply[0] != "ready":
                raise TrainingError(
                    f"worker {worker_id}: unexpected reply {reply[0]!r} "
                    "during setup"
                )
            TRAIN_WORKER_CONTEXTS.set(reply[2], worker=worker_id)

    def _collect_epoch(
        self, conns: list["Connection"], processes: list[multiprocessing.Process]
    ) -> list[EpochReport]:
        """One ``epoch_done`` reply per worker, ordered by worker id."""
        reports = []
        for worker_id, conn in enumerate(conns):
            reply = self._recv(conn, processes[worker_id], worker_id)
            if reply[0] != "epoch_done":
                raise TrainingError(
                    f"worker {worker_id}: unexpected reply {reply[0]!r} "
                    "during an epoch"
                )
            reports.append(EpochReport(*reply[1:]))
        return reports

    def _recv(
        self,
        conn: "Connection",
        process: multiprocessing.Process,
        worker_id: int,
    ) -> tuple:
        """Receive one message, turning worker failures into errors."""
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise TrainingError(
                f"worker {worker_id} died without reporting "
                f"(exit code {process.exitcode})"
            ) from exc
        if reply[0] == "error":
            raise TrainingError(f"worker {worker_id} failed: {reply[2]}")
        return reply

    def _shutdown(
        self, processes: list[multiprocessing.Process], conns: list["Connection"]
    ) -> None:
        """Best-effort stop + join; escalate to terminate/kill stragglers."""
        for conn in conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        deadline = time.perf_counter() + _JOIN_TIMEOUT
        for process in processes:
            process.join(timeout=max(0.1, deadline - time.perf_counter()))
            if process.is_alive():
                logger.warning(
                    "worker %s did not stop in time; terminating", process.name
                )
                process.terminate()
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
        for conn in conns:
            conn.close()

    def __repr__(self) -> str:
        return f"HogwildTrainer(workers={self.workers})"
