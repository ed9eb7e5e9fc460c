"""The Inf2vec training algorithm (Algorithm 2 of the paper).

Training proceeds in two stages:

1. **Context generation** (lines 3–8): every episode's propagation
   network is extracted and Algorithm 1 produces one
   ``(u, C_u^i)`` tuple per adopter — see
   :class:`repro.core.context.ContextGenerator`.

2. **Representation learning** (lines 9–17): skip-gram with negative
   sampling maximises Eq. 2.  For each context member ``v`` of user
   ``u`` and each sampled negative ``w``:

   .. math::

      \\log \\Pr(v|u) \\approx \\log\\sigma(z_v) + \\sum_{w \\in N} \\log\\sigma(-z_w),
      \\qquad z_x = S_u \\cdot T_x + b_u + \\tilde b_x

   with the gradient updates of Eq. 6 applied by SGD (Eq. 5).

The reference implementation is C++ and updates one ``(u, v)``
observation at a time; this implementation applies the same gradients
*per micro-batch of context tuples* (``Inf2vecConfig.batch_size``
tuples, each with all of ``C_u^i`` and its negatives, in one fused
vectorised step), which is mathematically a micro-batched SGD — the
standard trick for word2vec-family models in numpy; the variance
difference is negligible at the paper's context length of 50 and the
default batch size.

Every fit runs through one epoch loop (:meth:`Inf2vecModel._run_epochs`)
over one or more corpus shards.  In process there is a
single shard trained on the model's own RNG stream; the hogwild trainer
(:mod:`repro.parallel`) drives one shard per worker process through
:func:`hogwild_worker_main` and the same loop.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Literal, NamedTuple

import numpy as np
from scipy.special import expit, log_expit

from repro.core.context import ContextConfig, ContextCorpus, ContextGenerator
from repro.core.embeddings import InfluenceEmbedding
from repro.core.negative import NegativeSampler
from repro.data.actionlog import ActionLog
from repro.data.graph import SocialGraph
from repro.errors import CheckpointError, NotFittedError, TrainingError
from repro.obs.catalog import (
    CKPT_RESUMES,
    TRAIN_CLIP_ROWS,
    TRAIN_EPOCH_EXAMPLES_PER_SEC,
    TRAIN_EPOCH_LEARNING_RATE,
    TRAIN_EPOCH_LOSS,
    TRAIN_EPOCHS,
    TRAIN_WORKER_EPOCH_SECONDS,
    TRAIN_WORKER_EXAMPLES,
    TRAIN_WORKER_LOSS,
)
from repro.obs.run import NULL_RUN, active_run, config_fingerprint, recording

if TYPE_CHECKING:  # pragma: no cover - typing-only (avoids an import cycle)
    from multiprocessing.connection import Connection

    from repro.ckpt.manager import CheckpointManager
    from repro.ckpt.state import TrainingState
    from repro.parallel.shared import SharedEmbeddingSpec
from repro.utils.blas import limit_blas_threads
from repro.utils.logging import get_logger, log_epoch_progress
from repro.utils.rng import SeedLike, ensure_rng, generator_from_state
from repro.utils.validation import check_positive, check_positive_int

logger = get_logger("core.inf2vec")


def loss_converged(previous_loss: float, loss: float, tol: float) -> bool:
    """Early-stopping test: has the loss *improved* by less than ``tol``?

    Convergence means the relative decrease
    ``(previous_loss - loss) / |previous_loss|`` lies in ``[0, tol)`` —
    training settled without getting worse.  A loss *increase* (negative
    decrease) is divergence, not convergence, and returns ``False`` so
    training continues (or the schedule anneals the step size down).
    ``tol <= 0`` disables the test, as does a non-finite previous loss
    (the first epoch has nothing to compare against).

    Applied by the one epoch loop every fit runs through, in process
    and across hogwild workers alike.
    """
    if tol <= 0 or not np.isfinite(previous_loss):
        return False
    if previous_loss == 0:
        return loss == 0
    decrease = (previous_loss - loss) / abs(previous_loss)
    return 0.0 <= decrease < tol


def annealed_learning_rate(
    base: float, epoch: int, total_epochs: int, decay: bool = True
) -> float:
    """Word2vec-style linear annealing to 1% of ``base`` over the budget.

    ``total_epochs`` is the fit's epoch budget (``config.epochs``), so
    the schedule reaches its floor on the final epoch.
    """
    if not decay or total_epochs <= 1:
        return base
    progress = epoch / max(1, total_epochs - 1)
    floor = 0.01 * base
    return floor + (base - floor) * (1.0 - progress)


NegativeDistribution = Literal["unigram", "uniform"]


@dataclass(frozen=True)
class Inf2vecConfig:
    """Hyper-parameters of Algorithm 2.

    Defaults follow Section V-A2 of the paper: ``K = 50``, ``L = 50``,
    ``alpha = 0.1``, ``learning_rate = 0.005``, 5–10 negatives, and
    10–20 iterations to convergence.

    Attributes
    ----------
    dim:
        Embedding dimensionality ``K``.
    context:
        Algorithm 1 settings (length ``L``, weight ``alpha``, restart).
    learning_rate:
        SGD step size ``gamma``.
    num_negatives:
        Negatives ``|N|`` sampled per positive observation.
    epochs:
        Number of passes over the generated corpus ``P`` (the paper's
        iteration count ``I``).
    negative_distribution:
        ``"uniform"`` (default) draws negatives uniformly over the user
        universe — the literal reading of the paper's "randomly
        generate several negative instances", and measurably stronger
        on the evaluation tasks because it keeps user popularity inside
        the embeddings; ``"unigram"`` is word2vec's distorted-unigram
        alternative, kept as an ablation knob.
    use_biases:
        Learn ``b_u`` / ``b̃_v``?  Disabling them is the bias ablation.
    convergence_tol:
        Relative improvement of mean epoch loss under which training
        stops early; ``0`` disables early stopping.
    lr_decay:
        Linearly anneal the learning rate to 1% of its initial value
        over the epoch budget, word2vec's standard schedule.  Keeps
        high learning rates stable.
    max_norm:
        Row-norm cap applied to the embedding rows touched by each
        update — a safety valve against SGD divergence; ``None``
        disables it.
    batch_size:
        Micro-batch size: contexts per fused update.  All negatives of
        a batch come from one
        :meth:`~repro.core.negative.NegativeSampler.sample_matrix`
        call and its Eq. 6 updates are one dense block over the batch's
        distinct centres and targets, so a batch costs what its rows
        cost, whatever ``num_users`` is.  The workspace that holds the
        block is sized from this value, the corpus's longest context,
        ``num_negatives`` and ``dim`` on a fit's first epoch, and reused
        by its later epochs.  ``1`` is plain one-context-at-a-time SGD,
        as in the paper; larger batches trade SGD staleness (gradients
        of a batch are evaluated at its entry parameters) for
        vectorisation, the standard word2vec-in-numpy compromise.  The
        effective batch is additionally capped at ``num_users / 8``
        contexts so tiny universes keep one-context-at-a-time dynamics.

    Telemetry is not a hyper-parameter: a fit inside a ``with
    recording(run):`` scope (:mod:`repro.obs.run`) records per-epoch
    metrics and the fit → contexts, epoch → sgd span tree into ``run``;
    outside one it records nothing.
    """

    dim: int = 50
    context: ContextConfig = field(default_factory=ContextConfig)
    learning_rate: float = 0.005
    num_negatives: int = 5
    epochs: int = 10
    negative_distribution: NegativeDistribution = "uniform"
    use_biases: bool = True
    convergence_tol: float = 0.0
    lr_decay: bool = True
    max_norm: float | None = 10.0
    batch_size: int = 64

    def __post_init__(self) -> None:
        check_positive_int("dim", self.dim)
        check_positive("learning_rate", self.learning_rate)
        check_positive_int("num_negatives", self.num_negatives)
        check_positive_int("epochs", self.epochs)
        check_positive_int("batch_size", self.batch_size)
        if self.negative_distribution not in ("unigram", "uniform"):
            raise TrainingError(
                "negative_distribution must be 'unigram' or 'uniform', "
                f"got {self.negative_distribution!r}"
            )
        if self.convergence_tol < 0:
            raise TrainingError(
                f"convergence_tol must be >= 0, got {self.convergence_tol}"
            )
        if self.max_norm is not None and self.max_norm <= 0:
            raise TrainingError(f"max_norm must be positive, got {self.max_norm}")


class EpochReport(NamedTuple):
    """One shard's share of a finished epoch, as the epoch loop sees it."""

    worker: int
    #: Mean per-positive loss over the shard's positives.
    loss: float
    positives: int
    #: Wall-clock seconds the shard spent on the epoch.
    seconds: float
    #: The shard's RNG bit-state at the end of the epoch.
    rng_state: dict


def _mean_over_positives(parts: Iterable[tuple[float, int]]) -> tuple[float, int]:
    """Combine ``(mean loss, positives)`` parts into the overall mean.

    Each mean is weighted by its share of the positives, so a single
    part comes back bit for bit.  No positives at all is a loss of 0.
    """
    parts = list(parts)
    total = sum(count for _, count in parts)
    if total == 0:
        return 0.0, 0
    return sum(mean * (count / total) for mean, count in parts), total


def _apply_bias(
    bias: np.ndarray, rows: np.ndarray, step: np.ndarray, current: np.ndarray
) -> None:
    """Add ``step`` to ``bias[rows]`` as it is now (``rows`` distinct)."""
    np.take(bias, rows, out=current, mode="clip")
    current += step
    bias[rows] = current


class _BatchWorkspace:
    """Every batch-sized buffer of :meth:`Inf2vecModel._update_batch`.

    Sized for micro-batches of up to ``observations`` positive
    observations over at most ``centres`` distinct centre users, and
    reused by every batch and epoch after it, so the SGD kernel
    allocates nothing that scales with the batch or with
    ``num_users``.  A *cell* is one scored (centre, target) pair: each
    observation has one positive cell and ``num_negatives`` negative
    cells, positives first.  Gathers write into the buffers with
    ``np.take(..., out=, mode="clip")``: numpy buffers the output of the
    default ``mode="raise"``, which would allocate, and every index is
    in range by construction.
    """

    def __init__(
        self,
        num_users: int,
        observations: int,
        centres: int,
        num_negatives: int,
        dim: int,
    ):
        cells = observations * (num_negatives + 1)
        targets = min(cells, num_users)
        self.key = (num_users, num_negatives, dim)
        self.observations = observations
        self.targets = targets
        #: Scratch slot per user for :meth:`remap`.
        self.mark = np.zeros(num_users, dtype=np.int64)
        self.ramp = np.arange(cells, dtype=np.int64)
        self.exclude = np.empty((observations, 2), dtype=np.int64)
        self.users = np.empty(observations, dtype=np.int64)
        self.user_local = np.empty(observations, dtype=np.int64)
        self.centre_rows = np.empty(observations, dtype=np.int64)
        self.user_bias = np.empty(observations)
        self.ids = np.empty(cells, dtype=np.int64)
        self.cell = np.empty(cells, dtype=np.int64)
        self.hit = np.empty(cells, dtype=bool)
        self.z = np.empty(cells)
        self.g = np.empty(cells)
        self.target_rows = np.empty(targets, dtype=np.int64)
        self.t = np.empty((targets, dim))
        self.dt = np.empty((targets, dim))
        self.target_vec = np.empty(targets)
        self.target_step = np.empty(targets)
        self.centres = 0
        self.reserve_centres(centres)

    def fits(self, key: tuple[int, int, int], observations: int) -> bool:
        """Can this workspace serve ``key``'s model at this batch size?"""
        return self.key == key and observations <= self.observations

    def reserve_centres(self, centres: int) -> None:
        """Grow the centre-sized buffers and the block to ``centres`` rows."""
        if centres <= self.centres:
            return
        dim = self.key[2]
        self.centres = centres
        self.s = np.empty((centres, dim))
        self.ds = np.empty((centres, dim))
        self.centre_vec = np.empty(centres)
        self.centre_step = np.empty(centres)
        self.block = np.empty(centres * self.targets)

    def remap(
        self, ids: np.ndarray, rows: np.ndarray, local: np.ndarray
    ) -> np.ndarray:
        """Write ``ids``' distinct values to ``rows`` and their indices to ``local``.

        ``rows[local[j]] == ids[j]`` afterwards; returns the filled
        prefix of ``rows``.  One scatter of positions into the mark
        buffer keeps one position per distinct id.  The mark buffer is
        only read at ``ids`` after they were written in the same call,
        so it never needs a reset: the cost follows ``ids``, not
        ``num_users``.
        """
        count = ids.shape[0]
        hit = self.hit[:count]
        self.mark[ids] = self.ramp[:count]
        np.take(self.mark, ids, out=local, mode="clip")
        np.equal(local, self.ramp[:count], out=hit)
        rows = np.compress(hit, ids, out=rows[: np.count_nonzero(hit)])
        self.mark[rows] = self.ramp[: rows.shape[0]]
        np.take(self.mark, ids, out=local, mode="clip")
        return rows


class Inf2vecModel:
    """Social influence embedding learned by Inf2vec.

    Examples
    --------
    >>> from repro.data.synthetic import SyntheticSocialDataset
    >>> dataset = SyntheticSocialDataset.digg_like(num_users=60, num_items=20,
    ...                                            seed=0)
    >>> model = Inf2vecModel(Inf2vecConfig(dim=8, epochs=2), seed=0)
    >>> model = model.fit(dataset.graph, dataset.log)
    >>> score = model.embedding.score(0, 1)  # x(0, 1)
    """

    def __init__(self, config: Inf2vecConfig | None = None, seed: SeedLike = None):
        self.config = config if config is not None else Inf2vecConfig()
        self._rng = ensure_rng(seed)
        self._embedding: InfluenceEmbedding | None = None
        self._loss_history: list[float] = []
        self._seed_text = None if seed is None else str(seed)
        self._workspace: _BatchWorkspace | None = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _record_run_header(self, **dataset: object) -> None:
        """Stamp config, dataset and seed into the ambient run."""
        run = active_run()
        if not run.enabled:
            return
        run.set_config(self.config)
        run.set_dataset(**dataset)
        if self._seed_text is not None:
            run.annotate(seed=self._seed_text)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        graph: SocialGraph,
        log: ActionLog,
        checkpoint: "CheckpointManager | None" = None,
        resume: bool = False,
    ) -> "Inf2vecModel":
        """Run Algorithm 2 end to end and return ``self``.

        Parameters
        ----------
        graph:
            The social network ``G``.
        log:
            Training action log ``A`` (typically the 80% episode split).
        checkpoint:
            Optional :class:`repro.ckpt.CheckpointManager`; when given,
            training state is saved atomically at the manager's cadence
            (and always at the final epoch and on early convergence).
        resume:
            Continue from the manager's latest valid checkpoint instead
            of starting fresh.  The checkpoint's config fingerprint must
            match this model's config and it must have been written by
            a one-worker run (this method, or ``HogwildTrainer`` at
            ``workers=1``); the resumed run replays the original RNG
            stream, so its final parameters are bitwise-identical to an
            uninterrupted run's.  With no usable checkpoint on disk,
            training starts from scratch.
        """
        self._fit_log(graph, log, checkpoint, resume)
        return self

    def _fit_log(
        self,
        graph: SocialGraph,
        log: ActionLog,
        checkpoint: "CheckpointManager | None" = None,
        resume: bool = False,
    ) -> list[float]:
        """:meth:`fit`; returns per-epoch seconds."""

        def prepare() -> ContextCorpus:
            corpus = self._generate_contexts(graph, log)
            if not len(corpus) and len(log) > 0:
                logger.warning(
                    "context generation produced an empty corpus "
                    "(no multi-adopter episodes?)"
                )
            return corpus

        return self._fit_shard(
            prepare,
            graph.num_nodes,
            checkpoint,
            resume,
            dict(
                num_users=graph.num_nodes,
                num_edges=graph.num_edges,
                num_episodes=len(log),
            ),
        )

    def fit_contexts(
        self,
        corpus: ContextCorpus,
        num_users: int,
        checkpoint: "CheckpointManager | None" = None,
        resume: bool = False,
    ) -> "Inf2vecModel":
        """Learn representations from a pre-generated corpus ``P``.

        Exposed separately so the efficiency experiment (Fig 9) can
        time pure learning, and so the citation case study can train on
        first-order influence pairs without random walks.

        Parameters
        ----------
        corpus:
            The ``(u, C_u^i)`` contexts.
        num_users:
            Size of the user universe (``|V|``).
        checkpoint, resume:
            Same contract as :meth:`fit`.  Bitwise-identical resume
            additionally requires the caller to pass the same
            pre-generated corpus.
        """
        self._fit_shard(
            lambda: corpus,
            num_users,
            checkpoint,
            resume,
            dict(num_users=num_users, num_contexts=len(corpus)),
        )
        return self

    def _fit_shard(
        self,
        prepare: "Callable[[], ContextCorpus]",
        num_users: int,
        checkpoint: "CheckpointManager | None",
        resume: bool,
        dataset: dict[str, object],
    ) -> list[float]:
        """The in-process fit: one shard on the model's own RNG stream.

        RNG order: ``prepare`` generates the contexts, then the
        embedding is initialised, then every epoch draws its
        permutation and negatives.  Returns per-epoch seconds.
        """
        num_users = check_positive_int("num_users", num_users)
        state = self._resume_state(checkpoint, resume, workers=1)
        with active_run().span("fit"):
            self._record_run_header(**dataset)
            if state is not None:
                # Rewind to the original fit's entry state so context
                # generation reproduces the exact corpus the
                # interrupted run trained on.
                self._rng.bit_generator.state = copy.deepcopy(
                    state.entry_rng_state
                )
            entry_rng_state = copy.deepcopy(self._rng.bit_generator.state)
            corpus = prepare()
            start_epoch = self._begin(state, num_users)
            try:
                return self._run_epochs(
                    self._in_process(corpus),
                    [entry_rng_state],
                    start_epoch,
                    checkpoint,
                    entry_rng_state,
                )
            finally:
                # The kernel's workspace serves this fit's epochs; a
                # fitted model does not keep it.
                self._workspace = None

    def _in_process(
        self, corpus: ContextCorpus
    ) -> "Callable[[int, float], list[EpochReport]]":
        """The epoch step of a one-shard fit: ``corpus``, on this thread."""
        run = active_run()
        sampler = self._build_sampler(corpus, self.embedding.num_users)
        positives = int(corpus.members.shape[0])

        def run_epoch(epoch: int, learning_rate: float) -> list[EpochReport]:
            started = time.perf_counter()
            with run.span("sgd"):
                loss = self.train_epoch(corpus, sampler, learning_rate)
            return [
                EpochReport(
                    0,
                    loss,
                    positives,
                    time.perf_counter() - started,
                    copy.deepcopy(self._rng.bit_generator.state),
                )
            ]

        return run_epoch

    def _resume_state(
        self, checkpoint: "CheckpointManager | None", resume: bool, workers: int
    ) -> "TrainingState | None":
        """Resolve the checkpoint to resume from (``None`` = fresh start).

        The checkpoint must carry this config's fingerprint and have
        been written at ``workers`` workers; a state without a worker
        topology counts as one worker.
        """
        if not resume:
            return None
        if checkpoint is None:
            raise TrainingError("resume=True requires a checkpoint manager")
        state = checkpoint.latest_state()
        if state is None:
            logger.info(
                "no usable checkpoint under %s; starting fresh",
                checkpoint.directory,
            )
            return None
        _, fingerprint = config_fingerprint(self.config)
        if state.config_fingerprint != fingerprint:
            raise CheckpointError(
                f"checkpoint fingerprint {state.config_fingerprint} does not "
                f"match this config's {fingerprint}; resume requires the "
                "identical hyper-parameter configuration"
            )
        topology = state.worker_topology or {"workers": 1}
        if int(topology["workers"]) != workers:
            raise CheckpointError(
                f"checkpoint topology has {topology['workers']} workers but "
                f"this run has {workers}; resume-equivalence holds only at "
                "a fixed worker count"
            )
        logger.info(
            "resuming from checkpoint at epoch %d (%s, %d workers)",
            state.epoch,
            checkpoint.directory,
            workers,
        )
        return state

    def _begin(self, state: "TrainingState | None", num_users: int) -> int:
        """Initialise the parameters, or restore them from ``state``.

        A restore installs the checkpoint's parameters, loss history
        and RNG stream.  Returns the first epoch left to train.
        """
        if state is None:
            self._embedding = InfluenceEmbedding.initialize(
                num_users, self.config.dim, self._rng
            )
            self._loss_history = []
            return 0
        if state.source.shape != (num_users, self.config.dim):
            raise CheckpointError(
                f"checkpoint holds a ({state.num_users}, {state.dim}) "
                f"embedding but this fit needs ({num_users}, "
                f"{self.config.dim})"
            )
        self._embedding = state.to_embedding()
        self._loss_history = [float(x) for x in state.loss_history]
        try:
            self._rng.bit_generator.state = copy.deepcopy(state.rng_state)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint RNG state is incompatible with this model's "
                f"bit generator: {exc}"
            ) from exc
        CKPT_RESUMES.inc()
        return state.epoch + 1

    def _run_epochs(
        self,
        run_epoch: "Callable[[int, float], list[EpochReport]]",
        entry_states: list[dict],
        start_epoch: int,
        checkpoint: "CheckpointManager | None",
        entry_rng_state: dict,
    ) -> list[float]:
        """The epoch loop of every fit, in process or across workers.

        ``run_epoch(epoch, learning_rate)`` trains every shard for one
        epoch and returns one :class:`EpochReport` per shard;
        ``entry_states`` holds each shard's RNG state at its start.
        This loop owns the rest: the learning-rate anneal over
        ``config.epochs``, the loss over all positives, the convergence
        test, checkpoints (numbered by epoch, with the worker
        topology), epoch telemetry and progress logging.
        Returns each epoch's wall-clock seconds.
        """
        run = active_run()
        workers = len(entry_states)
        previous_loss = (
            self._loss_history[-1]
            if start_epoch > 0 and self._loss_history
            else np.inf
        )
        seconds: list[float] = []
        budget = self.config.epochs
        for epoch in range(start_epoch, budget):
            learning_rate = self._epoch_learning_rate(epoch)
            started = time.perf_counter()
            with run.span("epoch", epoch=epoch) as epoch_span:
                reports = run_epoch(epoch, learning_rate)
                elapsed = time.perf_counter() - started
                loss, positives = _mean_over_positives(
                    (report.loss, report.positives) for report in reports
                )
                if run.enabled:
                    self._record_epoch(
                        epoch_span, epoch, learning_rate, loss, positives,
                        reports, elapsed,
                    )
            seconds.append(elapsed)
            self._loss_history.append(loss)
            converged = self._converged(previous_loss, loss)
            if checkpoint is not None:
                # Force a save at terminal epochs so the state the fit
                # returns is always recoverable.
                checkpoint.maybe_save(
                    self,
                    epoch,
                    entry_rng_state=entry_rng_state,
                    force=converged or epoch == budget - 1,
                    worker_topology={
                        "workers": workers,
                        "entry_rng_states": entry_states,
                        "rng_states": [report.rng_state for report in reports],
                    },
                )
            log_epoch_progress(
                logger,
                epoch,
                budget,
                loss=loss,
                elapsed=elapsed,
                lr=f"{learning_rate:.4g}",
                workers=workers,
            )
            if converged:
                logger.info("converged after %d epochs", epoch + 1)
                break
            previous_loss = loss
        return seconds

    def _record_epoch(
        self,
        epoch_span,
        epoch: int,
        learning_rate: float,
        loss: float,
        positives: int,
        reports: list[EpochReport],
        elapsed: float,
    ) -> None:
        """Per-epoch telemetry, global and per shard (recording runs only)."""
        examples_per_sec = positives / elapsed if elapsed > 0 else 0.0
        TRAIN_EPOCHS.inc()
        TRAIN_EPOCH_LOSS.set(loss, epoch=epoch)
        TRAIN_EPOCH_LEARNING_RATE.set(learning_rate, epoch=epoch)
        TRAIN_EPOCH_EXAMPLES_PER_SEC.set(examples_per_sec, epoch=epoch)
        for report in reports:
            worker = report.worker
            TRAIN_WORKER_EXAMPLES.inc(report.positives, worker=worker)
            TRAIN_WORKER_EPOCH_SECONDS.set(report.seconds, worker=worker, epoch=epoch)
            TRAIN_WORKER_LOSS.set(report.loss, worker=worker, epoch=epoch)
        epoch_span.set_attribute("loss", loss)
        epoch_span.set_attribute("examples", positives)
        epoch_span.set_attribute("examples_per_sec", examples_per_sec)
        epoch_span.set_attribute("workers", len(reports))

    def _epoch_learning_rate(self, epoch: int) -> float:
        """Annealed step size for ``epoch`` of the configured budget."""
        return annealed_learning_rate(
            self.config.learning_rate,
            epoch,
            self.config.epochs,
            self.config.lr_decay,
        )

    def train_epoch(
        self,
        corpus: ContextCorpus,
        sampler: NegativeSampler | None = None,
        learning_rate: float | None = None,
        batch_size: int | None = None,
    ) -> float:
        """One pass over the corpus (lines 10–16); returns mean loss.

        The loss is the negative of Eq. 4 averaged over positive
        observations — lower is better, and a decreasing sequence
        across epochs is the convergence signal.  The corpus is
        shuffled with one permutation draw of its context rows, then
        trained in fused micro-batches (see :class:`Inf2vecConfig`),
        each gathered from the flat member array.

        Parameters
        ----------
        corpus, sampler:
            The training contexts and negative sampler.
        learning_rate:
            Step size for this epoch; defaults to the configured
            (undecayed) rate when called directly.
        batch_size:
            Micro-batch override for this epoch; defaults to
            ``config.batch_size``.
        """
        if self._embedding is None:
            raise NotFittedError(
                "call fit()/fit_contexts() before train_epoch(); the "
                "parameter store is not initialised"
            )
        if sampler is None:
            sampler = self._build_sampler(corpus, self._embedding.num_users)
        if not len(corpus):
            return 0.0
        if learning_rate is None:
            learning_rate = self.config.learning_rate
        if batch_size is None:
            batch_size = self.config.batch_size
        batch_size = check_positive_int("batch_size", batch_size)
        # Cap the micro-batch relative to the universe: in a tiny
        # universe a large batch hits every embedding row many times
        # with gradients evaluated at the batch's entry parameters,
        # which multiplies the effective per-row step size and
        # destabilises SGD.  num_users/8 keeps per-row accumulation in
        # the regime where micro-batched and per-context SGD match.
        batch_size = min(batch_size, max(1, self._embedding.num_users // 8))
        order = self._rng.permutation(len(corpus))
        total_positives = int(corpus.members.shape[0])
        if total_positives == 0:
            return 0.0
        # Size the kernel's workspace once for the epoch's largest
        # possible batch; later epochs reuse it.
        self._reserve_workspace(
            min(batch_size * int(corpus.sizes.max()), total_positives), batch_size
        )
        total_loss = 0.0
        for start in range(0, order.shape[0], batch_size):
            batch = corpus[order[start : start + batch_size]]
            if not batch.members.shape[0]:
                continue
            total_loss += self._update_batch(
                np.repeat(batch.centres, batch.sizes),
                batch.members,
                sampler,
                learning_rate,
            )
        return total_loss / total_positives

    # ------------------------------------------------------------------
    # SGD update (Eq. 5 / Eq. 6)
    # ------------------------------------------------------------------

    def _reserve_workspace(
        self, observations: int, centres: int
    ) -> _BatchWorkspace:
        """The kernel's workspace, rebuilt only when it cannot hold a batch."""
        emb = self.embedding
        key = (emb.num_users, self.config.num_negatives, emb.dim)
        workspace = self._workspace
        if workspace is None or not workspace.fits(key, observations):
            workspace = self._workspace = _BatchWorkspace(
                emb.num_users,
                observations,
                centres,
                self.config.num_negatives,
                emb.dim,
            )
        return workspace

    def _update_batch(
        self,
        users: np.ndarray,
        positives: np.ndarray,
        sampler: NegativeSampler,
        lr: float,
    ) -> float:
        """Fused Eq. 6 update over a micro-batch of contexts.

        ``users`` and ``positives`` are aligned flat arrays — one entry
        per positive observation, with each context's center user
        repeated over its context members.  All negatives for the
        batch come from a single ``sample_matrix`` call.  The batch is
        then one dense block in batch-local ids: its ``c`` distinct
        centres and ``m`` distinct targets (positives and negatives)
        are gathered into ``S_b`` and ``T_b``, one ``S_b @ T_bᵀ`` scores
        every pair, and the z-scores are read off at the observed
        cells.  The step-sized Eq. 6 coefficients are accumulated into
        the same ``c × m`` block, summing repeated cells (the same pair
        in two contexts, or a negative drawn twice), so the updates are
        ``ΔS = C @ T_b``, ``ΔT = Cᵀ @ S_b`` and the block's row and
        column sums for the biases.  They and the ``max_norm`` clip
        touch only the batch's rows, and every batch-sized temporary
        lives in the model's reused :class:`_BatchWorkspace`.
        All gradients are evaluated at the batch's entry parameters —
        micro-batched SGD, the standard word2vec-in-numpy semantics —
        and each step is added to its row's value at write time.
        """
        emb = self._embedding
        assert emb is not None  # guarded by callers
        num_neg = self.config.num_negatives
        num_pos = positives.shape[0]
        cells = num_pos * (num_neg + 1)
        ws = self._reserve_workspace(
            num_pos, min(self.config.batch_size, num_pos)
        )

        exclude = ws.exclude[:num_pos]
        exclude[:, 0] = users
        exclude[:, 1] = positives
        negatives = sampler.sample_matrix(
            num_pos, num_neg, self._rng, exclude=exclude
        )
        # Cell ids: each observation's positive, then all negatives.
        ids = ws.ids[:cells]
        ids[:num_pos] = positives
        ids[num_pos:].reshape(num_pos, num_neg)[...] = negatives
        # A contiguous int64 copy of the centres indexes fastest.
        users = ws.users[:num_pos]
        users[...] = exclude[:, 0]

        user_local = ws.user_local[:num_pos]
        centre_rows = ws.remap(users, ws.centre_rows, user_local)
        cell = ws.cell[:cells]
        target_rows = ws.remap(ids, ws.target_rows, cell)
        num_centres, num_targets = centre_rows.shape[0], target_rows.shape[0]
        ws.reserve_centres(num_centres)
        s = np.take(
            emb.source, centre_rows, axis=0, out=ws.s[:num_centres], mode="clip"
        )
        t = np.take(
            emb.target, target_rows, axis=0, out=ws.t[:num_targets], mode="clip"
        )
        block = ws.block[: num_centres * num_targets]
        grid = block.reshape(num_centres, num_targets)
        # The block also scores the pairs no observation asks for; at a
        # diverging step size those may overflow where the observed ones
        # do not.  They are never read, so their overflow is not an error.
        with np.errstate(over="ignore"):
            np.matmul(s, t.T, out=grid)
        # Flat block index of every cell: centre row * m + target column.
        np.multiply(user_local, num_targets, out=user_local)
        cell[:num_pos] += user_local
        cell[num_pos:].reshape(num_pos, num_neg)[...] += user_local[:, None]

        z = np.take(block, cell, out=ws.z[:cells], mode="clip")
        g = ws.g[:cells]
        if self.config.use_biases:
            user_bias = np.take(
                emb.source_bias, users, out=ws.user_bias[:num_pos], mode="clip"
            )
            z[:num_pos] += user_bias
            z[num_pos:].reshape(num_pos, num_neg)[...] += user_bias[:, None]
            z += np.take(emb.target_bias, ids, out=g, mode="clip")
        # With w = [-z_pos, z_neg], expit(w) is the magnitude of
        # d/dz log sigma(z) at the positives and of d/dz log sigma(-z)
        # at the negatives, and the loss is -sum(log_expit(-w)).
        np.negative(z[:num_pos], out=z[:num_pos])
        expit(z, out=g)
        np.negative(z, out=z)
        loss = -float(log_expit(z, out=z).sum())
        # Fold the step size (and the negatives' sign) into the
        # coefficients once, then accumulate them into the block.
        g *= lr
        np.negative(g[num_pos:], out=g[num_pos:])
        block.fill(0.0)
        np.add.at(block, cell, g)

        ds = np.matmul(grid, t, out=ws.ds[:num_centres])
        dt = np.matmul(grid.T, s, out=ws.dt[:num_targets])
        # The entry copies s and t are spent: they now hold each row's
        # value at write time.
        centre_vec = ws.centre_vec[:num_centres]
        target_vec = ws.target_vec[:num_targets]
        clipped = self._apply_rows(emb.source, centre_rows, ds, s, centre_vec)
        clipped += self._apply_rows(emb.target, target_rows, dt, t, target_vec)
        if self.config.use_biases:
            _apply_bias(
                emb.source_bias, centre_rows,
                np.sum(grid, axis=1, out=ws.centre_step[:num_centres]),
                centre_vec,
            )
            _apply_bias(
                emb.target_bias, target_rows,
                np.sum(grid, axis=0, out=ws.target_step[:num_targets]),
                target_vec,
            )
        if clipped:
            TRAIN_CLIP_ROWS.inc(clipped)
        return loss

    def _apply_rows(
        self,
        param: np.ndarray,
        rows: np.ndarray,
        step: np.ndarray,
        current: np.ndarray,
        norms: np.ndarray,
    ) -> int:
        """Add ``step`` to ``param[rows]`` as it is now, clip, store back.

        ``rows`` are distinct.  ``current`` and ``norms`` are workspace
        buffers; rows whose new norm exceeds ``max_norm`` are rescaled
        onto it before the store.  Returns how many rows were rescaled.
        """
        np.take(param, rows, axis=0, out=current, mode="clip")
        current += step
        cap = self.config.max_norm
        clipped = 0
        if cap is not None:
            np.einsum("ij,ij->i", current, current, out=norms)
            np.sqrt(norms, out=norms)
            over = np.flatnonzero(norms > cap)
            if over.shape[0]:
                current[over] *= (cap / norms[over])[:, None]
                clipped = int(over.shape[0])
        param[rows] = current
        return clipped

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _build_sampler(
        self, corpus: ContextCorpus, num_users: int
    ) -> NegativeSampler:
        if self.config.negative_distribution == "uniform":
            return NegativeSampler.uniform(num_users)
        return NegativeSampler.from_frequencies(
            np.bincount(corpus.members, minlength=num_users).astype(np.float64)
        )

    def _generate_contexts(
        self, graph: SocialGraph, log: ActionLog
    ) -> ContextCorpus:
        """Run Algorithm 1 over ``log`` on this model's RNG stream, once."""
        with active_run().span("contexts") as span:
            corpus = ContextGenerator(
                graph, self.config.context, self._rng
            ).generate(log)
            span.set_attribute("num_contexts", len(corpus))
        return corpus

    def _converged(self, previous_loss: float, loss: float) -> bool:
        return loss_converged(previous_loss, loss, self.config.convergence_tol)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def embedding(self) -> InfluenceEmbedding:
        """The learned parameters; raises if the model is unfitted."""
        if self._embedding is None:
            raise NotFittedError("Inf2vecModel is not fitted yet")
        return self._embedding

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` (or :meth:`fit_contexts`) has run."""
        return self._embedding is not None

    @property
    def rng(self) -> np.random.Generator:
        """The model's RNG stream (checkpoints capture its bit-state)."""
        return self._rng

    @property
    def loss_history(self) -> list[float]:
        """Mean per-positive loss after each completed epoch."""
        return list(self._loss_history)

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"Inf2vecModel(dim={self.config.dim}, {state})"


# ----------------------------------------------------------------------
# Hogwild worker entry point
# ----------------------------------------------------------------------


def hogwild_worker_main(
    worker_id: int,
    spec: "SharedEmbeddingSpec",
    config: Inf2vecConfig,
    graph: SocialGraph,
    shard_log: ActionLog,
    entry_rng_state: dict,
    resume_rng_state: dict | None,
    conn: "Connection",
) -> None:
    """Process entry point for one hogwild training worker.

    The worker attaches the shared parameter blocks named by ``spec``
    and trains its episode shard against them lock-free — the corpus
    of an ordinary :class:`Inf2vecModel` whose embedding arrays are zero-copy shared-memory views, so the SGD
    kernel updates the global parameters directly.  The parent runs
    the epoch loop; the worker only runs its shard's epochs.

    Determinism contract: the worker's generator starts from
    ``entry_rng_state`` (its spawn-derived birth state, replayed on
    resume so the regenerated corpus matches the interrupted run's),
    then jumps to ``resume_rng_state`` when resuming.

    Protocol over ``conn``: the worker sends ``("ready", id,
    num_contexts)`` once set up, then answers ``("epoch", index, lr)``
    commands with ``("epoch_done", id, loss, positives, seconds,
    rng_state)`` until ``("stop",)`` arrives or the pipe closes (parent
    death — exit quietly so orphans never linger).  Failures are
    reported as ``("error", id, message)``.
    """
    from repro.parallel.shared import SharedEmbedding  # import cycle guard

    shared = None
    # Under ``fork`` the worker inherits the parent's ambient recorder.
    # Recording into that copy would be lost with the process, and its
    # registry lock may have been held by an exporter thread at fork
    # time, so the worker records nothing; the parent aggregates.
    with recording(NULL_RUN):  # type: ignore[arg-type]
        try:
            # The workers are the parallelism: each runs its kernel's
            # block products on one BLAS thread (see repro.utils.blas).
            limit_blas_threads(1)
            shared = SharedEmbedding.attach(spec)
            rng = generator_from_state(copy.deepcopy(entry_rng_state))
            model = Inf2vecModel(config, seed=rng)
            model._embedding = shared.embedding
            corpus = model._generate_contexts(graph, shard_log)
            sampler = model._build_sampler(corpus, graph.num_nodes)
            if resume_rng_state is not None:
                rng.bit_generator.state = copy.deepcopy(resume_rng_state)
            conn.send(("ready", worker_id, len(corpus)))
            parent_pid = os.getppid()
            while True:
                # Poll instead of a blocking recv: under the fork start
                # method every worker inherits copies of its siblings'
                # (and its own) parent-side pipe ends, so a SIGKILL'd
                # parent never EOFs the pipe.  A reparented worker
                # (getppid changed) is an orphan and must exit on its own.
                try:
                    while not conn.poll(0.2):
                        if os.getppid() != parent_pid:
                            return
                    message = conn.recv()
                except (EOFError, OSError):  # parent is gone; stop training
                    return
                if message[0] == "stop":
                    return
                _, _, learning_rate = message
                started = time.perf_counter()
                loss = model.train_epoch(corpus, sampler, learning_rate)
                conn.send(
                    (
                        "epoch_done",
                        worker_id,
                        float(loss),
                        int(corpus.members.shape[0]),
                        time.perf_counter() - started,
                        copy.deepcopy(rng.bit_generator.state),
                    )
                )
        except Exception as exc:  # surfaced to the parent, which raises
            try:
                conn.send(("error", worker_id, f"{type(exc).__name__}: {exc}"))
            except OSError:
                pass
        finally:
            if shared is not None:
                shared.close()
            conn.close()
