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
from scipy import sparse
from scipy.special import expit, log_expit

from repro.core.context import ContextConfig, ContextCorpus, ContextGenerator
from repro.core.embeddings import InfluenceEmbedding
from repro.core.negative import NegativeSampler
from repro.data.actionlog import ActionLog
from repro.data.graph import SocialGraph
from repro.errors import CheckpointError, NotFittedError, TrainingError
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.run import (
    NULL_RUN,
    active_metrics,
    active_run,
    config_fingerprint,
    recording,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only (avoids an import cycle)
    from multiprocessing.connection import Connection

    from repro.ckpt.manager import CheckpointManager
    from repro.ckpt.state import TrainingState
    from repro.parallel.shared import SharedEmbeddingSpec
from repro.utils.logging import get_logger, log_epoch_progress
from repro.utils.rng import SeedLike, ensure_rng, generator_from_state
from repro.utils.validation import check_positive, check_positive_int

logger = get_logger("core.inf2vec")


def _scatter_add_outer(
    dest: np.ndarray,
    rows: np.ndarray,
    weights: np.ndarray,
    vectors_index: np.ndarray,
    vectors: np.ndarray,
) -> None:
    """Accumulate ``weights[j] * vectors[vectors_index[j]]`` into ``dest[rows[j]]``.

    Semantically this is ``np.add.at(dest, rows, weights[:, None] *
    vectors[vectors_index])`` — the Eq. 6 rank-1 updates with duplicate
    rows summed — but phrased as one sparse-times-dense product
    ``dest += M @ vectors`` with ``M[rows[j], vectors_index[j]] +=
    weights[j]``, which never materialises the per-observation update
    buffer and runs an order of magnitude faster than ``ufunc.at``.
    """
    matrix = sparse.coo_matrix(
        (weights, (rows, vectors_index)),
        shape=(dest.shape[0], vectors.shape[0]),
    )
    dest += matrix @ vectors

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
        call and its Eq. 6 updates are scatter-accumulated in one step.
        ``1`` is plain one-context-at-a-time SGD, as in the paper;
        larger batches trade SGD staleness (gradients of a batch are
        evaluated at its entry parameters) for vectorisation, the
        standard word2vec-in-numpy compromise.  The effective batch is
        additionally capped at ``num_users / 8`` contexts so tiny
        universes keep one-context-at-a-time dynamics.

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
        self._metrics = NULL_REGISTRY

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
            return self._run_epochs(
                self._in_process(corpus),
                [entry_rng_state],
                start_epoch,
                checkpoint,
                entry_rng_state,
            )

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
        metrics = active_metrics()
        if metrics.enabled:
            metrics.counter(
                "ckpt.resumes", "training runs resumed from a checkpoint"
            ).inc()
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
                self._record_epoch(
                    run.metrics, epoch_span, epoch, learning_rate, loss,
                    positives, reports, elapsed,
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
        metrics: MetricsRegistry,
        epoch_span,
        epoch: int,
        learning_rate: float,
        loss: float,
        positives: int,
        reports: list[EpochReport],
        elapsed: float,
    ) -> None:
        """Per-epoch telemetry, global and per shard (enabled runs only)."""
        if not metrics.enabled:
            return
        examples_per_sec = positives / elapsed if elapsed > 0 else 0.0
        metrics.counter("train.epochs", "completed training epochs").inc()
        metrics.gauge("train.epoch.loss", "mean per-positive loss").set(
            loss, epoch=epoch
        )
        metrics.gauge("train.epoch.learning_rate", "annealed SGD step").set(
            learning_rate, epoch=epoch
        )
        metrics.gauge(
            "train.epoch.examples_per_sec", "positive observations per second"
        ).set(examples_per_sec, epoch=epoch)
        for report in reports:
            metrics.counter(
                "train.worker.examples",
                "positive observations trained, per worker",
            ).inc(report.positives, worker=report.worker)
            metrics.gauge(
                "train.worker.epoch_seconds",
                "in-worker wall-clock per epoch",
            ).set(report.seconds, worker=report.worker, epoch=epoch)
            metrics.gauge(
                "train.worker.loss",
                "mean per-positive loss of the worker's shard",
            ).set(report.loss, worker=report.worker, epoch=epoch)
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
        # One ambient-recorder lookup per epoch; the per-batch hooks
        # below are no-ops against the null registry.
        self._metrics = active_metrics()
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
        batch come from a single ``sample_matrix`` call, every z-score
        is computed with one gather + einsum per parameter family, and
        the scatter-accumulated writes (``np.add.at`` semantics,
        implemented via :func:`_scatter_add_outer`) sum the updates of
        repeated rows (the same user appearing in several contexts of
        the batch, or a negative drawn twice).
        All gradients are evaluated at the batch's entry parameters —
        micro-batched SGD, the standard word2vec-in-numpy semantics.
        """
        emb = self._embedding
        assert emb is not None  # guarded by callers
        num_neg = self.config.num_negatives
        num_pos = positives.shape[0]

        exclude = np.stack([users, positives], axis=1)
        negatives = sampler.sample_matrix(
            num_pos, num_neg, self._rng, exclude=exclude,
            metrics=self._metrics,
        )
        flat_negatives = negatives.ravel()

        s = emb.source[users]  # (p, K)
        t_pos = emb.target[positives]  # (p, K)
        t_neg = emb.target[flat_negatives].reshape(num_pos, num_neg, -1)

        source_bias = emb.source_bias[users]
        z_pos = (
            np.einsum("pk,pk->p", s, t_pos)
            + source_bias
            + emb.target_bias[positives]
        )
        z_neg = (
            np.einsum("pk,pnk->pn", s, t_neg)
            + source_bias[:, None]
            + emb.target_bias[negatives]
        )

        g_pos = 1.0 - expit(z_pos)  # d/dz log sigma(z)
        g_neg = -expit(z_neg)  # d/dz log sigma(-z)

        loss = -(log_expit(z_pos).sum() + log_expit(-z_neg).sum())

        # Fold the step size into the (small) gradient coefficients once
        # so every scatter below is already step-sized.
        g_pos *= lr
        g_neg *= lr
        grad_s = g_pos[:, None] * t_pos + np.einsum("pn,pnk->pk", g_neg, t_neg)
        # One fused scatter over all touched target rows (positives and
        # negatives together): every target update is a weighted copy of
        # its observation's source row, so the whole batch is a single
        # sparse-times-dense product against ``s``.
        target_rows = np.concatenate([positives, flat_negatives])
        g_all = np.concatenate([g_pos, g_neg.ravel()])
        observation = np.arange(num_pos)
        target_observation = np.concatenate(
            [observation, np.repeat(observation, num_neg)]
        )
        _scatter_add_outer(emb.target, target_rows, g_all, target_observation, s)
        _scatter_add_outer(
            emb.source, users, np.ones(num_pos), observation, grad_s
        )
        if self.config.use_biases:
            num_users = emb.source_bias.shape[0]
            emb.source_bias += np.bincount(
                users, weights=g_pos + g_neg.sum(axis=1), minlength=num_users
            )
            emb.target_bias += np.bincount(
                target_rows, weights=g_all, minlength=num_users
            )
        self._clip_norm_rows(emb, users, positives, flat_negatives)
        return float(loss)

    def _clip_norm_rows(
        self,
        emb: InfluenceEmbedding,
        users: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
    ) -> None:
        """Rescale rows touched by the last update that exceed ``max_norm``."""
        cap = self.config.max_norm
        if cap is None:
            return
        clipped = 0
        # Deduplicate touched rows with a membership mask — O(|V| + rows)
        # beats np.unique's sort at batch sizes in the thousands.
        mask = np.zeros(emb.source.shape[0], dtype=bool)
        mask[users] = True
        source_rows = np.nonzero(mask)[0]
        source_norms = np.linalg.norm(emb.source[source_rows], axis=1)
        over = source_norms > cap
        if np.any(over):
            rows = source_rows[over]
            emb.source[rows] *= (cap / source_norms[over])[:, None]
            clipped += int(rows.shape[0])
        mask = np.zeros(emb.target.shape[0], dtype=bool)
        mask[positives] = True
        mask[negatives] = True
        touched = np.nonzero(mask)[0]
        target_norms = np.linalg.norm(emb.target[touched], axis=1)
        over = target_norms > cap
        if np.any(over):
            rows = touched[over]
            emb.target[rows] *= (cap / target_norms[over])[:, None]
            clipped += int(rows.shape[0])
        if clipped and self._metrics.enabled:
            self._metrics.counter(
                "train.clip.rows", "embedding rows rescaled by max_norm"
            ).inc(clipped)

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
