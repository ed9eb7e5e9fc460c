"""Influence-propagation predictors (Section IV-C & Section V-A3).

Every evaluated method exposes the same two-question interface so the
evaluation protocols can stay model-agnostic:

* *activation*: "given the set of already-active friends ``S_v`` (in
  activation order), how likely is candidate ``v`` to activate?"
* *diffusion*: "given a seed set, how likely is each user in the
  network to eventually activate?"

Latent-representation models (Inf2vec, MF, node2vec) answer both with
the aggregation of pairwise scores (Eq. 7).  IC-based models (DE, ST,
EM, Emb-IC) answer activation with Eq. 8 and diffusion with Monte-Carlo
simulation, exactly as the paper evaluates them.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.core.aggregation import Aggregator, get_aggregator
from repro.core.embeddings import InfluenceEmbedding
from repro.diffusion.montecarlo import activation_frequencies
from repro.diffusion.probabilities import EdgeProbabilities
from repro.diffusion.ic import activation_probability
from repro.errors import EvaluationError
from repro.serve.scoring import aggregated_scores
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int


class InfluencePredictor(Protocol):
    """Interface shared by all evaluated methods."""

    def activation_score(
        self, candidate: int, active_friends: Sequence[int]
    ) -> float:
        """Likelihood score of ``candidate`` activating given its
        already-active friends (earliest-activated first)."""
        ...

    def diffusion_scores(self, seeds: Sequence[int]) -> np.ndarray:
        """Likelihood score of every user activating given ``seeds``."""
        ...


class EmbeddingPredictor:
    """Eq. 7 predictor over a learned :class:`InfluenceEmbedding`.

    Parameters
    ----------
    embedding:
        Learned ``(S, T, b, b̃)`` parameters.
    aggregator:
        One of ``"ave"`` (paper default), ``"sum"``, ``"max"``,
        ``"latest"`` — or a custom callable.
    """

    def __init__(
        self,
        embedding: InfluenceEmbedding,
        aggregator: str | Aggregator = "ave",
    ):
        self.embedding = embedding
        if callable(aggregator):
            # A custom callable must stay on the custom path even when
            # its __name__ collides with a builtin ("max", "sum", ...),
            # so the builtin name is tracked separately from the label.
            self._aggregate = aggregator
            self._aggregator_name = getattr(aggregator, "__name__", "custom")
            self._builtin_name: str | None = None
        else:
            # One key for both paths: activation_score's callable and
            # diffusion_scores' vectorised builtin.
            key = aggregator.strip().lower()
            self._aggregate = get_aggregator(key)
            self._aggregator_name = key
            self._builtin_name = key

    @property
    def aggregator_name(self) -> str:
        """The aggregation function in use (for reports)."""
        return self._aggregator_name

    def activation_score(
        self, candidate: int, active_friends: Sequence[int]
    ) -> float:
        """Aggregate ``x(u, candidate)`` over the active friends."""
        friends = np.asarray(active_friends, dtype=np.int64)
        if friends.shape[0] == 0:
            raise EvaluationError(
                "activation_score requires at least one active friend"
            )
        scores = self.embedding.scores_onto(candidate, friends)
        return float(self._aggregate(scores))

    def diffusion_scores(self, seeds: Sequence[int]) -> np.ndarray:
        """Aggregate ``x(seed, v)`` per user ``v``, blocked and vectorised.

        Routed through :func:`repro.serve.scoring.aggregated_scores`:
        targets are scored in fixed-size blocks and reduced in place,
        so at most ``num_seeds × block_size`` pairwise scores exist at
        a time instead of the full ``(num_seeds, num_users)`` matrix.
        Dispatch is on *whether a callable was supplied*, not on its
        ``__name__`` — a custom callable that happens to be named
        ``"max"`` is honoured, never silently swapped for the builtin.
        Seeds are assumed to be given in activation order so
        ``latest`` keeps its meaning.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.shape[0] == 0:
            raise EvaluationError("diffusion_scores requires at least one seed")
        aggregator = (
            self._builtin_name
            if self._builtin_name is not None
            else self._aggregate
        )
        return aggregated_scores(self.embedding, seeds, aggregator)


class ICPredictor:
    """IC-model predictor over learned edge probabilities.

    Activation prediction uses the closed form of Eq. 8; diffusion
    prediction estimates per-user activation frequency by Monte-Carlo
    simulation (5,000 runs in the paper — configurable because that is
    the dominant cost of Table III).

    Parameters
    ----------
    probabilities:
        Learned ``P_uv`` table.
    num_runs:
        Monte-Carlo simulations per diffusion query.
    seed:
        RNG seed for the simulations.
    """

    def __init__(
        self,
        probabilities: EdgeProbabilities,
        num_runs: int = 1000,
        seed: SeedLike = None,
    ):
        self.probabilities = probabilities
        self.num_runs = check_positive_int("num_runs", num_runs)
        self._seed = seed

    def activation_score(
        self, candidate: int, active_friends: Sequence[int]
    ) -> float:
        """Eq. 8 over the candidate's active friends."""
        friends = np.asarray(active_friends, dtype=np.int64)
        if friends.shape[0] == 0:
            raise EvaluationError(
                "activation_score requires at least one active friend"
            )
        pairwise = [
            self.probabilities.get_or_zero(int(u), int(candidate))
            for u in friends
        ]
        return activation_probability(pairwise)

    def diffusion_scores(self, seeds: Sequence[int]) -> np.ndarray:
        """Per-user Monte-Carlo activation frequency from ``seeds``."""
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.shape[0] == 0:
            raise EvaluationError("diffusion_scores requires at least one seed")
        return activation_frequencies(
            self.probabilities, seeds, num_runs=self.num_runs, seed=self._seed
        )
