"""Evaluation harness: metrics, task protocols, dataset statistics."""

from repro.eval.activation import episode_candidates, evaluate_activation
from repro.eval.diffusion import evaluate_diffusion, make_query
from repro.eval.metrics import (
    DEFAULT_PRECISION_CUTOFFS,
    EvaluationResult,
    RankingEvaluator,
    average_precision,
    precision_at_n,
    ranking_auc,
)
from repro.eval.protocol import (
    MultiRunResult,
    SignificanceTest,
    format_table,
    paired_significance,
    repeat_evaluation,
)
from repro.eval.stats import (
    PowerLawFit,
    active_friend_cdf,
    active_friend_counts,
    fit_power_law,
    power_law_r_squared,
    spontaneous_share,
)

__all__ = [
    "episode_candidates",
    "evaluate_activation",
    "evaluate_diffusion",
    "make_query",
    "DEFAULT_PRECISION_CUTOFFS",
    "EvaluationResult",
    "RankingEvaluator",
    "average_precision",
    "precision_at_n",
    "ranking_auc",
    "MultiRunResult",
    "SignificanceTest",
    "format_table",
    "paired_significance",
    "repeat_evaluation",
    "PowerLawFit",
    "active_friend_cdf",
    "active_friend_counts",
    "fit_power_law",
    "power_law_r_squared",
    "spontaneous_share",
]
