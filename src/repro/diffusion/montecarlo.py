"""Monte-Carlo influence-spread estimation.

IC-based baselines answer the diffusion-prediction task (Table III) by
simulating the cascade from the seed set many times — the paper runs
5,000 simulations — and scoring each user by the fraction of runs in
which they activate.  The same machinery estimates the expected spread
``sigma(S)`` of a chosen seed set: it is the referee that scores the
seeds selected by :mod:`repro.apps.influence_max`.  Every estimate
draws its cascades from :func:`repro.diffusion.ic.simulate_ic`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.ic import simulate_ic
from repro.diffusion.probabilities import EdgeProbabilities
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

#: The paper's simulation count for diffusion prediction.
PAPER_NUM_RUNS = 5000


def _simulate_sizes(
    probabilities: EdgeProbabilities,
    seeds: Sequence[int],
    num_runs: int,
    seed: SeedLike,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """The one simulate loop behind all three public estimators.

    Draws ``num_runs`` cascades from a single RNG stream (so every
    estimator sees the same sequence of simulations for a given seed)
    and returns the per-run cascade sizes.  When ``counts`` is given,
    each cascade's activated nodes are additionally accumulated into it
    in place — the caller owns the buffer, so repeated estimates can
    reuse one allocation.
    """
    num_runs = check_positive_int("num_runs", num_runs)
    rng = ensure_rng(seed)
    sizes = np.empty(num_runs, dtype=np.float64)
    for i in range(num_runs):
        activated = simulate_ic(probabilities, seeds, rng)
        sizes[i] = activated.shape[0]
        if counts is not None:
            counts[activated] += 1
    return sizes


def activation_frequencies(
    probabilities: EdgeProbabilities,
    seeds: Sequence[int],
    num_runs: int = PAPER_NUM_RUNS,
    seed: SeedLike = None,
) -> np.ndarray:
    """Per-user activation probability estimated over ``num_runs`` cascades.

    Returns an array of shape ``(num_nodes,)`` whose entry ``v`` is the
    fraction of simulations in which ``v`` activated.  Seed users score
    1.0 by construction.
    """
    counts = np.zeros(probabilities.graph.num_nodes, dtype=np.int64)
    sizes = _simulate_sizes(probabilities, seeds, num_runs, seed, counts)
    return counts / sizes.shape[0]


def expected_spread(
    probabilities: EdgeProbabilities,
    seeds: Sequence[int],
    num_runs: int = PAPER_NUM_RUNS,
    seed: SeedLike = None,
) -> float:
    """Monte-Carlo estimate of the expected cascade size ``sigma(seeds)``."""
    return float(_simulate_sizes(probabilities, seeds, num_runs, seed).mean())


def spread_with_standard_error(
    probabilities: EdgeProbabilities,
    seeds: Sequence[int],
    num_runs: int = PAPER_NUM_RUNS,
    seed: SeedLike = None,
) -> tuple[float, float]:
    """Expected spread plus the standard error of the MC estimate."""
    sizes = _simulate_sizes(probabilities, seeds, num_runs, seed)
    mean = float(sizes.mean())
    if sizes.shape[0] == 1:
        return mean, 0.0
    return mean, float(sizes.std(ddof=1) / np.sqrt(sizes.shape[0]))
