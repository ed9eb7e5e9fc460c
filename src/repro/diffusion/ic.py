"""Independent Cascade (IC) diffusion model.

In the IC model each newly activated node ``u`` gets exactly one chance
to activate each currently inactive out-neighbour ``v``, succeeding
independently with probability ``P_uv``.  The process unfolds in
discrete rounds from a seed set and stops when a round activates
nobody (Section II of the paper).  It always stops within ``num_nodes``
rounds, because every round that continues activates a new node.

:func:`simulate_ic` is the one forward simulator: the Monte-Carlo
estimators of :mod:`repro.diffusion.montecarlo` run it for the
diffusion prediction of the IC-based baselines (Table III) and to
referee the seeds of the influence-maximisation application.  The
exact live-edge oracle of the tests grades it.  Synthetic cascades
come from :func:`repro.data.synthetic.simulate_episode`, not from here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import GraphError
from repro.obs.catalog import (
    DIFFUSION_IC_ROUNDS,
    DIFFUSION_IC_SIMULATIONS,
    DIFFUSION_IC_SPREAD,
)
from repro.obs.run import active_metrics
from repro.utils.rng import SeedLike, ensure_rng


def simulate_ic(
    probabilities: EdgeProbabilities,
    seeds: Sequence[int],
    seed: SeedLike = None,
) -> np.ndarray:
    """Run one Independent-Cascade simulation to quiescence.

    Each round gathers the whole frontier's out-edges as numpy arrays
    and flips all their coins with one ``rng.random`` draw.

    Parameters
    ----------
    probabilities:
        Per-edge activation probabilities over the social graph.
    seeds:
        Initially active nodes ``A_0`` (duplicates collapsed, order of
        first occurrence preserved).
    seed:
        RNG seed/generator for the coin flips.

    Returns
    -------
    np.ndarray
        The activated node ids (int64): the seeds first, then each
        round's new nodes in ascending id.
    """
    graph = probabilities.graph
    rng = ensure_rng(seed)
    active = np.zeros(graph.num_nodes, dtype=bool)
    frontier: list[int] = []
    for s in seeds:
        s = int(s)
        if not 0 <= s < graph.num_nodes:
            raise GraphError(f"seed {s} out of range [0, {graph.num_nodes})")
        if not active[s]:
            active[s] = True
            frontier.append(s)

    activated: list[int] = list(frontier)
    frontier_array = np.asarray(frontier, dtype=np.int64)
    rounds = 0
    while frontier_array.size:
        rounds += 1
        target_chunks = []
        prob_chunks = []
        for u in frontier_array:
            targets, probs = probabilities.out_edges(int(u))
            if targets.shape[0]:
                target_chunks.append(targets)
                prob_chunks.append(probs)
        if not target_chunks:
            break
        all_targets = np.concatenate(target_chunks)
        all_probs = np.concatenate(prob_chunks)
        hits = rng.random(all_targets.shape[0]) < all_probs
        candidates = all_targets[hits]
        # Already-active nodes are immune; a node hit twice joins once.
        fresh = np.unique(candidates[~active[candidates]])
        if fresh.size == 0:
            break
        active[fresh] = True
        activated.extend(fresh.tolist())
        frontier_array = fresh

    if active_metrics().enabled:
        # Guarded: the Monte-Carlo loops run thousands of simulations.
        DIFFUSION_IC_SIMULATIONS.inc()
        DIFFUSION_IC_ROUNDS.observe(rounds)
        DIFFUSION_IC_SPREAD.observe(len(activated))
    return np.asarray(activated, dtype=np.int64)


def activation_probability(
    probabilities: Sequence[float],
) -> float:
    """Eq. 8: ``Pr(v) = 1 - prod_u (1 - P_uv)`` over active friends ``u``.

    Accepts the pairwise probabilities from each active friend and
    combines them under the IC independence assumption.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.size == 0:
        return 0.0
    if np.any(probs < 0) or np.any(probs > 1):
        raise GraphError("activation probabilities must lie in [0, 1]")
    return float(1.0 - np.prod(1.0 - probs))
