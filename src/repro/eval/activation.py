"""Activation-prediction protocol (Section V-B1, following Goyal et al.).

For every test episode we replay the adoption records chronologically.
A user becomes a *candidate* once at least one of their in-neighbours
(friends they watch) has activated.  Candidates split into:

* **positives** — users who later adopt; their influencer set ``S_v``
  is the in-neighbours active *strictly before their own adoption*
  (users who adopt with zero previously-active friends are
  unpredictable from influence and are not candidates, matching the
  protocol's "activated by their neighbours" ground truth);
* **negatives** — users who never adopt but have at least one active
  in-neighbour by the end of the episode; their ``S_v`` is every
  activated in-neighbour.

Each method scores candidates from ``(v, S_v)`` — Eq. 7 for latent
models, Eq. 8 for IC models — and the ranking is scored with
AUC / MAP / P@N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.prediction import InfluencePredictor
from repro.data.actionlog import ActionLog, DiffusionEpisode
from repro.data.graph import SocialGraph
from repro.errors import EvaluationError
from repro.eval.metrics import (
    DEFAULT_PRECISION_CUTOFFS,
    EvaluationResult,
    RankingEvaluator,
)


@dataclass(frozen=True)
class ActivationCandidate:
    """One ``(v, S_v)`` test instance.

    ``active_friends`` is ordered by the friends' activation times
    (earliest first) so the ``Latest`` aggregator is well defined.
    """

    user: int
    active_friends: tuple[int, ...]
    label: int
    item: int


def episode_candidates(
    graph: SocialGraph, episode: DiffusionEpisode
) -> list[ActivationCandidate]:
    """Extract all activation-prediction candidates of one episode."""
    candidates: list[ActivationCandidate] = []
    activation_order: dict[int, int] = {}

    # Positives: replay chronologically.
    for position, user in enumerate(episode.users):
        user = int(user)
        active_friends = [
            (activation_order[int(friend)], int(friend))
            for friend in graph.in_neighbors(user)
            if int(friend) in activation_order
        ]
        if active_friends:
            active_friends.sort()
            candidates.append(
                ActivationCandidate(
                    user=user,
                    active_friends=tuple(f for _, f in active_friends),
                    label=1,
                    item=episode.item,
                )
            )
        activation_order[user] = position

    # Negatives: non-adopters watched by at least one adopter.
    adopters = episode.user_set()
    seen_negatives: set[int] = set()
    for adopter in adopters:
        for follower in graph.out_neighbors(adopter):
            follower = int(follower)
            if follower in adopters or follower in seen_negatives:
                continue
            seen_negatives.add(follower)
            active_friends = sorted(
                (activation_order[int(friend)], int(friend))
                for friend in graph.in_neighbors(follower)
                if int(friend) in activation_order
            )
            candidates.append(
                ActivationCandidate(
                    user=follower,
                    active_friends=tuple(f for _, f in active_friends),
                    label=0,
                    item=episode.item,
                )
            )
    return candidates


def evaluate_activation(
    predictor: InfluencePredictor,
    graph: SocialGraph,
    test_log: ActionLog,
    precision_cutoffs: Sequence[int] = DEFAULT_PRECISION_CUTOFFS,
) -> EvaluationResult:
    """Run the full activation-prediction task for one method.

    Each test episode is one MAP query; AUC and P@N pool all candidate
    instances across episodes (see :class:`RankingEvaluator`).
    """
    if len(test_log) == 0:
        raise EvaluationError("test log contains no episodes")
    evaluator = RankingEvaluator(precision_cutoffs=precision_cutoffs)
    for episode in test_log:
        candidates = episode_candidates(graph, episode)
        if not candidates:
            continue
        scores = np.asarray(
            [
                predictor.activation_score(c.user, c.active_friends)
                for c in candidates
            ],
            dtype=np.float64,
        )
        labels = np.asarray([c.label for c in candidates], dtype=np.int64)
        evaluator.add_query(scores, labels)
    if evaluator.num_queries == 0:
        raise EvaluationError(
            "no test episode produced activation candidates; the test "
            "split may contain only single-adopter episodes"
        )
    return evaluator.result()
