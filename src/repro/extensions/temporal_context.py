"""Time-aware context generation — the paper's second future-work direction.

Section VI: *"the proposed Inf2vec is not limited to using random walks
to generate context.  We can investigate other approaches for context
generation to incorporate more factors related to social influence."*

This extension swaps Algorithm 1's two samplers for time-aware ones,
keeping the ``(u, C_u^i)`` output format so the core trainer is reused
unchanged:

* **Local context** — instead of a uniform random walk over the
  propagation DAG, successors are sampled with probability
  proportional to ``exp(-(t_v - t_u) / decay)``: influence that fired
  quickly is stronger evidence than influence after a long delay
  (the intuition behind continuous-time IC models such as NetRate).
* **Global context** — co-adopters are sampled weighted by temporal
  proximity of their adoption to ``u``'s, so "interest twins" are
  users who reacted to the item in the same phase of its lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.context import ContextConfig, ContextCorpus
from repro.core.propagation import PropagationNetwork
from repro.data.actionlog import ActionLog, DiffusionEpisode
from repro.data.graph import SocialGraph
from repro.errors import TrainingError
from repro.utils.rng import RandomState, SeedLike, ensure_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TemporalContextConfig:
    """Time-aware Algorithm 1 parameters.

    Attributes
    ----------
    base:
        The underlying length/alpha/restart budget split.
    decay:
        Time constant of the exponential recency weighting; measured in
        the action log's time units.
    """

    base: ContextConfig = ContextConfig()
    decay: float = 5.0

    def __post_init__(self) -> None:
        check_positive("decay", self.decay)


def _recency_weights(
    deltas: np.ndarray, decay: float
) -> np.ndarray:
    """Exponential recency weights, normalised to a distribution."""
    weights = np.exp(-np.abs(deltas) / decay)
    total = weights.sum()
    if total <= 0:
        return np.full(deltas.shape[0], 1.0 / deltas.shape[0])
    return weights / total


def temporal_walk(
    network: PropagationNetwork,
    episode: DiffusionEpisode,
    start: int,
    budget: int,
    restart_prob: float,
    decay: float,
    rng: RandomState,
) -> list[int]:
    """Random walk with restart whose steps prefer fast propagations."""
    if budget <= 0 or network.out_degree(start) == 0:
        return []
    visited: list[int] = []
    current = int(start)
    while len(visited) < budget:
        if current != start and rng.random() < restart_prob:
            current = int(start)
            continue
        successors = network.successors(current)
        if successors.shape[0] == 0:
            current = int(start)
            continue
        deltas = np.asarray(
            [episode.time_of(int(v)) - episode.time_of(current) for v in successors]
        )
        probs = _recency_weights(deltas, decay)
        current = int(successors[rng.choice(successors.shape[0], p=probs)])
        visited.append(current)
    return visited


def temporal_global_sample(
    network: PropagationNetwork,
    episode: DiffusionEpisode,
    user: int,
    budget: int,
    decay: float,
    rng: RandomState,
) -> list[int]:
    """Co-adopter sample weighted by adoption-time proximity to ``user``."""
    if budget <= 0:
        return []
    candidates = network.nodes[network.nodes != int(user)]
    if candidates.shape[0] == 0:
        return []
    own_time = episode.time_of(int(user))
    deltas = np.asarray(
        [episode.time_of(int(v)) - own_time for v in candidates]
    )
    probs = _recency_weights(deltas, decay)
    picks = rng.choice(candidates.shape[0], size=budget, p=probs)
    return [int(candidates[p]) for p in picks]


class TemporalContextGenerator:
    """Drop-in replacement for :class:`repro.core.context.ContextGenerator`.

    Produces a :class:`~repro.core.context.ContextCorpus` whose local
    and global constituents are sampled with exponential recency
    weighting; feed the output straight into
    :meth:`repro.core.inf2vec.Inf2vecModel.fit_contexts`.
    """

    def __init__(
        self,
        graph: SocialGraph,
        config: TemporalContextConfig | None = None,
        seed: SeedLike = None,
    ):
        self._graph = graph
        self._config = config if config is not None else TemporalContextConfig()
        self._rng = ensure_rng(seed)

    @property
    def config(self) -> TemporalContextConfig:
        """The time-aware Algorithm 1 parameters in use."""
        return self._config

    def generate(self, log: ActionLog) -> ContextCorpus:
        """Materialise the time-aware corpus, episode by episode."""
        if log.num_users > self._graph.num_nodes:
            raise TrainingError(
                f"action log has {log.num_users} users but the graph only "
                f"has {self._graph.num_nodes} nodes"
            )
        base = self._config.base
        decay = self._config.decay
        contexts = []
        for episode in log:
            network = PropagationNetwork.from_episode(self._graph, episode)
            for user in network.nodes:
                user = int(user)
                local = temporal_walk(
                    network,
                    episode,
                    user,
                    base.local_budget,
                    base.restart_prob,
                    decay,
                    self._rng,
                )
                global_ = temporal_global_sample(
                    network, episode, user, base.global_budget, decay, self._rng
                )
                if local or global_:
                    contexts.append((user, local, global_))
        return ContextCorpus.from_contexts(contexts)
