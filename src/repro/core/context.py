"""Influence-context generation (Algorithm 1 of the paper).

For a user ``u`` inside an episode's propagation network the *influence
context* ``C_u^i`` blends two constituents:

* **Local influence context** — ``L * alpha`` users produced by a
  random walk with restart on the propagation DAG, starting at ``u``.
  At every step the walk returns to ``u`` with probability
  ``restart_prob`` (0.5 in the paper, following node2vec's default) and
  otherwise moves to a uniformly chosen successor of the current node.
  Visited users (excluding ``u`` itself) are recorded until the length
  budget is exhausted; a walk stuck at a node with no successors
  restarts from ``u``.  If ``u`` cannot reach anyone (no successors at
  all), the local component is empty — there is nobody it influenced.

* **Global user-similarity context** — ``L * (1 - alpha)`` users
  sampled uniformly *with replacement* from all adopters ``V_i`` of the
  item (excluding ``u``), capturing "users who performed the same
  action share interests".

The component weight ``alpha`` is the paper's α (default 0.1 tuned on
the validation set; α = 1.0 yields the Inf2vec-L ablation of Table IV).

Contexts are generated a whole episode at a time: every adopter's walk
advances in lockstep (:func:`batched_random_walk_with_restart`) and all
global slices come from one draw (:func:`generate_episode_contexts_batched`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.propagation import PropagationNetwork, cached_propagation_networks
from repro.data.actionlog import ActionLog
from repro.data.graph import SocialGraph
from repro.errors import TrainingError
from repro.obs.metrics import (
    CONTEXT_LENGTH_BUCKETS,
    MetricsRegistry,
    WALK_LENGTH_BUCKETS,
)
from repro.obs.run import active_metrics
from repro.utils.rng import RandomState, SeedLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability

#: Restart probability of the random walk, the paper's fixed choice.
DEFAULT_RESTART_PROB = 0.5


@dataclass(frozen=True)
class ContextConfig:
    """Hyper-parameters of Algorithm 1.

    Attributes
    ----------
    length:
        Length threshold ``L`` — total context size budget (paper
        default 50).
    alpha:
        Component weight α in [0, 1]: fraction of the budget spent on
        the local random-walk context (paper default 0.1).
    restart_prob:
        Restart probability of the walk (paper uses 0.5).
    """

    length: int = 50
    alpha: float = 0.1
    restart_prob: float = DEFAULT_RESTART_PROB

    def __post_init__(self) -> None:
        check_positive_int("length", self.length)
        check_probability("alpha", self.alpha)
        check_probability("restart_prob", self.restart_prob)

    @property
    def local_budget(self) -> int:
        """``L * alpha`` rounded to the nearest integer."""
        return int(round(self.length * self.alpha))

    @property
    def global_budget(self) -> int:
        """``L * (1 - alpha)``: the remainder of the budget."""
        return self.length - self.local_budget


@dataclass(frozen=True)
class InfluenceContext:
    """One ``(u, C_u^i)`` tuple produced by Algorithm 1.

    ``local`` and ``global_`` keep the two constituents separate so the
    trainer and the ablation analyses can distinguish them; ``users``
    concatenates them in generation order, which is the paper's
    ``C_u^i = C_1 + C_2``.
    """

    user: int
    item: int
    local: tuple[int, ...]
    global_: tuple[int, ...]

    @property
    def users(self) -> tuple[int, ...]:
        """The full context ``C_1 + C_2``."""
        return self.local + self.global_

    def __len__(self) -> int:
        return len(self.local) + len(self.global_)


def batched_random_walk_with_restart(
    network: PropagationNetwork,
    starts: np.ndarray,
    budget: int,
    restart_prob: float,
    rng: RandomState,
    metrics: MetricsRegistry | None = None,
) -> list[np.ndarray]:
    """Run one restarting walk per start node, all advanced in lockstep.

    Each walk collects ``budget`` visited users.  A step away from the
    start jumps back to it with probability ``restart_prob`` without
    recording; otherwise the walker moves to a uniform random successor
    of its node and records it.  Dead ends (no successors) force an
    unrecorded restart, the start node is never recorded, and a walker
    whose start has no successors returns empty.  Every step advances
    the whole active frontier with fancy indexing over the network's
    CSR arrays, consuming the RNG stream frontier by frontier.

    Returns one int64 array of visited users (original IDs, in visit
    order) per entry of ``starts``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    num_walkers = int(starts.shape[0])
    if budget <= 0 or num_walkers == 0:
        return [_EMPTY_WALK.copy() for _ in range(num_walkers)]
    start_compact = network.compact_indices(starts)
    visited, filled = _batched_walk_raw(
        network, start_compact, budget, restart_prob, rng, metrics=metrics
    )
    nodes = network.nodes
    return [nodes[visited[w, : filled[w]]] for w in range(num_walkers)]


def _batched_walk_raw(
    network: PropagationNetwork,
    start_compact: np.ndarray,
    budget: int,
    restart_prob: float,
    rng: RandomState,
    metrics: MetricsRegistry | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep walk core over compact positions.

    Returns ``(visited, filled)``: a ``(num_walkers, budget)`` matrix of
    visited compact positions (rows valid up to ``filled[w]``, zero
    elsewhere) and the per-walker fill count.

    When an enabled ``metrics`` registry is supplied, restart and
    dead-end counts are accumulated per frontier step and flushed once
    at the end; with the default ``None`` the loop does no telemetry
    arithmetic at all (the zero-overhead contract).
    """
    num_walkers = int(start_compact.shape[0])
    indptr, indices = network.successor_csr()
    degrees = np.diff(indptr)
    track = metrics is not None and metrics.enabled
    restarts = 0
    dead_ends = 0
    steps = 0

    visited = np.zeros((num_walkers, budget), dtype=np.int64)
    filled = np.zeros(num_walkers, dtype=np.int64)
    current = start_compact.copy()
    # Walkers whose start cannot reach anyone never produce output.
    active = np.nonzero(degrees[start_compact] > 0)[0]
    while active.size:
        cur = current[active]
        start = start_compact[active]
        away = cur != start
        restart = np.zeros(active.size, dtype=bool)
        num_away = int(away.sum())
        if num_away:
            restart[away] = rng.random(num_away) < restart_prob
        cur = np.where(restart, start, cur)
        degree = degrees[cur]
        # Dead ends among non-restarted walkers also jump home without
        # recording; everyone else takes a uniform successor step.
        moving = np.nonzero(~restart & (degree > 0))[0]
        cur = np.where(~restart & (degree == 0), start, cur)
        if moving.size:
            choice = (rng.random(moving.size) * degree[moving]).astype(np.int64)
            stepped = indices[indptr[cur[moving]] + choice]
            cur[moving] = stepped
            rows = active[moving]
            visited[rows, filled[rows]] = stepped
            filled[rows] += 1
        if track:
            restarts += int(restart.sum())
            dead_ends += int((~restart & (degree == 0)).sum())
            steps += int(moving.size)
        current[active] = cur
        active = active[filled[active] < budget]
    if track:
        metrics.counter(
            "contexts.walk.restarts", "probabilistic jumps back to the start"
        ).inc(restarts)
        metrics.counter(
            "contexts.walk.dead_ends", "forced restarts at successor-less nodes"
        ).inc(dead_ends)
        metrics.counter(
            "contexts.walk.steps", "recorded walk steps"
        ).inc(steps)
    return visited, filled


_EMPTY_WALK = np.empty(0, dtype=np.int64)


def generate_episode_contexts_batched(
    network: PropagationNetwork,
    config: ContextConfig,
    rng: RandomState,
    metrics: MetricsRegistry | None = None,
) -> list[InfluenceContext]:
    """One ``(u, C_u^i)`` tuple per adopter of the episode (``P_{D_i}``).

    All of the episode's local walks advance together through
    :func:`batched_random_walk_with_restart`, and the global
    co-adopter samples for every adopter are drawn in one call.  The
    global draw uses the shifted-index trick — sample positions in
    ``[0, |V_i| - 1)`` and skip past each user's own slot — which is
    uniform over the other adopters, with replacement; a sole adopter
    gets no global slice.  Contexts that come out completely empty
    (isolated single-adopter episodes) are dropped — they contribute
    nothing to the objective.
    """
    users = network.nodes
    num_users = int(users.shape[0])
    if num_users == 0:
        return []
    # The compact position of ``nodes[k]`` is ``k`` by construction, so
    # the whole adopter set seeds the walk as a plain arange.
    local_budget = config.local_budget
    if local_budget > 0:
        visited, filled = _batched_walk_raw(
            network,
            np.arange(num_users, dtype=np.int64),
            local_budget,
            config.restart_prob,
            rng,
            metrics=metrics,
        )
        # One matrix-wide gather + tolist instead of a tolist per walk.
        # Most walks fill the whole budget, so tuple whole rows in one
        # C-level pass and only truncate the short ones after the fact.
        local_tuples = list(map(tuple, users[visited].tolist()))
        short = np.nonzero(filled < local_budget)[0]
        if short.shape[0]:
            fills = filled.tolist()
            for position in short.tolist():
                local_tuples[position] = local_tuples[position][
                    : fills[position]
                ]
    else:
        local_tuples = [()] * num_users
    global_budget = config.global_budget
    if global_budget > 0 and num_users > 1:
        draws = rng.integers(num_users - 1, size=(num_users, global_budget))
        draws += draws >= np.arange(num_users)[:, None]
        global_tuples = list(map(tuple, users[draws].tolist()))
    else:
        global_tuples = [()] * num_users
    item = network.item
    contexts = []
    for user, local, global_ in zip(users.tolist(), local_tuples, global_tuples):
        if local or global_:
            contexts.append(
                InfluenceContext(
                    user=user, item=item, local=local, global_=global_
                )
            )
    return contexts


class ContextGenerator:
    """Generates the full training corpus ``P`` from a graph + action log.

    This is the first half of Algorithm 2 (lines 3–8): extract each
    episode's propagation network (cached per log), then run Algorithm
    1 for every adopter with batched walks and one global draw per
    episode.

    Parameters
    ----------
    graph:
        The social network.
    config:
        Algorithm 1 hyper-parameters.
    seed:
        RNG seed/generator; drawing contexts twice from generators
        constructed with the same seed yields identical corpora.
    metrics:
        Telemetry sink for walk/context statistics (restart counts,
        walk-length and context-length histograms, episode cache
        hits).  ``None`` (the default) resolves the ambient
        :func:`repro.obs.run.active_metrics` registry at generation
        time — the null registry unless a ``recording`` scope is
        active, in which case generation records at no extra cost to
        un-instrumented runs.
    """

    def __init__(
        self,
        graph: SocialGraph,
        config: ContextConfig | None = None,
        seed: SeedLike = None,
        metrics: MetricsRegistry | None = None,
    ):
        self._graph = graph
        self._config = config if config is not None else ContextConfig()
        self._rng = ensure_rng(seed)
        self._metrics = metrics

    @property
    def config(self) -> ContextConfig:
        """The Algorithm 1 hyper-parameters in use."""
        return self._config

    def iter_contexts(self, log: ActionLog) -> Iterator[InfluenceContext]:
        """Stream contexts episode by episode (lines 3–8 of Algorithm 2)."""
        active = log.active_users()
        if active.shape[0] and int(active[-1]) >= self._graph.num_nodes:
            raise TrainingError(
                f"action log references user {int(active[-1])} but the "
                f"graph only has {self._graph.num_nodes} nodes (user IDs "
                f"must be < num_nodes)"
            )
        metrics = self._metrics if self._metrics is not None else active_metrics()
        networks = cached_propagation_networks(self._graph, log, metrics=metrics)
        for episode in log:
            contexts = generate_episode_contexts_batched(
                networks[episode.item], self._config, self._rng,
                metrics=metrics,
            )
            if metrics.enabled:
                _observe_episode_contexts(metrics, contexts)
            yield from contexts

    def generate(self, log: ActionLog) -> list[InfluenceContext]:
        """Materialise the whole corpus ``P`` as a list."""
        return list(self.iter_contexts(log))

    def iter_context_chunks(
        self, log: ActionLog, episodes_per_chunk: int
    ) -> Iterator[list[InfluenceContext]]:
        """Generate the corpus in bounded chunks of episodes.

        The out-of-core path: each yielded chunk covers
        ``episodes_per_chunk`` episodes and materialises only their
        contexts and their propagation-network cache, so peak memory is O(chunk) however large the log grows.
        Chunking does not change what is generated — episodes are
        processed in log order either way, so the concatenation of all
        chunks equals :meth:`generate` on the same RNG stream.
        """
        episodes_per_chunk = check_positive_int(
            "episodes_per_chunk", episodes_per_chunk
        )
        episodes = log.episodes
        for start in range(0, len(episodes), episodes_per_chunk):
            chunk_log = ActionLog(
                episodes[start : start + episodes_per_chunk],
                num_users=log.num_users,
            )
            yield self.generate(chunk_log)


def _observe_episode_contexts(
    metrics: MetricsRegistry, contexts: Sequence[InfluenceContext]
) -> None:
    """Record one episode's context statistics (enabled registries only)."""
    metrics.counter("contexts.episodes", "episodes processed").inc()
    metrics.counter("contexts.tuples", "(u, C_u^i) tuples generated").inc(
        len(contexts)
    )
    if not contexts:
        return
    metrics.histogram(
        "contexts.walk_length",
        WALK_LENGTH_BUCKETS,
        "local random-walk context sizes",
    ).observe_many([len(context.local) for context in contexts])
    metrics.histogram(
        "contexts.length",
        CONTEXT_LENGTH_BUCKETS,
        "full context sizes (local + global)",
    ).observe_many([len(context) for context in contexts])


def corpus_statistics(contexts: Sequence[InfluenceContext]) -> dict[str, float]:
    """Summary statistics of a generated corpus (for logging/tests)."""
    if not contexts:
        return {
            "num_tuples": 0,
            "total_context_users": 0,
            "mean_context_size": 0.0,
            "local_fraction": 0.0,
        }
    total = sum(len(c) for c in contexts)
    local = sum(len(c.local) for c in contexts)
    return {
        "num_tuples": len(contexts),
        "total_context_users": total,
        "mean_context_size": total / len(contexts),
        "local_fraction": local / total if total else 0.0,
    }
