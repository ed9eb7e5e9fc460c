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
The corpus is one :class:`ContextCorpus` of flat arrays from generation
to the SGD kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.propagation import PropagationNetwork, cached_propagation_networks
from repro.data.actionlog import ActionLog
from repro.data.graph import SocialGraph
from repro.errors import TrainingError
from repro.obs.catalog import (
    CONTEXTS_EPISODES,
    CONTEXTS_LENGTH,
    CONTEXTS_TUPLES,
    CONTEXTS_WALK_DEAD_ENDS,
    CONTEXTS_WALK_LENGTH,
    CONTEXTS_WALK_RESTARTS,
    CONTEXTS_WALK_STEPS,
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


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive runs of ``sizes``: ``[0, cumsum(sizes)]``."""
    indptr = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class ContextCorpus:
    """The corpus ``P`` of Algorithm 2 as flat arrays, one row per context.

    Context ``i`` is the tuple ``(centres[i], C_u^i)``, whose members are
    ``members[indptr[i]:indptr[i + 1]]``: first the ``local_len[i]``
    users of the local random-walk slice, then the global co-adopter
    samples — the paper's ``C_u^i = C_1 + C_2`` in generation order.
    Members are int32, 4 bytes each; the per-context arrays add 16
    bytes a context (``indptr`` is int64 so offsets never overflow).
    Training permutes context rows and gathers their members
    (:meth:`__getitem__`); no per-context Python object ever exists.
    """

    centres: np.ndarray
    indptr: np.ndarray
    members: np.ndarray
    local_len: np.ndarray

    @classmethod
    def from_contexts(
        cls, contexts: Iterable[tuple[int, Sequence[int], Sequence[int]]]
    ) -> "ContextCorpus":
        """Build a corpus from ``(centre, local, global)`` triples."""
        rows = [
            (centre, (*local, *global_), len(local))
            for centre, local, global_ in contexts
        ]
        return cls(
            np.array([centre for centre, _, _ in rows], dtype=np.int32),
            _offsets(np.array([len(users) for _, users, _ in rows], dtype=np.int64)),
            np.array([v for _, users, _ in rows for v in users], dtype=np.int32),
            np.array([local_len for _, _, local_len in rows], dtype=np.int32),
        )

    @classmethod
    def concatenate(cls, parts: Sequence["ContextCorpus"]) -> "ContextCorpus":
        """The corpora of ``parts`` back to back, in order."""
        if not parts:
            return cls.from_contexts(())
        return cls(
            np.concatenate([part.centres for part in parts]),
            _offsets(np.concatenate([part.sizes for part in parts])),
            np.concatenate([part.members for part in parts]),
            np.concatenate([part.local_len for part in parts]),
        )

    def __len__(self) -> int:
        return int(self.centres.shape[0])

    @property
    def sizes(self) -> np.ndarray:
        """Members per context, ``|C_u^i|``."""
        return np.diff(self.indptr)

    def __getitem__(self, rows: slice | np.ndarray) -> "ContextCorpus":
        """The contexts at ``rows`` (a slice or index array), in that order."""
        if isinstance(rows, slice):
            rows = np.arange(len(self))[rows]
        starts = self.indptr[rows]
        sizes = self.indptr[rows + 1] - starts
        indptr = _offsets(sizes)
        # Member k of gathered context j sits at starts[j] + k.
        index = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], sizes)
        return ContextCorpus(
            self.centres[rows], indptr, self.members[index], self.local_len[rows]
        )


def batched_random_walk_with_restart(
    network: PropagationNetwork,
    starts: np.ndarray,
    budget: int,
    restart_prob: float,
    rng: RandomState,
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
        network, start_compact, budget, restart_prob, rng
    )
    nodes = network.nodes
    return [nodes[visited[w, : filled[w]]] for w in range(num_walkers)]


def _batched_walk_raw(
    network: PropagationNetwork,
    start_compact: np.ndarray,
    budget: int,
    restart_prob: float,
    rng: RandomState,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep walk core over compact positions.

    Returns ``(visited, filled)``: a ``(num_walkers, budget)`` matrix of
    visited compact positions (rows valid up to ``filled[w]``, zero
    elsewhere) and the per-walker fill count.

    Inside a ``recording`` scope, restart and dead-end counts are
    accumulated per frontier step and flushed once at the end; outside
    one the loop does no telemetry arithmetic at all (the zero-overhead
    contract).
    """
    num_walkers = int(start_compact.shape[0])
    indptr, indices = network.successor_csr()
    degrees = np.diff(indptr)
    track = active_metrics().enabled
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
        CONTEXTS_WALK_RESTARTS.inc(restarts)
        CONTEXTS_WALK_DEAD_ENDS.inc(dead_ends)
        CONTEXTS_WALK_STEPS.inc(steps)
    return visited, filled


_EMPTY_WALK = np.empty(0, dtype=np.int64)


def generate_episode_contexts_batched(
    network: PropagationNetwork,
    config: ContextConfig,
    rng: RandomState,
) -> ContextCorpus:
    """One ``(u, C_u^i)`` context per adopter of the episode (``P_{D_i}``).

    All of the episode's local walks advance together through
    :func:`_batched_walk_raw`, and the global co-adopter samples for
    every adopter are drawn in one call.  The global draw uses the
    shifted-index trick — sample positions in ``[0, |V_i| - 1)`` and
    skip past each user's own slot — which is uniform over the other
    adopters, with replacement; a sole adopter gets no global slice.
    Contexts that come out completely empty (isolated single-adopter
    episodes) are dropped — they contribute nothing to the objective.
    Contexts follow the order of ``network.nodes``.
    """
    users = network.nodes
    num_users = int(users.shape[0])
    # The compact position of ``nodes[k]`` is ``k`` by construction, so
    # the whole adopter set seeds the walk as a plain arange.
    if config.local_budget > 0 and num_users:
        visited, filled = _batched_walk_raw(
            network,
            np.arange(num_users, dtype=np.int64),
            config.local_budget,
            config.restart_prob,
            rng,
        )
    else:
        visited = np.zeros((num_users, 0), dtype=np.int64)
        filled = np.zeros(num_users, dtype=np.int64)
    global_budget = config.global_budget if num_users > 1 else 0
    if global_budget > 0:
        draws = rng.integers(num_users - 1, size=(num_users, global_budget))
        draws += draws >= np.arange(num_users)[:, None]
    else:
        draws = np.zeros((num_users, 0), dtype=np.int64)
    # One row of compact positions per adopter: the walk's first
    # ``filled`` columns, then every global draw; row-major masking
    # lays the kept members out context by context.
    block = np.concatenate([visited, draws], axis=1)
    valid = np.concatenate(
        [
            np.arange(visited.shape[1]) < filled[:, None],
            np.ones(draws.shape, dtype=bool),
        ],
        axis=1,
    )
    sizes = filled + draws.shape[1]
    keep = sizes > 0
    return ContextCorpus(
        users[keep].astype(np.int32),
        _offsets(sizes[keep]),
        users[block[valid]].astype(np.int32),
        filled[keep].astype(np.int32),
    )


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

    Each :meth:`generate` call records walk/context statistics
    (restart counts, walk-length and context-length histograms,
    episode cache hits) into the active ``recording`` scope, if any.
    """

    def __init__(
        self,
        graph: SocialGraph,
        config: ContextConfig | None = None,
        seed: SeedLike = None,
    ):
        self._graph = graph
        self._config = config if config is not None else ContextConfig()
        self._rng = ensure_rng(seed)

    @property
    def config(self) -> ContextConfig:
        """The Algorithm 1 hyper-parameters in use."""
        return self._config

    def generate(self, log: ActionLog) -> ContextCorpus:
        """Materialise the corpus ``P``, episode by episode in log order."""
        active = log.active_users()
        if active.shape[0] and int(active[-1]) >= self._graph.num_nodes:
            raise TrainingError(
                f"action log references user {int(active[-1])} but the "
                f"graph only has {self._graph.num_nodes} nodes (user IDs "
                f"must be < num_nodes)"
            )
        enabled = active_metrics().enabled
        networks = cached_propagation_networks(self._graph, log)
        parts = []
        for episode in log:
            part = generate_episode_contexts_batched(
                networks[episode.item], self._config, self._rng
            )
            if enabled:
                _observe_episode_contexts(part)
            parts.append(part)
        return ContextCorpus.concatenate(parts)


def _observe_episode_contexts(contexts: ContextCorpus) -> None:
    """Record one episode's context statistics (recording runs only)."""
    CONTEXTS_EPISODES.inc()
    CONTEXTS_TUPLES.inc(len(contexts))
    if not len(contexts):
        return
    CONTEXTS_WALK_LENGTH.observe_many(contexts.local_len)
    CONTEXTS_LENGTH.observe_many(contexts.sizes)
