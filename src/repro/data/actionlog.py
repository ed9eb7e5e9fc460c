"""Action logs and diffusion episodes.

The paper's action log ``A`` is a set of tuples ``(u, i, t)`` — user
``u`` performed action ``i`` (voted on story ``i``, favourited photo
``i``) at time ``t``.  Grouping by item yields one *diffusion episode*
``D_i`` per item: the chronologically ordered list of adopters.

The classes here enforce the invariants the algorithms rely on:

* episode adoptions are sorted by timestamp (ties broken by insertion
  order, matching how a crawl log would be replayed),
* a user adopts an item at most once per episode,
* all users referenced by a log fit inside a declared universe size so
  episodes can be matched against a :class:`repro.data.graph.SocialGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ActionLogError
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class Adoption:
    """A single ``(user, time)`` record inside a diffusion episode."""

    user: int
    time: float


class DiffusionEpisode:
    """Chronologically ordered adoptions of one item.

    Parameters
    ----------
    item:
        Item identifier (dense int in generated data; arbitrary int in
        loaded data).
    adoptions:
        Iterable of ``(user, time)`` pairs.  They are sorted by time on
        construction (stable, so equal-time records keep input order).

    Raises
    ------
    ActionLogError
        If a user appears twice or any field is malformed.

    Examples
    --------
    >>> ep = DiffusionEpisode(7, [(3, 2.0), (1, 1.0), (2, 5.0)])
    >>> ep.users.tolist()
    [1, 3, 2]
    >>> ep.position(3)
    1
    """

    __slots__ = ("_item", "_users", "_times", "_positions")

    def __init__(self, item: int, adoptions: Iterable[tuple[int, float]]):
        self._item = int(item)
        records = [(int(u), float(t)) for u, t in adoptions]
        for user, time in records:
            if user < 0:
                raise ActionLogError(f"user IDs must be >= 0, got {user}")
            if not np.isfinite(time):
                raise ActionLogError(f"timestamps must be finite, got {time!r}")
        records.sort(key=lambda record: record[1])
        users = [u for u, _ in records]
        seen: set[int] = set()
        for user in users:
            if user in seen:
                raise ActionLogError(
                    f"user {user} adopts item {item} more than once"
                )
            seen.add(user)
        self._users = np.asarray(users, dtype=np.int64)
        self._times = np.asarray([t for _, t in records], dtype=np.float64)
        self._positions = {user: idx for idx, user in enumerate(users)}

    @property
    def item(self) -> int:
        """Item identifier this episode diffuses."""
        return self._item

    @property
    def users(self) -> np.ndarray:
        """Adopting users in chronological order (int64 array)."""
        return self._users

    @property
    def times(self) -> np.ndarray:
        """Adoption timestamps, non-decreasing (float64 array)."""
        return self._times

    def __len__(self) -> int:
        return int(self._users.shape[0])

    def __iter__(self) -> Iterator[Adoption]:
        for user, time in zip(self._users, self._times):
            yield Adoption(int(user), float(time))

    def __contains__(self, user: int) -> bool:
        return int(user) in self._positions

    def position(self, user: int) -> int:
        """Chronological rank of ``user`` in this episode (0-based)."""
        try:
            return self._positions[int(user)]
        except KeyError:
            raise ActionLogError(
                f"user {user} did not adopt item {self._item}"
            ) from None

    def time_of(self, user: int) -> float:
        """Adoption timestamp of ``user``."""
        return float(self._times[self.position(user)])

    def user_set(self) -> frozenset[int]:
        """Adopters as a frozen set (order-free membership queries)."""
        return frozenset(self._positions)

    def prefix(self, count: int) -> np.ndarray:
        """The first ``count`` adopters in chronological order."""
        if count < 0:
            raise ActionLogError(f"prefix count must be >= 0, got {count}")
        return self._users[:count].copy()

    def __repr__(self) -> str:
        return f"DiffusionEpisode(item={self._item}, size={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffusionEpisode):
            return NotImplemented
        return (
            self._item == other._item
            and np.array_equal(self._users, other._users)
            and np.array_equal(self._times, other._times)
        )


class ActionLog:
    """A collection of diffusion episodes over a shared user universe.

    Parameters
    ----------
    episodes:
        The diffusion episodes.  Items must be distinct.
    num_users:
        Size of the user universe; every adopter must satisfy
        ``0 <= user < num_users``.  This ties the log to a
        :class:`~repro.data.graph.SocialGraph` of the same size.
    """

    def __init__(self, episodes: Iterable[DiffusionEpisode], num_users: int):
        self._episodes = list(episodes)
        self._num_users = int(num_users)
        if self._num_users < 0:
            raise ActionLogError(f"num_users must be >= 0, got {num_users}")
        items = [ep.item for ep in self._episodes]
        if len(set(items)) != len(items):
            raise ActionLogError("episode items must be distinct")
        for ep in self._episodes:
            if len(ep) and int(ep.users.max()) >= self._num_users:
                raise ActionLogError(
                    f"episode {ep.item} references user {int(ep.users.max())} "
                    f">= num_users={self._num_users}"
                )
        self._by_item = {ep.item: ep for ep in self._episodes}

    @classmethod
    def from_tuples(
        cls, records: Iterable[tuple[int, int, float]], num_users: int
    ) -> "ActionLog":
        """Build a log from raw ``(user, item, time)`` tuples."""
        grouped: dict[int, list[tuple[int, float]]] = {}
        for user, item, time in records:
            grouped.setdefault(int(item), []).append((int(user), float(time)))
        episodes = [
            DiffusionEpisode(item, adoptions)
            for item, adoptions in sorted(grouped.items())
        ]
        return cls(episodes, num_users)

    @property
    def num_users(self) -> int:
        """Size of the user universe."""
        return self._num_users

    @property
    def episodes(self) -> list[DiffusionEpisode]:
        """Episodes in construction order (shallow copy)."""
        return list(self._episodes)

    def __len__(self) -> int:
        return len(self._episodes)

    def __iter__(self) -> Iterator[DiffusionEpisode]:
        return iter(self._episodes)

    def __getitem__(self, item: int) -> DiffusionEpisode:
        try:
            return self._by_item[int(item)]
        except KeyError:
            raise ActionLogError(f"no episode for item {item}") from None

    def items(self) -> list[int]:
        """All item identifiers in construction order."""
        return [ep.item for ep in self._episodes]

    @property
    def num_actions(self) -> int:
        """Total number of ``(user, item, time)`` records."""
        return sum(len(ep) for ep in self._episodes)

    def to_tuples(self) -> list[tuple[int, int, float]]:
        """Flatten back to ``(user, item, time)`` tuples."""
        return [
            (int(adoption.user), ep.item, float(adoption.time))
            for ep in self._episodes
            for adoption in ep
        ]

    def restrict_items(self, items: Sequence[int]) -> "ActionLog":
        """A new log containing only the requested items, in given order."""
        return ActionLog([self[item] for item in items], self._num_users)

    def active_users(self) -> np.ndarray:
        """Sorted array of users appearing in at least one episode."""
        if not self._episodes:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([ep.users for ep in self._episodes]))

    def user_action_counts(self) -> np.ndarray:
        """Number of adoptions per user, shape ``(num_users,)``."""
        counts = np.zeros(self._num_users, dtype=np.int64)
        for ep in self._episodes:
            counts[ep.users] += 1
        return counts

    def split(
        self,
        fractions: Sequence[float] = (0.8, 0.1, 0.1),
        seed: SeedLike = None,
    ) -> tuple["ActionLog", ...]:
        """Randomly partition episodes into disjoint sub-logs.

        Follows the paper's protocol: "we randomly select 80% episodes
        as training set, 10% as tuning set, and 10% as test set"
        (Section V-A1).  Splitting is by *episode*, never by record.

        Parameters
        ----------
        fractions:
            Positive fractions summing to 1 (within 1e-9).
        seed:
            RNG seed/generator for the episode shuffle.

        Returns
        -------
        tuple of ActionLog
            One log per fraction, partitioning the episodes.
        """
        if not fractions:
            raise ActionLogError("fractions must be non-empty")
        if any(f <= 0 for f in fractions):
            raise ActionLogError(f"fractions must be positive, got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ActionLogError(f"fractions must sum to 1, got {sum(fractions)}")
        rng = ensure_rng(seed)
        order = rng.permutation(len(self._episodes))
        boundaries = np.floor(
            np.cumsum(np.asarray(fractions)) * len(self._episodes)
        ).astype(int)
        boundaries[-1] = len(self._episodes)  # absorb rounding into last split
        parts: list[ActionLog] = []
        start = 0
        for stop in boundaries:
            chosen = [self._episodes[i] for i in order[start:stop]]
            parts.append(ActionLog(chosen, self._num_users))
            start = stop
        return tuple(parts)

    def statistics(self) -> Mapping[str, int]:
        """Table-I style summary: users, items, actions."""
        return {
            "num_users": self._num_users,
            "num_items": len(self._episodes),
            "num_actions": self.num_actions,
        }

    def __repr__(self) -> str:
        return (
            f"ActionLog(num_users={self._num_users}, "
            f"num_items={len(self)}, num_actions={self.num_actions})"
        )
