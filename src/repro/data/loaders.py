"""On-disk dataset formats.

Parsers and writers for the two text formats that are the library's
one file route into training (``train --dataset EDGES ACTIONS``); a
real Digg or Flickr crawl drops in once its columns are reordered
(README shows the Digg-2009 mapping):

* **edge lists** — one ``source<sep>target`` pair per line, influence
  flowing source → target (arbitrary string user names allowed; a
  :class:`UserIndex` maps them to dense IDs),
* **action logs** — one ``user<sep>item<sep>timestamp`` triple per
  line.

Lines starting with ``#`` and blank lines are skipped.  Both formats
round-trip through the matching ``write_*`` functions.  A file that
cannot be read as either format raises :class:`~repro.errors.GraphError`
(edge list) or :class:`~repro.errors.ActionLogError` (action log),
naming ``path:line``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator, Union

from repro.ckpt.atomic import atomic_output
from repro.data.actionlog import ActionLog
from repro.data.graph import SocialGraph
from repro.errors import ActionLogError, GraphError, ReproError

PathLike = Union[str, Path]


class UserIndex:
    """Bidirectional mapping between external user names and dense IDs."""

    def __init__(self) -> None:
        self._to_id: dict[str, int] = {}
        self._to_name: list[str] = []

    def intern(self, name: str) -> int:
        """Return the dense ID for ``name``, assigning one if new."""
        existing = self._to_id.get(name)
        if existing is not None:
            return existing
        new_id = len(self._to_name)
        self._to_id[name] = new_id
        self._to_name.append(name)
        return new_id

    def id_of(self, name: str) -> int:
        """Dense ID of a known user name."""
        try:
            return self._to_id[name]
        except KeyError:
            raise GraphError(f"unknown user name {name!r}") from None

    def name_of(self, user_id: int) -> str:
        """External name of a dense ID."""
        if not 0 <= user_id < len(self._to_name):
            raise GraphError(f"user id {user_id} out of range")
        return self._to_name[user_id]

    def __len__(self) -> int:
        return len(self._to_name)

    def __contains__(self, name: str) -> bool:
        return name in self._to_id


def _data_lines(
    path: PathLike, error: type[ReproError]
) -> Iterator[tuple[int, list[str]]]:
    """Number and split the data lines; a non-UTF-8 line raises ``error``."""
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise error(
                    f"{path}:{line_number}: not UTF-8 text ({exc.reason})"
                ) from None
            if not line or line.startswith("#"):
                continue
            yield line_number, line.replace(",", " ").split()


def load_edge_list(
    path: PathLike,
    index: UserIndex | None = None,
    num_users: int | None = None,
) -> tuple[SocialGraph, UserIndex]:
    """Parse a ``source target`` edge-list file into a graph.

    Parameters
    ----------
    path:
        The edge-list file (whitespace- or comma-separated).
    index:
        Optional pre-populated :class:`UserIndex` shared with an action
        log so both files agree on IDs.
    num_users:
        Optional universe size; defaults to the number of distinct
        names seen (plus whatever ``index`` already holds).
    """
    index = index if index is not None else UserIndex()
    edges: list[tuple[int, int]] = []
    for line_number, fields in _data_lines(path, GraphError):
        if len(fields) != 2:
            raise GraphError(
                f"{path}:{line_number}: expected 2 fields, got {len(fields)}"
            )
        source, target = fields
        if source == target:
            continue  # tolerate self-loops in third-party dumps
        edges.append((index.intern(source), index.intern(target)))
    total = num_users if num_users is not None else len(index)
    if total < len(index):
        raise GraphError(
            f"num_users={total} but the file references {len(index)} users"
        )
    if total < 1:
        raise GraphError(f"{path}: the edge list names no users")
    return SocialGraph(total, edges), index


def load_action_log(
    path: PathLike,
    index: UserIndex,
    num_users: int | None = None,
    skip_unknown_users: bool = True,
) -> ActionLog:
    """Parse a ``user item timestamp`` file into an :class:`ActionLog`.

    Parameters
    ----------
    path:
        The votes/favourites file.
    index:
        User index from the matching edge list.
    num_users:
        Universe size; defaults to ``len(index)``.
    skip_unknown_users:
        The public Digg dump contains votes from users absent from the
        friendship graph; by default those records are dropped (the
        paper's influence pairs require graph membership anyway).  Set
        to ``False`` to raise instead.
    """
    records: list[tuple[int, int, float]] = []
    item_ids: dict[str, int] = {}
    for line_number, fields in _data_lines(path, ActionLogError):
        if len(fields) != 3:
            raise ActionLogError(
                f"{path}:{line_number}: expected 3 fields, got {len(fields)}"
            )
        user_name, item_name, time_text = fields
        if user_name not in index:
            if skip_unknown_users:
                continue
            raise ActionLogError(
                f"{path}:{line_number}: unknown user {user_name!r}"
            )
        try:
            timestamp = float(time_text)
        except ValueError:
            timestamp = math.nan
        if not math.isfinite(timestamp):
            raise ActionLogError(
                f"{path}:{line_number}: bad timestamp {time_text!r}"
            )
        item_id = item_ids.setdefault(item_name, len(item_ids))
        records.append((index.id_of(user_name), item_id, timestamp))
    total = num_users if num_users is not None else len(index)
    # Deduplicate repeated votes, keeping the earliest per (user, item).
    earliest: dict[tuple[int, int], float] = {}
    for user, item, timestamp in records:
        key = (user, item)
        if key not in earliest or timestamp < earliest[key]:
            earliest[key] = timestamp
    deduped = [(u, i, t) for (u, i), t in earliest.items()]
    return ActionLog.from_tuples(deduped, total)


def write_edge_list(
    graph: SocialGraph, path: PathLike, index: UserIndex | None = None
) -> None:
    """Atomically write a graph back to the edge-list format.

    The write goes through :func:`repro.ckpt.atomic.atomic_output`, so
    an interrupted export never leaves a truncated edge list behind.
    """
    with atomic_output(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("# source target\n")
            for source, target in graph.edges():
                if index is not None:
                    handle.write(
                        f"{index.name_of(source)} {index.name_of(target)}\n"
                    )
                else:
                    handle.write(f"{source} {target}\n")


def write_action_log(
    log: ActionLog, path: PathLike, index: UserIndex | None = None
) -> None:
    """Atomically write an action log back to the votes format.

    The write goes through :func:`repro.ckpt.atomic.atomic_output`, so
    an interrupted export never leaves a truncated log behind.
    """
    with atomic_output(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("# user item timestamp\n")
            for user, item, timestamp in log.to_tuples():
                name = index.name_of(user) if index is not None else str(user)
                handle.write(f"{name} {item} {timestamp!r}\n")


def load_dataset(
    edges_path: PathLike, actions_path: PathLike
) -> tuple[SocialGraph, ActionLog, UserIndex]:
    """Load a full (graph, log) dataset from the two standard files."""
    graph, index = load_edge_list(edges_path)
    log = load_action_log(actions_path, index, num_users=graph.num_nodes)
    return graph, log, index
