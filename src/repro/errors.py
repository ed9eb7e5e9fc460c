"""Exception hierarchy for the ``repro`` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library problems without
swallowing genuine programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised for structurally invalid graph operations.

    Examples include referencing a node outside ``[0, num_nodes)`` or
    constructing a graph from an edge list with malformed entries.
    """


class ActionLogError(ReproError):
    """Raised for malformed action logs or diffusion episodes.

    Examples include episodes with duplicate users, non-chronological
    timestamps, or references to users absent from the social network.
    """


class TrainingError(ReproError):
    """Raised when a model cannot be trained with the given inputs.

    Examples include an empty training log, non-positive embedding
    dimensions, or learning-rate/weight hyper-parameters outside their
    valid ranges.
    """


class NotFittedError(TrainingError):
    """Raised when prediction is requested from an unfitted model."""


class EvaluationError(ReproError):
    """Raised when an evaluation protocol receives unusable inputs.

    Examples include an empty candidate set, label vectors whose length
    does not match the score vector, or ``N <= 0`` for precision@N.
    """


class DataGenerationError(ReproError):
    """Raised when a synthetic dataset request is infeasible.

    Examples include asking for more edges than a simple directed graph
    of the requested size can hold, or loading a dataset archive whose
    contents fail structural validation.
    """


class ServingError(ReproError):
    """Raised for unusable serving-layer inputs or artifacts.

    Examples include user ids outside ``[0, num_users)``, a top-k
    request with ``k`` outside ``[1, num_users]``, or an embedding
    store / top-k index directory whose shards are missing, truncated,
    or inconsistent with their manifest.
    """


class SketchError(ReproError):
    """Raised for unusable sketch-based influence-maximisation inputs.

    Examples include a reverse-reachable pool whose flattened layout is
    inconsistent (indptr/node arrays disagree), a max-coverage request
    for more seeds than the pool's universe holds, or an adaptive
    sampling schedule asked to run on an empty graph.
    """


class CheckpointError(ReproError):
    """Raised for unusable training checkpoints.

    Examples include truncated or otherwise corrupt checkpoint files,
    an unsupported checkpoint format version, or resuming with a config
    whose fingerprint differs from the one the checkpoint was written
    under.
    """


class TelemetryError(ReproError):
    """Raised on telemetry misuse.

    Examples include registering one instrument name under two
    different types, re-declaring a histogram with different bucket
    edges, and decrementing a counter.
    """
