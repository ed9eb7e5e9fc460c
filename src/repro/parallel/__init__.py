"""Multi-process hogwild training over shared-memory parameters.

An in-process fit (:mod:`repro.core.inf2vec`) trains one episode
shard; this package scales the same objective and the same epoch loop
across worker processes.  :mod:`repro.parallel.shared` places the four
parameter arrays (S, T, b, b-tilde) in POSIX shared memory and
re-exposes them as a zero-copy :class:`~repro.core.embeddings.InfluenceEmbedding`;
:mod:`repro.parallel.hogwild` shards the action log, spawns workers
with spawn-derived RNG streams, and runs lock-free SGD per Niu et
al.'s hogwild scheme — sparse Eq. 6 updates land directly on the
shared pages without locks.

Determinism: ``workers=1`` is bitwise-deterministic (training and
checkpoint resume); ``workers>1`` is statistically reproducible only,
because the OS schedules the racing updates.  Checkpoints record the
worker topology and resume only at the worker count that wrote them.
"""

from repro.parallel.hogwild import HogwildTrainer, shard_episodes
from repro.parallel.shared import (
    PARAMETER_FIELDS,
    SharedEmbedding,
    SharedEmbeddingSpec,
)

__all__ = [
    "HogwildTrainer",
    "PARAMETER_FIELDS",
    "SharedEmbedding",
    "SharedEmbeddingSpec",
    "shard_episodes",
]
