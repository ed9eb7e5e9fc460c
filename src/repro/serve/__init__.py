"""repro.serve — the read-optimized influence serving layer.

Turns trained :class:`~repro.core.embeddings.InfluenceEmbedding`
parameters into a query subsystem that answers "who does ``u``
influence" / "who influences ``v``" without ever materialising the
dense ``(num_users, num_users)`` score matrix:

* :mod:`repro.serve.store` — :class:`EmbeddingStore`: raw ``.npy``
  shards written atomically, opened with ``np.load(mmap_mode="r")`` so
  all worker processes share the same read-only pages;
* :mod:`repro.serve.scoring` — blocked, bitwise-deterministic scoring
  kernels over the bias-augmented MIPS decomposition
  ``x(u, v) = [S_u ; b_u ; 1] · [T_v ; 1 ; b̃_v]``;
* :mod:`repro.serve.topk` — :class:`TopKEngine`: exact blocked top-k
  scans, single and batched, both directions;
* :mod:`repro.serve.index` — :class:`TopKIndex`: precomputed per-user
  rankings persisted next to the store for O(k) lookups;
* :mod:`repro.serve.service` — :class:`InfluenceService`: the facade a
  request handler holds, with ``repro.obs`` metrics/span telemetry.

Single and batch queries take one route through the service: the users
and ``k`` are checked once, by :func:`repro.serve.scoring.check_users`
and :func:`repro.serve.scoring.check_k`, and the query then goes to the
index when it is deep enough and to a scan otherwise.  The engine and
the index call the same two checks, so a bad request raises
:class:`~repro.errors.ServingError` with one text from every entry
point.

Quickstart::

    from repro.serve import EmbeddingStore, InfluenceService

    EmbeddingStore.save(model.embedding, "run/store")
    service = InfluenceService.open("run/store")
    service.precompute(k=10)                  # optional O(k) index
    result = service.top_influenced(user=42, k=10)
    print(result.indices, result.scores)
"""

from repro.serve.index import INDEX_DIRECTIONS, TopKIndex
from repro.serve.scoring import (
    DEFAULT_BLOCK_SIZE,
    EmbeddingLike,
    aggregated_scores,
    augment_sources,
    augment_targets,
    iter_source_rows,
    score_block,
)
from repro.serve.service import InfluenceService
from repro.serve.store import (
    STORE_FORMAT_VERSION,
    STORE_MANIFEST_FILENAME,
    EmbeddingStore,
)
from repro.serve.topk import TopKEngine, TopKResult

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "EmbeddingLike",
    "EmbeddingStore",
    "INDEX_DIRECTIONS",
    "InfluenceService",
    "STORE_FORMAT_VERSION",
    "STORE_MANIFEST_FILENAME",
    "TopKEngine",
    "TopKIndex",
    "TopKResult",
    "aggregated_scores",
    "augment_sources",
    "augment_targets",
    "iter_source_rows",
    "score_block",
]
