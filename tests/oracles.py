"""Small, obviously correct oracles shared by several test modules.

* The exact IC oracle: 12-edge graphs small enough that all 4,096
  live-edge worlds can be enumerated, which gives spreads, activation
  probabilities and RR-set inclusion probabilities exactly.  The main
  table has cycles and converging paths; the edge-case table has
  certain, impossible and heavy edges.
* A per-context Python view of a :class:`~repro.core.context.ContextCorpus`,
  the loop its flat arrays replace.
* The dense top-k oracle: one full score row and one ``lexsort``, the
  ranking every serving fast path (blocked scan, batch, index) must
  reproduce bitwise.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.context import ContextCorpus
from repro.data.graph import SocialGraph
from repro.diffusion.probabilities import EdgeProbabilities
from repro.serve import augment_sources, augment_targets, score_block

#: Cycles and converging paths, so multi-exposure matters.
IC_EDGES = {
    (0, 1): 0.6, (0, 2): 0.3, (1, 3): 0.5, (2, 3): 0.7,
    (3, 4): 0.4, (4, 1): 0.2, (4, 5): 0.9, (5, 6): 0.35,
    (6, 3): 0.25, (2, 6): 0.15, (6, 7): 0.8, (7, 0): 0.1,
}
IC_NUM_NODES = 8

#: The values an edge-probability sampler must get exactly right: a
#: certain edge (0 -> 1), an impossible one (1 -> 2), node 2 whose
#: in-edges are all 0, node 3 whose in-row mixes a heavy edge
#: (p > 1/2) with light ones (p = 1/2 among them), and a lone heavy
#: in-edge (2 -> 4).
EDGE_CASE_EDGES = {
    (0, 1): 1.0, (1, 2): 0.0, (3, 2): 0.0, (0, 3): 0.75,
    (1, 3): 0.2, (4, 3): 0.5, (2, 4): 0.9, (3, 5): 0.35,
    (5, 0): 0.45, (6, 5): 0.05, (5, 6): 0.6, (2, 6): 0.3,
}
EDGE_CASE_NUM_NODES = 7


def ic_probabilities(
    edges: dict[tuple[int, int], float] = IC_EDGES,
    num_nodes: int = IC_NUM_NODES,
) -> EdgeProbabilities:
    """An oracle graph with its edge probabilities."""
    graph = SocialGraph(num_nodes, list(edges))
    return EdgeProbabilities.from_dict(graph, edges)


def live_edge_worlds(
    edges: dict[tuple[int, int], float] = IC_EDGES,
) -> Iterator[tuple[float, list[tuple[int, int]]]]:
    """Every live-edge world of an oracle graph: ``(weight, live edges)``.

    Under IC each edge is live independently with its probability, so
    a world's weight is the product of ``p`` over its live edges and
    ``1 - p`` over the rest; the weights of all worlds sum to 1.
    """
    items = list(edges.items())
    for mask in range(2 ** len(items)):
        weight = 1.0
        live = []
        for bit, (edge, p) in enumerate(items):
            if mask >> bit & 1:
                weight *= p
                live.append(edge)
            else:
                weight *= 1.0 - p
        yield weight, live


def reached(adjacency: dict[int, list[int]], starts: Iterable[int]) -> set[int]:
    """Nodes reachable from ``starts`` (included) along ``adjacency``."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for v in adjacency.get(frontier.pop(), []):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def context_rows(corpus: ContextCorpus) -> list[tuple[int, tuple, tuple]]:
    """``(centre, local, global)`` per context, read one context at a time."""
    members = corpus.members.tolist()
    indptr = corpus.indptr.tolist()
    rows = []
    for i, (centre, local_len) in enumerate(
        zip(corpus.centres.tolist(), corpus.local_len.tolist())
    ):
        lo, split, hi = indptr[i], indptr[i] + local_len, indptr[i + 1]
        rows.append((centre, tuple(members[lo:split]), tuple(members[split:hi])))
    return rows


def brute_force_topk(
    embedding, user: int, k: int, direction: str
) -> tuple[np.ndarray, np.ndarray]:
    """Dense top-k ``(ids, scores)``: full score row, then ``lexsort``.

    Orders by descending score, then ascending id on exact ties, with
    NaN last — the total order the serving layer documents.
    """
    if direction == "influenced":
        queries = augment_sources(embedding, [user])
        database = augment_targets(embedding)
    else:
        queries = augment_targets(embedding, [user])
        database = augment_sources(embedding)
    scores = score_block(queries, database)[0]
    order = np.lexsort((np.arange(scores.shape[0]), -scores))[:k]
    return order, scores[order]
