"""Node2vec — network embedding with biased random walks (Grover & Leskovec [13]).

The paper's pure network-structure baseline.  Node2vec simulates
second-order random walks controlled by a return parameter ``p`` and an
in-out parameter ``q``:

* stepping back to the previous node is weighted ``1/p``,
* stepping to a node adjacent to the previous node is weighted ``1``,
* stepping further away is weighted ``1/q``,

then trains skip-gram with negative sampling over sliding windows of
the walks.  We reuse the library's SGNS machinery
(:class:`repro.core.inf2vec.Inf2vecModel` with biases disabled): the
skip-gram "input" vectors become the source embedding and the "output"
vectors the target embedding, so node2vec flows through the identical
Eq. 7 evaluation path as the other latent models.

Walks follow *out*-edges of the directed social graph; a walk ends
early at sink nodes.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import EmbeddingModel
from repro.core.context import ContextConfig, ContextCorpus
from repro.core.embeddings import InfluenceEmbedding
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.data.actionlog import ActionLog
from repro.data.graph import SocialGraph
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, SeedLike, ensure_rng
from repro.utils.validation import check_positive, check_positive_int

logger = get_logger("baselines.node2vec")


def biased_walk(
    graph: SocialGraph,
    start: int,
    length: int,
    p: float,
    q: float,
    rng: RandomState,
) -> list[int]:
    """One node2vec second-order random walk (may end early at sinks)."""
    walk = [int(start)]
    while len(walk) < length:
        current = walk[-1]
        neighbors = graph.out_neighbors(current)
        if neighbors.shape[0] == 0:
            break
        if len(walk) == 1:
            walk.append(int(neighbors[rng.integers(neighbors.shape[0])]))
            continue
        previous = walk[-2]
        weights = np.empty(neighbors.shape[0], dtype=np.float64)
        for k, candidate in enumerate(neighbors):
            candidate = int(candidate)
            if candidate == previous:
                weights[k] = 1.0 / p
            elif graph.has_edge(previous, candidate):
                weights[k] = 1.0
            else:
                weights[k] = 1.0 / q
        weights /= weights.sum()
        walk.append(int(neighbors[rng.choice(neighbors.shape[0], p=weights)]))
    return walk


def walk_contexts(walk: list[int], window: int) -> ContextCorpus:
    """Sliding-window skip-gram contexts from one walk."""
    contexts = []
    for index, center in enumerate(walk):
        neighbors = (
            walk[max(0, index - window) : index]
            + walk[index + 1 : index + window + 1]
        )
        if neighbors:
            contexts.append((center, neighbors, ()))
    return ContextCorpus.from_contexts(contexts)


class Node2vecModel(EmbeddingModel):
    """The Node2vec baseline.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    walks_per_node, walk_length, window:
        Walk-corpus shape (node2vec defaults are 10/80/10; the smaller
        defaults here match the scaled experiments).
    p, q:
        Return and in-out bias parameters (1.0/1.0 reduces to DeepWalk).
    epochs, learning_rate, num_negatives:
        SGNS training settings.
    seed:
        RNG seed for walks and training.
    """

    name = "Node2vec"

    def __init__(
        self,
        dim: int = 16,
        walks_per_node: int = 5,
        walk_length: int = 20,
        window: int = 5,
        p: float = 1.0,
        q: float = 1.0,
        epochs: int = 3,
        learning_rate: float = 0.025,
        num_negatives: int = 5,
        seed: SeedLike = None,
    ):
        self.dim = check_positive_int("dim", dim)
        self.walks_per_node = check_positive_int("walks_per_node", walks_per_node)
        self.walk_length = check_positive_int("walk_length", walk_length)
        self.window = check_positive_int("window", window)
        self.p = check_positive("p", p)
        self.q = check_positive("q", q)
        self.epochs = check_positive_int("epochs", epochs)
        self.learning_rate = check_positive("learning_rate", learning_rate)
        self.num_negatives = check_positive_int("num_negatives", num_negatives)
        self._rng = ensure_rng(seed)
        self._embedding: InfluenceEmbedding | None = None

    def generate_walks(self, graph: SocialGraph) -> list[list[int]]:
        """The full walk corpus: ``walks_per_node`` walks from each node."""
        walks: list[list[int]] = []
        nodes = np.arange(graph.num_nodes)
        for _ in range(self.walks_per_node):
            self._rng.shuffle(nodes)
            for node in nodes:
                walk = biased_walk(
                    graph, int(node), self.walk_length, self.p, self.q, self._rng
                )
                if len(walk) > 1:
                    walks.append(walk)
        return walks

    def fit(self, graph: SocialGraph, log: ActionLog) -> "Node2vecModel":
        """Walk, window, and train SGNS; the action log is unused."""
        walks = self.generate_walks(graph)
        contexts = ContextCorpus.concatenate(
            [walk_contexts(walk, self.window) for walk in walks]
        )
        logger.debug(
            "node2vec: %d walks -> %d contexts", len(walks), len(contexts)
        )
        trainer_config = Inf2vecConfig(
            dim=self.dim,
            context=ContextConfig(length=2 * self.window),
            learning_rate=self.learning_rate,
            num_negatives=self.num_negatives,
            epochs=self.epochs,
            use_biases=False,
        )
        trainer = Inf2vecModel(trainer_config, seed=self._rng)
        trainer.fit_contexts(contexts, num_users=graph.num_nodes)
        self._embedding = trainer.embedding
        return self

    @property
    def is_fitted(self) -> bool:
        return self._embedding is not None

    def embedding(self) -> InfluenceEmbedding:
        self._require_fitted()
        assert self._embedding is not None
        return self._embedding
