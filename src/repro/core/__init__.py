"""The paper's primary contribution: Inf2vec and its building blocks."""

from repro.core.aggregation import AGGREGATORS, get_aggregator
from repro.core.context import (
    ContextConfig,
    ContextCorpus,
    ContextGenerator,
    batched_random_walk_with_restart,
    generate_episode_contexts_batched,
)
from repro.core.embeddings import InfluenceEmbedding
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.core.negative import NegativeSampler
from repro.core.pairs import (
    extract_all_pairs,
    extract_episode_pairs,
    frequency_histogram,
    pair_frequencies,
)
from repro.core.prediction import EmbeddingPredictor, ICPredictor, InfluencePredictor
from repro.core.propagation import (
    PropagationNetwork,
    build_propagation_networks,
    cached_propagation_networks,
)

__all__ = [
    "AGGREGATORS",
    "get_aggregator",
    "ContextConfig",
    "ContextCorpus",
    "ContextGenerator",
    "batched_random_walk_with_restart",
    "generate_episode_contexts_batched",
    "InfluenceEmbedding",
    "Inf2vecConfig",
    "Inf2vecModel",
    "NegativeSampler",
    "extract_all_pairs",
    "extract_episode_pairs",
    "frequency_histogram",
    "pair_frequencies",
    "EmbeddingPredictor",
    "ICPredictor",
    "InfluencePredictor",
    "PropagationNetwork",
    "build_propagation_networks",
    "cached_propagation_networks",
]
