"""Applications built on the learned influence embeddings."""

from repro.apps.citation_study import (
    CaseStudyResult,
    pairs_to_contexts,
    run_case_study,
    train_conventional_model,
    train_embedding_model,
)
from repro.apps.influence_max import (
    embedding_edge_probabilities,
    embedding_seed_selection,
    ris_influence_maximization,
)

__all__ = [
    "CaseStudyResult",
    "pairs_to_contexts",
    "run_case_study",
    "train_conventional_model",
    "train_embedding_model",
    "embedding_edge_probabilities",
    "embedding_seed_selection",
    "ris_influence_maximization",
]
