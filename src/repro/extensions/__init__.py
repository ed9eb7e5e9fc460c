"""Extensions implementing the paper's future-work directions.

Section VI of the paper names two:

* topic-aware influence propagation — :mod:`repro.extensions.topic_inf2vec`,
* alternative context-generation strategies —
  :mod:`repro.extensions.temporal_context`.

Plus the supporting k-means substrate in
:mod:`repro.extensions.clustering`.
"""

from repro.extensions.clustering import kmeans
from repro.extensions.temporal_context import (
    TemporalContextConfig,
    TemporalContextGenerator,
    temporal_global_sample,
    temporal_walk,
)
from repro.extensions.topic_inf2vec import TopicConfig, TopicInf2vec, adopter_profiles

__all__ = [
    "kmeans",
    "TemporalContextConfig",
    "TemporalContextGenerator",
    "temporal_global_sample",
    "temporal_walk",
    "TopicConfig",
    "TopicInf2vec",
    "adopter_profiles",
]
