"""Data substrates: graphs, action logs, synthetic generators, loaders."""

from repro.data.actionlog import ActionLog, Adoption, DiffusionEpisode
from repro.data.citation import CitationConfig, CitationDataset, CitationPair
from repro.data.graph import SocialGraph
from repro.data.loaders import (
    UserIndex,
    load_action_log,
    load_dataset,
    load_edge_list,
    write_action_log,
    write_edge_list,
)
from repro.data.synthetic import (
    CascadeConfig,
    GraphConfig,
    SyntheticSocialDataset,
    generate_power_law_graph,
    simulate_episode,
    simulate_episode_lt,
)

__all__ = [
    "ActionLog",
    "Adoption",
    "DiffusionEpisode",
    "CitationConfig",
    "CitationDataset",
    "CitationPair",
    "SocialGraph",
    "UserIndex",
    "load_action_log",
    "load_dataset",
    "load_edge_list",
    "write_action_log",
    "write_edge_list",
    "CascadeConfig",
    "GraphConfig",
    "SyntheticSocialDataset",
    "generate_power_law_graph",
    "simulate_episode",
    "simulate_episode_lt",
]
