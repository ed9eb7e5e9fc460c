"""Every method evaluated in the paper's Tables II–III.

The registry in :func:`make_method` builds any method by its table name
(``"DE"``, ``"ST"``, ``"EM"``, ``"Emb-IC"``, ``"MF"``, ``"Node2vec"``,
``"Inf2vec"``, ``"Inf2vec-L"``), which is how the experiment pipelines
assemble their method grids.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.baselines.base import EdgeProbabilityModel, EmbeddingModel, InfluenceModel
from repro.baselines.degree import DegreeModel
from repro.baselines.em_ic import EMModel
from repro.baselines.emb_ic import EmbICModel
from repro.baselines.inf2vec_method import Inf2vecLocalMethod, Inf2vecMethod
from repro.baselines.mf import MFModel
from repro.baselines.node2vec import Node2vecModel
from repro.baselines.static import StaticModel
from repro.errors import TrainingError

_REGISTRY: Mapping[str, Callable[..., InfluenceModel]] = {
    "de": DegreeModel,
    "st": StaticModel,
    "em": EMModel,
    "emb-ic": EmbICModel,
    "mf": MFModel,
    "node2vec": Node2vecModel,
    "inf2vec": Inf2vecMethod,
    "inf2vec-l": Inf2vecLocalMethod,
}

#: Canonical method order of the paper's tables.
METHOD_ORDER = ("DE", "ST", "EM", "Emb-IC", "MF", "Node2vec", "Inf2vec")


def make_method(name: str, **kwargs) -> InfluenceModel:
    """Instantiate a method by its paper table name (case-insensitive)."""
    key = name.strip().lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise TrainingError(
            f"unknown method {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


__all__ = [
    "EdgeProbabilityModel",
    "EmbeddingModel",
    "InfluenceModel",
    "DegreeModel",
    "StaticModel",
    "EMModel",
    "EmbICModel",
    "MFModel",
    "Node2vecModel",
    "Inf2vecMethod",
    "Inf2vecLocalMethod",
    "METHOD_ORDER",
    "make_method",
]
