"""The rule registry: every shipped invariant check, by id.

Each rule encodes one of this repository's machine-enforced contracts
(see DESIGN.md §11 "Coding invariants").  :data:`ALL_RULES` is the
canonical run order: the per-file rules first, then the cross-file
ones.  The CLI and the pytest guard both run all of them over one
:class:`~repro.analysis.project.ProjectGraph`.
"""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.api import PinnedApiRule
from repro.analysis.rules.determinism import ExplicitDtypeRule, SetIterationOrderRule
from repro.analysis.rules.exports import DeadExportRule
from repro.analysis.rules.hogwild import HogwildSafetyRule
from repro.analysis.rules.hygiene import NoBareExceptRule, NoMutableDefaultArgsRule
from repro.analysis.rules.persistence import AtomicWriteOnlyRule
from repro.analysis.rules.printing import NoPrintRule
from repro.analysis.rules.rng import NoGlobalRngRule
from repro.analysis.rules.telemetry import TelemetryContractRule
from repro.analysis.rules.timing import NoWallclockTimingRule

__all__ = [
    "ALL_RULES",
    "AtomicWriteOnlyRule",
    "DeadExportRule",
    "ExplicitDtypeRule",
    "HogwildSafetyRule",
    "NoBareExceptRule",
    "NoGlobalRngRule",
    "NoMutableDefaultArgsRule",
    "NoPrintRule",
    "NoWallclockTimingRule",
    "PinnedApiRule",
    "SetIterationOrderRule",
    "TelemetryContractRule",
    "default_rules",
    "get_rule",
]

#: Every shipped rule class, in canonical run order.
ALL_RULES: tuple[type, ...] = (
    NoGlobalRngRule,
    NoPrintRule,
    AtomicWriteOnlyRule,
    NoWallclockTimingRule,
    PinnedApiRule,
    NoBareExceptRule,
    NoMutableDefaultArgsRule,
    HogwildSafetyRule,
    ExplicitDtypeRule,
    SetIterationOrderRule,
    TelemetryContractRule,
    DeadExportRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, in canonical order."""
    return [rule_class() for rule_class in ALL_RULES]


def get_rule(rule_id: str) -> Rule:
    """Instantiate the rule registered under ``rule_id``.

    Raises ``KeyError`` listing the known ids when the id is unknown.
    """
    for rule_class in ALL_RULES:
        if rule_class.rule_id == rule_id:
            return rule_class()
    known = ", ".join(rule_class.rule_id for rule_class in ALL_RULES)
    raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}")
