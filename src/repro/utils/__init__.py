"""Shared utilities: deterministic RNG plumbing, logging, validation."""

from repro.utils.rng import RandomState, ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_in_range,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "RandomState",
    "ensure_rng",
    "spawn_rngs",
    "check_fraction",
    "check_in_range",
    "check_non_negative_int",
    "check_positive",
    "check_positive_int",
    "check_probability",
]
