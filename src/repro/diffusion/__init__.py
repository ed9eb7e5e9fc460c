"""Diffusion-model substrate: IC, LT, and Monte-Carlo estimation."""

from repro.diffusion.ic import (
    CascadeResult,
    activation_probability,
    simulate_ic,
    simulate_ic_fast,
)
from repro.diffusion.lt import simulate_lt, uniform_lt_weights
from repro.diffusion.montecarlo import (
    activation_frequencies,
    expected_spread,
    spread_with_standard_error,
)
from repro.diffusion.probabilities import EdgeProbabilities

__all__ = [
    "CascadeResult",
    "activation_probability",
    "simulate_ic",
    "simulate_ic_fast",
    "simulate_lt",
    "uniform_lt_weights",
    "activation_frequencies",
    "expected_spread",
    "spread_with_standard_error",
    "EdgeProbabilities",
]
