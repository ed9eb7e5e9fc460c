"""Diffusion-model substrate: the IC simulator and Monte-Carlo estimation."""

from repro.diffusion.ic import activation_probability, simulate_ic
from repro.diffusion.montecarlo import (
    activation_frequencies,
    expected_spread,
    spread_with_standard_error,
)
from repro.diffusion.probabilities import EdgeProbabilities

__all__ = [
    "activation_probability",
    "simulate_ic",
    "activation_frequencies",
    "expected_spread",
    "spread_with_standard_error",
    "EdgeProbabilities",
]
