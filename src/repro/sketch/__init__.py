"""repro.sketch — sketch-based (RIS/IMM) influence maximisation.

Seed selection by reverse-reachable sampling over the CSR propagation
network:

* :mod:`repro.sketch.rrsets` — :class:`RRGenerator` samples RR sets in
  vectorised lockstep batches over the transposed CSR adjacency;
  :class:`RRSketchPool` stores them flattened, with int32 members, and
  builds the inverted node→sketch index on demand;
* :mod:`repro.sketch.schedule` — :func:`adaptive_rr_pool`: the
  IMM-style two-phase schedule (OPT lower bound + martingale stopping)
  that sizes the pool from the data instead of a hard-coded count;
* :mod:`repro.sketch.select` — :func:`max_coverage_seeds`: greedy
  max-coverage over the pool by coverage-count decrement, one pass over
  the flattened pool.

The application-facing entry point,
:func:`repro.apps.influence_max.ris_influence_maximization`, wraps
these into a :class:`~repro.apps.influence_max.SeedSelection` result.
"""

from repro.sketch.rrsets import (
    RRGenerator,
    RRSketchPool,
    reverse_edge_probabilities,
)
from repro.sketch.schedule import adaptive_rr_pool, log_binomial
from repro.sketch.select import max_coverage_seeds

__all__ = [
    "RRGenerator",
    "RRSketchPool",
    "adaptive_rr_pool",
    "log_binomial",
    "max_coverage_seeds",
    "reverse_edge_probabilities",
]
