"""IMM-style adaptive sampling: how many RR sets are enough?

A fixed sketch count is either wasteful (easy instances) or wrong
(hard ones).  The IMM schedule (Tang et al., SIGMOD'15, "a martingale
approach") chooses the count from the data in two phases:

1. **OPT lower bound** — for geometrically shrinking guesses
   ``x_i = n / 2^i`` of the optimum spread ``OPT_k``, grow the pool to
   ``theta_i = lambda' / x_i`` sketches and run greedy max-coverage.
   The covered fraction is a martingale-concentrated spread estimate,
   so the first guess the greedy solution beats —
   ``n · F(S_i) >= (1 + eps') · x_i`` — certifies the lower bound
   ``LB = n · F(S_i) / (1 + eps')`` and stops the search (this early
   exit *is* the martingale stopping rule; a union bound over the at
   most ``log2(n)`` stopping times is folded into ``lambda'``).
2. **Final pool** — grow the same pool to
   ``theta = lambda* / LB`` sketches, enough for the greedy solution
   to be a ``(1 - 1/e - eps)``-approximation with probability
   ``1 - n^-ell``.

Both phases extend one :class:`~repro.sketch.rrsets.RRGenerator`, so
the whole schedule consumes a single seeded RNG stream and re-running
with the same seed reproduces the same pool, the same phase
transcript, and therefore the same seed set.  ``max_sketches`` caps
the pool for interactive use; hitting the cap is recorded in the
returned :class:`SketchSchedule` rather than silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import SketchError
from repro.obs.run import active_run
from repro.sketch.rrsets import DEFAULT_BATCH_SIZE, RRGenerator, RRSketchPool
from repro.sketch.select import max_coverage_seeds
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int

__all__ = ["adaptive_rr_pool", "log_binomial"]

#: Default approximation slack ``eps`` of the final guarantee.
DEFAULT_EPSILON = 0.2

#: Default failure-probability exponent: guarantees hold w.p. 1 - n^-ell.
DEFAULT_ELL = 1.0

#: Default hard cap on the pool size (memory/latency guard; the
#: schedule records when it binds instead of failing).
DEFAULT_MAX_SKETCHES = 1 << 18


def log_binomial(n: int, k: int) -> float:
    """``log C(n, k)`` via lgamma — exact enough for sampling bounds."""
    if not 0 <= k <= n:
        raise SketchError(f"log C({n}, {k}) requires 0 <= k <= n")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


@dataclass(frozen=True)
class SketchSchedule:
    """Transcript of one adaptive sampling run.

    Attributes
    ----------
    epsilon / ell:
        The requested approximation slack and failure exponent.
    lambda_prime / lambda_star:
        The phase-1 and phase-2 sampling constants.
    lower_bound:
        Certified lower bound on ``OPT_k`` (1.0 when every guess
        failed — the degenerate floor, since any seed covers itself).
    target_sketches:
        ``ceil(lambda* / lower_bound)`` — what phase 2 wanted.
    generated_sketches:
        What the pool actually holds (differs when the cap binds).
    capped:
        Whether ``max_sketches`` truncated the schedule.
    phases:
        One record per phase-1 round: guess ``x``, pool size, the
        greedy estimate, and whether the stopping rule fired.
    """

    epsilon: float
    ell: float
    lambda_prime: float
    lambda_star: float
    lower_bound: float
    target_sketches: int
    generated_sketches: int
    capped: bool
    phases: tuple[dict, ...]


def _extend_pool(
    generator: RRGenerator, pool: RRSketchPool, target: int
) -> RRSketchPool:
    """Grow ``pool`` to ``target`` sketches from ``generator``."""
    shortfall = target - pool.num_sketches
    if shortfall <= 0:
        return pool
    return pool.extended(*generator.generate(shortfall))


def adaptive_rr_pool(
    probabilities: EdgeProbabilities,
    num_seeds: int,
    epsilon: float = DEFAULT_EPSILON,
    ell: float = DEFAULT_ELL,
    seed: SeedLike = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_sketches: int = DEFAULT_MAX_SKETCHES,
) -> tuple[RRSketchPool, SketchSchedule]:
    """Sample an adaptively sized RR pool for ``num_seeds`` selection.

    Parameters
    ----------
    probabilities:
        Forward IC edge probabilities over the social graph.
    num_seeds:
        Seed-set size ``k`` the pool must support.
    epsilon:
        Approximation slack of the ``(1 - 1/e - eps)`` guarantee.
    ell:
        Failure exponent; guarantees hold with probability
        ``1 - n^-ell``.
    seed:
        Seed or Generator driving root sampling and the live-edge
        draws (thinning points and heavy-edge coins).
    batch_size:
        Lockstep reverse-cascade batch size.
    max_sketches:
        Hard pool-size cap (recorded in the schedule when it binds).

    Returns
    -------
    (pool, schedule):
        The sampled pool and the full schedule transcript.
    """
    n = probabilities.graph.num_nodes
    num_seeds = check_positive_int("num_seeds", num_seeds)
    if num_seeds > n:
        raise SketchError(f"num_seeds={num_seeds} exceeds {n} nodes")
    max_sketches = check_positive_int("max_sketches", max_sketches)
    if epsilon <= 0 or epsilon >= 1:
        raise SketchError(f"epsilon must lie in (0, 1), got {epsilon}")
    if ell <= 0:
        raise SketchError(f"ell must be positive, got {ell}")
    generator = RRGenerator(probabilities, seed=seed, batch_size=batch_size)
    pool = RRSketchPool.empty(n)
    if n == 1:
        # Degenerate universe: one node, one possible seed set.
        pool = _extend_pool(generator, pool, 1)
        schedule = SketchSchedule(
            epsilon, ell, 0.0, 0.0, 1.0, 1, pool.num_sketches, False, ()
        )
        return pool, schedule

    log_n = math.log(n)
    log_choose = log_binomial(n, num_seeds)
    eps_prime = math.sqrt(2.0) * epsilon
    # Phase-1 constant lambda' (IMM eq. 9); the log(log2 n) term is the
    # union bound over the schedule's possible stopping times.
    lambda_prime = (
        (2.0 + 2.0 / 3.0 * eps_prime)
        * (log_choose + ell * log_n + math.log(max(math.log2(n), 1.0)))
        * n
        / (eps_prime**2)
    )
    # Phase-2 constant lambda* (IMM eq. 6).
    alpha = math.sqrt(ell * log_n + math.log(2.0))
    beta = math.sqrt(
        (1.0 - 1.0 / math.e) * (log_choose + ell * log_n + math.log(2.0))
    )
    lambda_star = (
        2.0 * n * ((1.0 - 1.0 / math.e) * alpha + beta) ** 2 / (epsilon**2)
    )

    with active_run().span(
        "sketch.schedule", num_seeds=num_seeds, epsilon=epsilon
    ) as span:
        lower_bound = 1.0
        capped = False
        phases: list[dict] = []
        for i in range(1, max(int(math.ceil(math.log2(n))), 1)):
            x = n / (2.0**i)
            theta_i = int(math.ceil(lambda_prime / x))
            if theta_i > max_sketches:
                theta_i = max_sketches
                capped = True
            pool = _extend_pool(generator, pool, theta_i)
            estimate = n * max_coverage_seeds(pool, num_seeds).coverage_fraction
            stopped = estimate >= (1.0 + eps_prime) * x
            phases.append(
                {
                    "round": i,
                    "guess_x": x,
                    "num_sketches": pool.num_sketches,
                    "greedy_estimate": estimate,
                    "stopped": stopped,
                }
            )
            if stopped:
                lower_bound = estimate / (1.0 + eps_prime)
                break
            if capped:
                # The cap bars any further refinement; keep the best
                # certified floor and move on to phase 2.
                lower_bound = max(lower_bound, estimate / (1.0 + eps_prime))
                break

        target = int(math.ceil(lambda_star / lower_bound))
        generated_target = min(target, max_sketches)
        capped = capped or target > max_sketches
        pool = _extend_pool(generator, pool, generated_target)
        if span is not None:
            span.set_attribute("lower_bound", lower_bound)
            span.set_attribute("num_sketches", pool.num_sketches)
            span.set_attribute("capped", capped)

    schedule = SketchSchedule(
        epsilon=epsilon,
        ell=ell,
        lambda_prime=lambda_prime,
        lambda_star=lambda_star,
        lower_bound=lower_bound,
        target_sketches=target,
        generated_sketches=pool.num_sketches,
        capped=capped,
        phases=tuple(phases),
    )
    return pool, schedule
