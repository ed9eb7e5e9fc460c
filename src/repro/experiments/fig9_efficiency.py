"""Experiment F9 — Figure 9: per-iteration training time vs K.

The paper times one training iteration of Inf2vec and of Emb-IC for
K ∈ {10, 25, 50, 100, 200} and shows (a) both grow linearly in K and
(b) Inf2vec is 6× (Digg) / 12× (Flickr) faster at K = 50, because
Emb-IC's EM loop re-estimates responsibilities over every cascade
while Inf2vec performs flat SGD over pre-generated contexts.

The reproduction times one epoch of each at scaled K values and
reports the ratio.  Shape targets: per-iteration time increases with K
for both methods, and Inf2vec's iteration is faster at the paper's
reference dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.baselines.emb_ic import EmbICModel
from repro.core.context import ContextGenerator
from repro.core.inf2vec import Inf2vecModel
from repro.experiments.common import ExperimentScale, get_scale, make_dataset
from repro.obs.run import RunRecorder, active_run
from repro.utils.rng import SeedLike, ensure_rng

#: Scaled stand-ins for the paper's K ∈ {10, 25, 50, 100, 200}.
DEFAULT_DIMENSIONS = (8, 16, 32, 64)


@dataclass(frozen=True)
class EfficiencyPoint:
    """Per-iteration seconds of both methods at one K.

    ``context_seconds`` records Inf2vec's one-off Algorithm 1 cost
    (corpus generation) separately — the paper's Fig 9 clock measures
    the SGD iteration only, and keeping the context cost on the side
    makes that explicit.
    """

    dim: int
    inf2vec_seconds: float
    emb_ic_seconds: float
    context_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        """Emb-IC time divided by Inf2vec time (>1 means Inf2vec faster)."""
        if self.inf2vec_seconds == 0:
            return float("inf")
        return self.emb_ic_seconds / self.inf2vec_seconds


@dataclass(frozen=True)
class EfficiencyResult:
    """The Figure 9 series for one dataset."""

    dataset: str
    points: Mapping[int, EfficiencyPoint]

    def series(self, method: str) -> dict[int, float]:
        """``{K: seconds}`` for ``"inf2vec"`` or ``"emb_ic"``."""
        attr = f"{method}_seconds"
        return {dim: getattr(p, attr) for dim, p in sorted(self.points.items())}


def _stage_run() -> RunRecorder:
    """The ambient run if telemetry is recording, else a private one.

    Stage durations are read from the spans either way, so Fig 9 needs
    no private timers, and a recorded run (the CLI's ``--telemetry-dir``)
    shows its stage tree in ``trace.jsonl``.
    """
    run = active_run()
    return run if run.enabled else RunRecorder(name="fig9")


def _time_inf2vec_iteration(
    data, dim: int, scale: ExperimentScale, seed
) -> tuple[float, float]:
    """``(context_seconds, train_seconds)`` for Inf2vec's two stages."""
    config = scale.inf2vec_config(dim=dim, epochs=1, lr_decay=False)
    model = Inf2vecModel(config, seed=seed)
    generator = ContextGenerator(data.graph, config.context, seed=seed)
    run = _stage_run()
    with run.span("fig9.contexts", dim=dim) as context_span:
        corpus = generator.generate(data.log)
    # Initialise parameters without timing the setup.
    model.fit_contexts(corpus[:1], num_users=data.graph.num_nodes)
    with run.span("fig9.iteration", dim=dim) as train_span:
        model.train_epoch(corpus)
    return context_span.duration, train_span.duration


def _time_emb_ic_iteration(data, dim: int, seed) -> float:
    """Seconds for one EM iteration (E-step + M-step) of Emb-IC.

    Uses the published algorithm's exhaustive failed-transmission term
    (every adopter × every non-adopter per cascade) — the cost Fig 9
    measures; the library's accuracy benches use a sampled
    approximation instead.
    """
    model = EmbICModel(
        dim=dim,
        em_iterations=1,
        gradient_epochs=3,
        exhaustive_failures=True,
        seed=seed,
    )
    run = _stage_run()
    with run.span("fig9.emb_ic_iteration", dim=dim) as span:
        model.fit(data.graph, data.log)
    return span.duration


def run(
    scale: str | ExperimentScale = "small",
    seed: SeedLike = 0,
    dimensions: tuple[int, ...] = DEFAULT_DIMENSIONS,
    profiles: tuple[str, ...] = ("digg", "flickr"),
) -> list[EfficiencyResult]:
    """Time one iteration of both methods at each K."""
    scale = get_scale(scale)
    rng = ensure_rng(seed)
    results = []
    for profile in profiles:
        data = make_dataset(profile, scale, rng)
        points: dict[int, EfficiencyPoint] = {}
        for dim in dimensions:
            context_seconds, inf2vec_seconds = _time_inf2vec_iteration(
                data, dim, scale, rng
            )
            emb_ic_seconds = _time_emb_ic_iteration(data, dim, rng)
            points[dim] = EfficiencyPoint(
                dim=dim,
                inf2vec_seconds=inf2vec_seconds,
                emb_ic_seconds=emb_ic_seconds,
                context_seconds=context_seconds,
            )
        results.append(EfficiencyResult(dataset=data.name, points=points))
    return results


def main(scale: str = "small", seed: int = 0) -> None:
    """Print the Figure 9 reproduction."""
    for result in run(scale, seed):
        print(f"\nFigure 9 — per-iteration time on {result.dataset}")
        print(
            f"{'K':>5}{'Context(s)':>12}{'Inf2vec(s)':>12}"
            f"{'Emb-IC(s)':>12}{'speedup':>9}"
        )
        for dim, point in sorted(result.points.items()):
            print(
                f"{dim:>5}{point.context_seconds:>12.3f}"
                f"{point.inf2vec_seconds:>12.3f}"
                f"{point.emb_ic_seconds:>12.3f}{point.speedup:>9.1f}"
            )


if __name__ == "__main__":
    main()
