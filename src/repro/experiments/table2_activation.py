"""Experiment T2 — Table II: activation prediction on both datasets.

Paper's Table II compares DE, ST, EM, Emb-IC, MF, Node2vec, and
Inf2vec on AUC / MAP / P@10 / P@50 / P@100 for the
activation-prediction task, on Digg and Flickr.  Headline numbers
(Digg): Inf2vec AUC 0.8893 / MAP 0.2744 vs ST 0.8619 / 0.1790,
EM 0.8623 / 0.2071, Emb-IC 0.8072 / 0.1503, MF 0.8568 / 0.1691,
Node2vec 0.6437 / 0.0322, DE 0.4144 / 0.0170.

Reproduction shape targets (synthetic substitution, Section 2 of
DESIGN.md), as ``benchmarks/bench_table2_activation.py`` asserts them
on both profiles:

* Inf2vec's AUC is above DE's, ST's, EM's, Emb-IC's and Node2vec's,
* Inf2vec's AUC is above MF's minus 0.02: MF (interest only) is not
  asserted below Inf2vec, and on the synthetic profiles it can lead
  (EXPERIMENTS.md, known deviation 2),
* DE's AUC is below ST's, and Node2vec's MAP is below Inf2vec's.
"""

from __future__ import annotations

from repro.experiments.common import (
    DATASET_PROFILES,
    ExperimentScale,
    get_scale,
    make_dataset,
    method_grid,
)
from repro.experiments.comparison import ComparisonResult, run_comparison
from repro.utils.rng import SeedLike, ensure_rng


def run(
    scale: str | ExperimentScale = "small",
    seed: SeedLike = 0,
    profiles: tuple[str, ...] = DATASET_PROFILES,
) -> list[ComparisonResult]:
    """Run the Table II comparison on the requested dataset profiles."""
    scale = get_scale(scale)
    rng = ensure_rng(seed)
    results = []
    for profile in profiles:
        data = make_dataset(profile, scale, rng)
        methods = method_grid(scale, seed=rng)
        results.append(
            run_comparison(
                data, methods, task="activation", scale=scale, split_seed=rng
            )
        )
    return results


def main(scale: str = "small", seed: int = 0) -> None:
    """Print the Table II reproduction."""
    for result in run(scale, seed):
        print(f"\nTable II — activation prediction on {result.dataset}")
        print(result.table())
        print(f"best AUC: {result.winner('AUC')}, best MAP: {result.winner('MAP')}")


if __name__ == "__main__":
    main()
