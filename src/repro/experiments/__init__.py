"""Experiment pipelines — one module per table/figure of the paper.

==========  ====================================  =============================
Experiment  Paper artifact                        Module
==========  ====================================  =============================
T1          Table I  (dataset statistics)         ``table1_stats``
F1/F2       Figures 1–2 (power laws)              ``fig1_2_powerlaw``
F3          Figure 3 (active-friend CDF)          ``fig3_cdf``
T2          Table II (activation prediction)      ``table2_activation``
T3          Table III (diffusion prediction)      ``table3_diffusion``
T4          Table IV (Inf2vec-L ablation)         ``table4_ablation``
T5          Table V  (aggregation functions)      ``table5_aggregation``
F6          Figure 6 (t-SNE visualisation)        ``fig6_visualization``
F7          Figure 7 (dimension K sweep)          ``fig7_dimension``
F8          Figure 8 (context length L sweep)     ``fig8_context_length``
F9          Figure 9 (per-iteration efficiency)   ``fig9_efficiency``
T6          Table VI (citation case study)        ``table6_casestudy``
S           multi-run mean ± σ + p-values         ``significance``
==========  ====================================  =============================

Each module exposes ``run(scale, seed)`` returning structured results
and a ``main()`` that prints the paper-style table; the corresponding
``benchmarks/bench_*.py`` wraps ``run``.
"""

from repro.experiments.common import (
    DATASET_PROFILES,
    ExperimentScale,
    get_scale,
    make_dataset,
    method_grid,
)

__all__ = [
    "DATASET_PROFILES",
    "ExperimentScale",
    "get_scale",
    "make_dataset",
    "method_grid",
]
