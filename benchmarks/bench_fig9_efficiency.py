"""Benchmark F9 — regenerate Figure 9 (per-iteration time vs K).

Paper: per-iteration time grows (near-)linearly in K for both Inf2vec
and Emb-IC, and Inf2vec's iteration is several times cheaper (6x on
Digg / 12x on Flickr at K=50) because flat SGD over pre-generated
contexts avoids Emb-IC's per-cascade EM machinery.
"""

from conftest import BENCH_SCALE, BENCH_SEED, run_once

from repro.experiments import fig9_efficiency

DIMENSIONS = (8, 16, 32)


def test_fig9_efficiency(benchmark):
    results = run_once(
        benchmark,
        fig9_efficiency.run,
        BENCH_SCALE,
        BENCH_SEED,
        dimensions=DIMENSIONS,
        profiles=("digg", "flickr"),
    )

    for result in results:
        print(f"\nFigure 9 — per-iteration seconds on {result.dataset}")
        print(f"{'K':>5}{'Inf2vec':>10}{'Emb-IC':>10}{'speedup':>9}")
        for dim, point in sorted(result.points.items()):
            print(
                f"{dim:>5}{point.inf2vec_seconds:>10.3f}"
                f"{point.emb_ic_seconds:>10.3f}{point.speedup:>9.1f}"
            )

    for result in results:
        # Emb-IC's cost grows visibly with K.  (Inf2vec's K-dependence
        # is real but shallow at bench scale: a K-independent
        # per-micro-batch intercept — negative sampling, the batch-local
        # id remap — dominates below K=32, so its curve is not asserted.)
        series_emb = result.series("emb_ic")
        assert series_emb[DIMENSIONS[-1]] > series_emb[DIMENSIONS[0]], series_emb
        # Inf2vec's iteration is several times cheaper at every K —
        # the paper's headline (6x on Digg / 12x on Flickr at K=50).
        for dim, point in result.points.items():
            assert point.speedup > 1.5, (
                f"{result.dataset} K={dim}: Inf2vec not clearly faster "
                f"(speedup {point.speedup:.2f})"
            )
