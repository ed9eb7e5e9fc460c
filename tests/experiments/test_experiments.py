"""Smoke + shape tests for the experiment pipelines at a micro scale."""

import numpy as np
import pytest

from repro.experiments import ExperimentScale, get_scale
from repro.experiments import (
    fig1_2_powerlaw,
    fig3_cdf,
    fig7_dimension,
    fig8_context_length,
    fig9_efficiency,
    table1_stats,
    table2_activation,
    table4_ablation,
    table5_aggregation,
)
from repro.errors import EvaluationError

#: Micro working point so the whole module runs in seconds.
MICRO = ExperimentScale(
    name="micro",
    num_users=150,
    num_items=60,
    dim=8,
    context_length=10,
    alpha=0.2,
    learning_rate=0.02,
    epochs=4,
    num_negatives=3,
    mc_runs=20,
)


class TestScaleResolution:
    def test_known_names(self):
        assert get_scale("small").name == "small"
        assert get_scale("medium").num_users > get_scale("small").num_users

    def test_passthrough(self):
        assert get_scale(MICRO) is MICRO

    def test_registry_is_consistent(self):
        assert get_scale("small").num_users < get_scale("medium").num_users
        config = MICRO.inf2vec_config(epochs=3)
        assert config.epochs == 3 and config.dim == MICRO.dim

    def test_unknown_rejected(self):
        with pytest.raises(EvaluationError):
            get_scale("galactic")


class TestTable1:
    def test_rows_well_formed(self):
        rows = table1_stats.run(MICRO, seed=0)
        assert [r.dataset for r in rows] == ["digg-like", "flickr-like"]
        for row in rows:
            assert row.num_users == 150
            assert row.num_actions > 0
            assert row.num_influence_pairs > 0
            assert row.avg_out_degree > 1

    def test_flickr_denser(self):
        digg, flickr = table1_stats.run(MICRO, seed=0)
        assert flickr.num_edges > digg.num_edges


class TestFig1and2:
    def test_power_law_shape(self):
        rows = fig1_2_powerlaw.run(MICRO, seed=0)
        assert len(rows) == 4  # 2 datasets x {source, target}
        for row in rows:
            assert row.fit.exponent > 1.0
            assert row.histogram
            assert row.max_frequency >= 1


class TestFig3:
    def test_cdf_shape_and_contrast(self):
        rows = fig3_cdf.run(MICRO, seed=0)
        digg, flickr = rows
        for row in rows:
            values = [row.cdf[x] for x in sorted(row.cdf)]
            assert values == sorted(values)
            assert 0.0 < row.cdf0 < 1.0
        # Fig 3's headline: Digg more spontaneous than Flickr.
        assert digg.cdf0 > flickr.cdf0


class TestTable2:
    def test_comparison_rows(self):
        results = table2_activation.run(MICRO, seed=0, profiles=("digg",))
        (result,) = results
        assert set(result.rows) == {
            "DE", "ST", "EM", "Emb-IC", "MF", "Node2vec", "Inf2vec",
        }
        for row in result.rows.values():
            assert 0.0 <= row.auc <= 1.0
        # DE never wins.
        assert result.winner("AUC") != "DE"
        assert "Method" in result.table()


class TestTable4:
    def test_ablation_rows(self):
        results = table4_ablation.run(
            MICRO, seed=0, profiles=("digg",), tasks=("activation",)
        )
        (result,) = results
        assert set(result.rows) == {"Inf2vec", "Inf2vec-L"}
        assert isinstance(result.global_context_helps(), bool)


class TestTable5:
    def test_all_aggregators_evaluated(self):
        results = table5_aggregation.run(MICRO, seed=0, profiles=("digg",))
        (result,) = results
        assert set(result.rows) == {"ave", "sum", "max", "latest"}
        assert result.best("MAP") in result.rows


class TestFig7and8:
    def test_dimension_sweep_series(self):
        sweeps = fig7_dimension.run(
            MICRO, seed=0, dimensions=(4, 8), profiles=("digg",)
        )
        (sweep,) = sweeps
        series = sweep.series("MAP")
        assert list(series) == [4, 8]
        assert all(np.isfinite(v) for v in series.values())

    def test_length_sweep_series(self):
        sweeps = fig8_context_length.run(
            MICRO, seed=0, lengths=(4, 8), profiles=("digg",)
        )
        (sweep,) = sweeps
        assert list(sweep.series("MAP")) == [4, 8]


class TestFig9:
    def test_efficiency_points(self):
        results = fig9_efficiency.run(
            MICRO, seed=0, dimensions=(4, 8), profiles=("digg",)
        )
        (result,) = results
        assert set(result.points) == {4, 8}
        for point in result.points.values():
            assert point.inf2vec_seconds > 0
            assert point.emb_ic_seconds > 0
            assert point.speedup > 0
