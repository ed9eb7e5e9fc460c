"""Integration tests: end-to-end pipelines across modules."""

import numpy as np
import pytest

from repro.baselines import make_method
from repro.core.context import ContextConfig
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.core.prediction import EmbeddingPredictor
from repro.data.loaders import load_dataset, write_action_log, write_edge_list
from repro.data.synthetic import SyntheticSocialDataset
from repro.eval import (
    evaluate_activation,
    evaluate_diffusion,
    repeat_evaluation,
    spontaneous_share,
)


@pytest.fixture(scope="module")
def dataset() -> SyntheticSocialDataset:
    return SyntheticSocialDataset.digg_like(num_users=250, num_items=100, seed=42)


@pytest.fixture(scope="module")
def splits(dataset):
    return dataset.log.split((0.8, 0.1, 0.1), seed=42)


class TestTrainPredictEvaluate:
    def test_inf2vec_beats_degree_baseline(self, dataset, splits):
        """The most basic end-to-end claim: learning beats not learning."""
        train, _tune, test = splits
        inf2vec = Inf2vecModel(
            Inf2vecConfig(
                dim=16, epochs=12, learning_rate=0.01,
                context=ContextConfig(length=15, alpha=0.2),
            ),
            seed=1,
        ).fit(dataset.graph, train)
        de = make_method("DE").fit(dataset.graph, train)

        ours = evaluate_activation(
            EmbeddingPredictor(inf2vec.embedding), dataset.graph, test
        )
        theirs = evaluate_activation(
            de.predictor(num_runs=10, seed=0), dataset.graph, test
        )
        assert ours.auc > theirs.auc
        assert ours.map > theirs.map

    def test_inf2vec_recovers_observed_influence_pairs(self, dataset, splits):
        """Within each source, frequently observed influence targets
        must outscore random never-influenced users.

        (Cross-source comparisons of raw x(u, .) are not meaningful —
        each source carries its own SGNS calibration — so the test
        checks the within-source ranking the predictors actually use.)
        """
        from repro.core.pairs import pair_frequencies

        train, _tune, _test = splits
        model = Inf2vecModel(
            Inf2vecConfig(
                dim=16, epochs=12, learning_rate=0.02,
                context=ContextConfig(length=15, alpha=0.5),
            ),
            seed=1,
        ).fit(dataset.graph, train)
        emb = model.embedding
        freqs = pair_frequencies(dataset.graph, train)
        rng = np.random.default_rng(0)
        wins = total = 0
        for (source, target), _count in freqs.pair_counts.most_common(200):
            random_user = int(rng.integers(dataset.graph.num_nodes))
            if random_user == target or (source, random_user) in freqs.pair_counts:
                continue
            wins += int(emb.score(source, target) > emb.score(source, random_user))
            total += 1
        assert total > 100
        assert wins / total > 0.65

    def test_diffusion_evaluation_all_methods(self, dataset, splits):
        """Every registry method runs the diffusion task end to end."""
        train, _tune, test = splits
        for name in ("DE", "ST", "MF"):
            model = make_method(name, **({"seed": 0} if name == "MF" else {}))
            model.fit(dataset.graph, train)
            result = evaluate_diffusion(
                model.predictor(num_runs=20, seed=0),
                dataset.graph.num_nodes,
                test,
            )
            assert 0.0 <= result.auc <= 1.0


class TestMultiRunProtocol:
    def test_repeat_evaluation_with_real_model(self, dataset, splits):
        train, _tune, test = splits

        def run(seed: int):
            model = Inf2vecModel(
                Inf2vecConfig(
                    dim=8, epochs=3, context=ContextConfig(length=8, alpha=0.2)
                ),
                seed=seed,
            ).fit(dataset.graph, train)
            return evaluate_activation(
                EmbeddingPredictor(model.embedding), dataset.graph, test
            )

        result = repeat_evaluation(run, num_runs=3, seed=0)
        assert len(result.runs) == 3
        assert result.std("AUC") >= 0.0


class TestDiskRoundtrip:
    def test_synthetic_dataset_survives_disk(self, dataset, tmp_path):
        """Write a generated dataset in the loader format, read it back,
        and verify the pipeline still runs on the loaded copy."""
        edges_path = tmp_path / "edges.txt"
        votes_path = tmp_path / "votes.txt"
        write_edge_list(dataset.graph, edges_path)
        write_action_log(dataset.log, votes_path)

        graph, log, _index = load_dataset(edges_path, votes_path)
        assert graph.num_edges == dataset.graph.num_edges
        assert log.num_actions == dataset.log.num_actions
        # Spontaneous share is a sensitive whole-pipeline statistic.
        assert spontaneous_share(graph, log) == pytest.approx(
            spontaneous_share(dataset.graph, dataset.log), abs=1e-9
        )

    def test_embedding_roundtrip_preserves_predictions(
        self, dataset, splits, tmp_path
    ):
        train, _tune, test = splits
        model = Inf2vecModel(
            Inf2vecConfig(dim=8, epochs=2, context=ContextConfig(length=8)),
            seed=0,
        ).fit(dataset.graph, train)
        from repro.serve import EmbeddingStore

        loaded = EmbeddingStore.save(model.embedding, tmp_path).embedding()
        a = evaluate_activation(
            EmbeddingPredictor(model.embedding), dataset.graph, test
        )
        b = evaluate_activation(EmbeddingPredictor(loaded), dataset.graph, test)
        assert a.auc == b.auc
        assert a.map == b.map
