"""Unit tests for the citation case study (Table VI pipeline)."""

import pytest

from repro.apps.citation_study import (
    pairs_to_contexts,
    run_case_study,
    train_conventional_model,
    train_embedding_model,
)
from repro.data.citation import CitationConfig, CitationDataset, CitationPair
from tests.oracles import context_rows


@pytest.fixture(scope="module")
def dataset() -> CitationDataset:
    config = CitationConfig(num_authors=60, num_papers=80, mean_references=4.0)
    return CitationDataset.generate(config, seed=5)


class TestHelpers:
    def test_pairs_to_contexts(self):
        pairs = [CitationPair(0, 1, 3), CitationPair(2, 3, 4)]
        contexts = pairs_to_contexts(pairs)
        assert context_rows(contexts) == [(0, (1,), ()), (2, (3,), ())]

    def test_conventional_model_mle(self):
        pairs = [
            CitationPair(0, 1, 1),
            CitationPair(0, 1, 2),
            CitationPair(0, 2, 3),
        ]
        probs = train_conventional_model(pairs, num_authors=3)
        # A_{0->1} = 2, A_0 = 3.
        assert probs.get(0, 1) == pytest.approx(2 / 3)
        assert probs.get(0, 2) == pytest.approx(1 / 3)

    def test_embedding_model_learns_pairs(self):
        pairs = [CitationPair(0, 1, t) for t in range(30)]
        pairs += [CitationPair(2, 3, t) for t in range(30)]
        emb = train_embedding_model(pairs, num_authors=5, dim=8, epochs=20, seed=0)
        assert emb.score(0, 1) > emb.score(0, 4)


class TestCaseStudy:
    def test_end_to_end(self, dataset):
        result = run_case_study(
            dataset,
            mc_runs=50,
            embedding_dim=16,
            embedding_epochs=5,
            seed=0,
        )
        assert 0.0 <= result.embedding_precision <= 1.0
        assert 0.0 <= result.conventional_precision <= 1.0
        assert result.num_test_authors > 0
        assert len(result.showcase) == 3

    def test_embedding_generalizes_to_unseen_pairs(self):
        """The mechanism behind the paper's Table VI gap.

        Two author communities; training pairs connect every author to
        *most* same-community authors, test pairs are the held-out
        same-community pairs.  The conventional model can only reach
        observed influence edges, so its top-k on unseen followers is
        weak; the embedding must place same-community authors close and
        recover them.
        """
        pairs = []
        communities = [list(range(0, 10)), list(range(10, 20))]
        time = 0
        for community in communities:
            for source in community:
                for target in community:
                    if source != target:
                        pairs.append(CitationPair(source, target, time))
                        time += 1
        rng = __import__("numpy").random.default_rng(0)
        order = rng.permutation(len(pairs))
        train = [pairs[i] for i in order[: int(0.7 * len(pairs))]]
        held_out = [pairs[i] for i in order[int(0.7 * len(pairs)) :]]

        emb = train_embedding_model(
            train, num_authors=20, dim=8, epochs=60, learning_rate=0.05, seed=0
        )
        # For each held-out pair the target must rank above a random
        # cross-community author most of the time.
        wins = 0
        for pair in held_out:
            same = emb.score(pair.source, pair.target)
            other_community = 10 if pair.source < 10 else 0
            cross = emb.score(pair.source, other_community)
            wins += int(same > cross)
        assert wins / len(held_out) > 0.8

    def test_showcase_entries_consistent(self, dataset):
        result = run_case_study(
            dataset, mc_runs=30, embedding_dim=8, embedding_epochs=3, seed=0
        )
        for row in result.showcase:
            assert len(row.embedding_top10) == 10
            assert len(row.conventional_top10) == 10
            assert row.author not in row.embedding_top10
            assert 0 <= row.embedding_hits <= 10

    def test_showcase_entries_are_author_predictions(self):
        config = CitationConfig(
            num_authors=40, num_papers=50, mean_references=3.0
        )
        small = CitationDataset.generate(config, seed=5)
        result = run_case_study(
            small,
            num_showcase=2,
            mc_runs=20,
            embedding_dim=8,
            embedding_epochs=2,
            seed=5,
        )
        assert result.showcase
        for prediction in result.showcase:
            assert len(prediction.embedding_top10) <= 10
            assert prediction.embedding_hits <= len(prediction.embedding_top10)
            assert prediction.conventional_hits <= len(
                prediction.conventional_top10
            )
