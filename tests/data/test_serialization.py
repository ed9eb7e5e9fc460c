"""Whole-dataset persistence through the text edge list and action log."""

import pytest

from repro.data.loaders import load_dataset, write_action_log, write_edge_list
from repro.data.synthetic import SyntheticSocialDataset


@pytest.fixture(scope="module")
def dataset() -> SyntheticSocialDataset:
    return SyntheticSocialDataset.digg_like(num_users=80, num_items=15, seed=3)


class TestRoundtrip:
    def test_loaded_dataset_runs_pipeline(self, dataset, tmp_path):
        edges, actions = tmp_path / "edges.txt", tmp_path / "votes.txt"
        write_edge_list(dataset.graph, edges)
        write_action_log(dataset.log, actions)
        graph, log, _index = load_dataset(edges, actions)
        from repro.eval.stats import spontaneous_share

        assert spontaneous_share(graph, log) == pytest.approx(
            spontaneous_share(dataset.graph, dataset.log)
        )
