"""Digg-2009 data in the text formats: the loader behaviours it relies on.

The Digg CSVs reach training through the edge list and action log, after
the preprocessing README describes: each ``digg_friends.csv`` row
``mutual, date, user_id, friend_id`` becomes the edge ``friend_id
user_id`` (both ways when mutual), and each ``digg_votes.csv`` row
``date, voter_id, story_id`` becomes ``voter_id story_id date``.
"""

import pytest

from repro.data.loaders import load_action_log, load_dataset, load_edge_list
from repro.errors import ActionLogError, GraphError

FRIENDS = (
    "# friend_id user_id\n"
    "bob alice\n"  # "0","1246393243","alice","bob"
    "carol bob\n"  # "1","1246393244","bob","carol" (mutual)
    "bob carol\n"
    "alice alice\n"  # "0","1246393245","alice","alice": self-tie
)

VOTES = (
    "# voter_id story_id date\n"
    "bob story_a 100\n"
    "alice story_a 200\n"
    "carol story_b 150\n"
    "bob story_a 90\n"  # duplicate vote, earlier timestamp wins
    "ghost story_a 300\n"  # voter not in the graph
)


@pytest.fixture
def files(tmp_path):
    friends = tmp_path / "digg_friends.txt"
    votes = tmp_path / "digg_votes.txt"
    friends.write_text(FRIENDS)
    votes.write_text(VOTES)
    return friends, votes


class TestFriends:
    def test_self_ties_skipped(self, files):
        friends, _ = files
        graph, _ = load_edge_list(friends)
        assert graph.num_edges == 3

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a b 1246393243\n")
        with pytest.raises(GraphError, match="expected 2"):
            load_edge_list(path)


class TestVotes:
    def test_episodes_grouped_and_ordered(self, files):
        friends, votes = files
        graph, index = load_edge_list(friends)
        log = load_action_log(votes, index, num_users=graph.num_nodes)
        assert len(log) == 2
        story_a = log[0]
        assert story_a.users.tolist() == [
            index.id_of("bob"), index.id_of("alice"),
        ]

    def test_duplicate_votes_keep_earliest(self, files):
        friends, votes = files
        graph, index = load_edge_list(friends)
        log = load_action_log(votes, index, num_users=graph.num_nodes)
        assert log[0].time_of(index.id_of("bob")) == 90.0

    def test_unknown_voter_skipped(self, files):
        friends, votes = files
        graph, index = load_edge_list(friends)
        log = load_action_log(votes, index, num_users=graph.num_nodes)
        assert "ghost" not in index
        assert log.num_actions == 3

    def test_unknown_voter_strict(self, files, tmp_path):
        friends, _ = files
        _, index = load_edge_list(friends)
        votes = tmp_path / "v.txt"
        votes.write_text("ghost s 1\n")
        with pytest.raises(ActionLogError, match="unknown user"):
            load_action_log(votes, index, skip_unknown_users=False)

    def test_bad_timestamp(self, files, tmp_path):
        friends, _ = files
        _, index = load_edge_list(friends)
        votes = tmp_path / "v.txt"
        votes.write_text("alice s noon\n")
        with pytest.raises(ActionLogError, match="bad timestamp"):
            load_action_log(votes, index)


class TestEndToEnd:
    def test_load_digg_runs_pipeline(self, files):
        friends, votes = files
        graph, log, index = load_dataset(friends, votes)
        from repro.core.pairs import pair_frequencies

        freqs = pair_frequencies(graph, log)
        # bob voted before alice and alice watches bob: one pair.
        assert freqs.pair_counts[
            (index.id_of("bob"), index.id_of("alice"))
        ] == 1
