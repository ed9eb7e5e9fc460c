"""Unit tests for the on-disk format loaders."""

import numpy as np
import pytest

from repro.data.loaders import (
    UserIndex,
    load_action_log,
    load_dataset,
    load_edge_list,
    write_action_log,
    write_edge_list,
)
from repro.data.synthetic import SyntheticSocialDataset
from repro.errors import ActionLogError, GraphError, ReproError


class TestUserIndex:
    def test_intern_is_idempotent(self):
        index = UserIndex()
        assert index.intern("alice") == 0
        assert index.intern("bob") == 1
        assert index.intern("alice") == 0
        assert len(index) == 2

    def test_lookup_roundtrip(self):
        index = UserIndex()
        index.intern("alice")
        assert index.id_of("alice") == 0
        assert index.name_of(0) == "alice"
        assert "alice" in index

    def test_unknown_lookups_raise(self):
        index = UserIndex()
        with pytest.raises(GraphError):
            index.id_of("ghost")
        with pytest.raises(GraphError):
            index.name_of(3)


class TestEdgeList:
    def test_parse_whitespace_and_comments(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# a comment\nalice bob\n\nbob carol\n")
        graph, index = load_edge_list(path)
        assert graph.num_nodes == 3
        assert graph.has_edge(index.id_of("alice"), index.id_of("bob"))

    def test_parse_comma_separated(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("alice,bob\n")
        graph, _ = load_edge_list(path)
        assert graph.num_edges == 1

    def test_self_loops_tolerated(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("alice alice\nalice bob\n")
        graph, _ = load_edge_list(path)
        assert graph.num_edges == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("alice bob carol\n")
        with pytest.raises(GraphError, match="expected 2 fields"):
            load_edge_list(path)

    def test_num_users_override(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("alice bob\n")
        graph, _ = load_edge_list(path, num_users=10)
        assert graph.num_nodes == 10

    def test_num_users_too_small_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("alice bob\ncarol dave\n")
        with pytest.raises(GraphError, match="references"):
            load_edge_list(path, num_users=2)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("alice bob\nbob carol\n")
        graph, index = load_edge_list(path)
        out = tmp_path / "out.txt"
        write_edge_list(graph, out, index)
        graph2, index2 = load_edge_list(out)
        assert graph2.num_edges == graph.num_edges


class TestActionLog:
    @pytest.fixture
    def index(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("alice bob\nbob carol\n")
        _, index = load_edge_list(path)
        return index

    def test_parse_votes(self, tmp_path, index):
        path = tmp_path / "votes.txt"
        path.write_text("alice story1 100\nbob story1 200\ncarol story2 50\n")
        log = load_action_log(path, index)
        assert len(log) == 2
        assert log.num_actions == 3

    def test_unknown_user_skipped_by_default(self, tmp_path, index):
        path = tmp_path / "votes.txt"
        path.write_text("ghost story1 100\nalice story1 200\n")
        log = load_action_log(path, index)
        assert log.num_actions == 1

    def test_unknown_user_strict_mode(self, tmp_path, index):
        path = tmp_path / "votes.txt"
        path.write_text("ghost story1 100\n")
        with pytest.raises(ActionLogError, match="unknown user"):
            load_action_log(path, index, skip_unknown_users=False)

    def test_duplicate_votes_keep_earliest(self, tmp_path, index):
        path = tmp_path / "votes.txt"
        path.write_text("alice story1 300\nalice story1 100\n")
        log = load_action_log(path, index)
        episode = log.episodes[0]
        assert len(episode) == 1
        assert episode.times[0] == 100.0

    def test_bad_timestamp_rejected(self, tmp_path, index):
        path = tmp_path / "votes.txt"
        path.write_text("alice story1 noon\n")
        with pytest.raises(ActionLogError, match="bad timestamp"):
            load_action_log(path, index)

    def test_malformed_line_rejected(self, tmp_path, index):
        path = tmp_path / "votes.txt"
        path.write_text("alice story1\n")
        with pytest.raises(ActionLogError, match="expected 3 fields"):
            load_action_log(path, index)

    def test_roundtrip(self, tmp_path, index):
        path = tmp_path / "votes.txt"
        path.write_text("alice story1 100\nbob story1 200\n")
        log = load_action_log(path, index)
        out = tmp_path / "out.txt"
        write_action_log(log, out, index)
        log2 = load_action_log(out, index)
        assert log2.num_actions == log.num_actions


class TestLoadDataset:
    def test_end_to_end(self, tmp_path):
        (tmp_path / "edges.txt").write_text("alice bob\nbob carol\n")
        (tmp_path / "votes.txt").write_text(
            "alice item1 1\nbob item1 2\ncarol item1 3\n"
        )
        graph, log, index = load_dataset(
            tmp_path / "edges.txt", tmp_path / "votes.txt"
        )
        assert graph.num_nodes == 3
        assert log.num_users == 3
        assert log.num_actions == 3

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.txt", tmp_path / "votes.txt")


@pytest.fixture(scope="module")
def dataset() -> SyntheticSocialDataset:
    return SyntheticSocialDataset.digg_like(num_users=120, num_items=20, seed=0)


@pytest.fixture
def written(dataset, tmp_path):
    """``dataset`` written as an edge list and an action log."""
    edges, actions = tmp_path / "edges.txt", tmp_path / "votes.txt"
    write_edge_list(dataset.graph, edges)
    write_action_log(dataset.log, actions)
    return edges, actions


class TestRoundtrip:
    """A written dataset loads back to the same data.  The loader numbers
    users in first-seen order, so ids compare through their names."""

    def test_graph_preserved(self, dataset, written):
        graph, _log, index = load_dataset(*written)
        assert graph.num_nodes == dataset.graph.num_nodes
        named = {
            (int(index.name_of(source)), int(index.name_of(target)))
            for source, target in graph.edges()
        }
        assert named == set(dataset.graph.edges())
        assert graph.num_edges == dataset.graph.num_edges

    def test_log_preserved(self, dataset, written):
        _graph, log, index = load_dataset(*written)
        named = sorted(
            (int(index.name_of(user)), item, time)
            for user, item, time in log.to_tuples()
        )
        assert named == sorted(dataset.log.to_tuples())

    def test_failed_write_preserves_previous_file(self, dataset, written):
        edges, _actions = written
        before = edges.read_bytes()
        with pytest.raises(GraphError):
            write_edge_list(dataset.graph, edges, UserIndex())  # no names
        assert edges.read_bytes() == before
        assert sorted(p.name for p in edges.parent.iterdir()) == [
            "edges.txt",
            "votes.txt",
        ]


class TestMalformedText:
    """Every malformed file raises the typed error of its format, with
    ``path:line`` where a line is at fault."""

    def test_non_utf8_edge_list(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"alice bob\nbob \xff\n")
        with pytest.raises(GraphError, match=r"edges\.txt:2: not UTF-8"):
            load_edge_list(path)

    def test_non_utf8_action_log(self, tmp_path):
        (tmp_path / "edges.txt").write_text("alice bob\n")
        (tmp_path / "votes.txt").write_bytes(b"alice s\xe9 1\n")
        with pytest.raises(ActionLogError, match=r"votes\.txt:1: not UTF-8"):
            load_dataset(tmp_path / "edges.txt", tmp_path / "votes.txt")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_timestamp(self, tmp_path, text):
        _, index = load_edge_list(_write(tmp_path / "edges.txt", "a b\n"))
        path = _write(tmp_path / "votes.txt", f"a s 1\nb s {text}\n")
        with pytest.raises(ActionLogError, match=r"votes\.txt:2: bad timestamp"):
            load_action_log(path, index)

    @pytest.mark.parametrize("text", ["", "# header only\n", "a a\nb b\n"])
    def test_edge_list_naming_no_users(self, tmp_path, text):
        path = _write(tmp_path / "edges.txt", text)
        with pytest.raises(GraphError, match="names no users"):
            load_edge_list(path)

    def test_every_flipped_bit_loads_or_raises_typed(self, written):
        """One flipped bit at 300 offsets spread over both files."""
        originals = [path.read_bytes() for path in written]
        sizes = [len(data) for data in originals]
        untyped = []
        for position in np.linspace(0, sum(sizes) - 1, 300).astype(int):
            which = int(position >= sizes[0])
            offset = int(position) - which * sizes[0]
            damaged = bytearray(originals[which])
            damaged[offset] ^= 1 << (offset % 8)
            written[which].write_bytes(bytes(damaged))
            try:
                load_dataset(*written)
            except ReproError:
                pass
            except Exception as exc:
                untyped.append((written[which].name, offset, repr(exc)))
            written[which].write_bytes(originals[which])
        assert untyped == []

    def test_every_truncation_loads_or_raises_typed(self, written):
        originals = [path.read_bytes() for path in written]
        for which, path in enumerate(written):
            for size in np.linspace(0, len(originals[which]) - 1, 40).astype(int):
                path.write_bytes(originals[which][:size])
                try:
                    load_dataset(*written)
                except ReproError:
                    pass
            path.write_bytes(originals[which])


def _write(path, text):
    path.write_text(text)
    return path
