"""Unit tests for the atomic-write primitive."""

import numpy as np
import pytest

from repro.ckpt.atomic import (
    atomic_output,
    atomic_write_bytes,
    atomic_write_text,
)


class TestAtomicOutput:
    def test_commits_on_success(self, tmp_path):
        final = tmp_path / "out.txt"
        with atomic_output(final) as tmp:
            tmp.write_text("payload")
            assert not final.exists()  # nothing visible until commit
        assert final.read_text() == "payload"

    def test_no_temp_files_left_after_commit(self, tmp_path):
        final = tmp_path / "out.txt"
        with atomic_output(final) as tmp:
            tmp.write_text("payload")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_leaves_destination_untouched(self, tmp_path):
        final = tmp_path / "out.txt"
        final.write_text("previous complete version")
        with pytest.raises(RuntimeError):
            with atomic_output(final) as tmp:
                tmp.write_text("half-writ")
                raise RuntimeError("simulated crash")
        assert final.read_text() == "previous complete version"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_with_no_previous_version(self, tmp_path):
        final = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_output(final) as tmp:
                raise RuntimeError("crash before writing anything")
        assert list(tmp_path.iterdir()) == []

    def test_creates_parent_directories(self, tmp_path):
        final = tmp_path / "deep" / "nested" / "out.txt"
        with atomic_output(final) as tmp:
            tmp.write_text("x")
        assert final.read_text() == "x"

    def test_temp_keeps_destination_suffix_for_numpy(self, tmp_path):
        """np.savez appends .npz to bare paths; the temp name must
        already end with it or the commit would rename a missing file."""
        final = tmp_path / "arrays.npz"
        with atomic_output(final) as tmp:
            assert tmp.name.endswith(".npz")
            np.savez_compressed(tmp, a=np.arange(3))
        with np.load(final) as data:
            assert data["a"].tolist() == [0, 1, 2]

    def test_temp_is_hidden_dotfile(self, tmp_path):
        with atomic_output(tmp_path / "v.npz") as tmp:
            assert tmp.name.startswith(".")
            tmp.write_bytes(b"x")

    def test_replaces_existing_file(self, tmp_path):
        final = tmp_path / "out.txt"
        atomic_write_text(final, "one")
        atomic_write_text(final, "two")
        assert final.read_text() == "two"


class TestConvenienceWriters:
    def test_write_bytes_returns_final_path(self, tmp_path):
        result = atomic_write_bytes(tmp_path / "b.bin", b"\x00\x01")
        assert result == tmp_path / "b.bin"
        assert result.read_bytes() == b"\x00\x01"

    def test_write_text_roundtrip(self, tmp_path):
        result = atomic_write_text(tmp_path / "t.json", '{"k": "v"}\n')
        assert result.read_text() == '{"k": "v"}\n'
