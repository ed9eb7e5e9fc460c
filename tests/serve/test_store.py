"""EmbeddingStore round-trip, mmap semantics, and corruption handling."""

import json

import numpy as np
import pytest

from repro.core.embeddings import InfluenceEmbedding
from repro.errors import ServingError
from repro.serve import (
    STORE_FORMAT_VERSION,
    STORE_MANIFEST_FILENAME,
    EmbeddingStore,
    TopKEngine,
    TopKIndex,
)

#: Ways a persisted ``.npy`` shard gets damaged on disk.
DAMAGES = {
    "truncated": lambda raw: raw[: len(raw) // 2],
    "zeroed": lambda raw: bytes(len(raw)),
    "emptied": lambda raw: b"",
}


def _damage(path, how):
    path.write_bytes(DAMAGES[how](path.read_bytes()))


@pytest.fixture
def embedding() -> InfluenceEmbedding:
    rng = np.random.default_rng(42)
    return InfluenceEmbedding(
        rng.normal(size=(30, 4)),
        rng.normal(size=(30, 4)),
        rng.normal(size=30),
        rng.normal(size=30),
    )


class TestRoundTrip:
    def test_open_returns_readonly_memmaps_equal_to_saved(
        self, embedding, tmp_path
    ):
        EmbeddingStore.save(embedding, tmp_path / "store")
        store = EmbeddingStore.open(tmp_path / "store")
        for name in ("source", "target", "source_bias", "target_bias"):
            mapped = getattr(store, name)
            assert isinstance(mapped, np.memmap), f"{name} is not memory-mapped"
            assert not mapped.flags.writeable, f"{name} is writable"
            np.testing.assert_array_equal(mapped, getattr(embedding, name))

    def test_writes_to_mapped_arrays_rejected(self, embedding, tmp_path):
        store = EmbeddingStore.save(embedding, tmp_path)
        with pytest.raises((ValueError, RuntimeError)):
            store.source[0, 0] = 99.0

    def test_save_returns_opened_store(self, embedding, tmp_path):
        store = EmbeddingStore.save(embedding, tmp_path)
        assert store.num_users == embedding.num_users
        assert store.dim == embedding.dim

    def test_embedding_view_is_zero_copy(self, embedding, tmp_path):
        store = EmbeddingStore.save(embedding, tmp_path)
        view = store.embedding()
        assert view.source.base is not None  # a view, not a copy
        np.testing.assert_array_equal(view.source, embedding.source)
        assert view.score(0, 1) == pytest.approx(embedding.score(0, 1))

    def test_resave_overwrites(self, embedding, tmp_path):
        EmbeddingStore.save(embedding, tmp_path)
        other = InfluenceEmbedding.initialize(30, 4, seed=7)
        store = EmbeddingStore.save(other, tmp_path)
        np.testing.assert_array_equal(store.source, other.source)


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ServingError, match="missing"):
            EmbeddingStore.open(tmp_path)

    def test_corrupt_manifest(self, embedding, tmp_path):
        EmbeddingStore.save(embedding, tmp_path)
        (tmp_path / STORE_MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(ServingError, match="corrupt"):
            EmbeddingStore.open(tmp_path)

    def test_wrong_format_version(self, embedding, tmp_path):
        EmbeddingStore.save(embedding, tmp_path)
        manifest_path = tmp_path / STORE_MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = STORE_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ServingError, match="format_version"):
            EmbeddingStore.open(tmp_path)

    def test_missing_shard(self, embedding, tmp_path):
        EmbeddingStore.save(embedding, tmp_path)
        (tmp_path / "target.npy").unlink()
        with pytest.raises(ServingError, match="missing store shard"):
            EmbeddingStore.open(tmp_path)

    def test_shape_mismatch_detected(self, embedding, tmp_path):
        EmbeddingStore.save(embedding, tmp_path)
        manifest_path = tmp_path / STORE_MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["num_users"] = 12345
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ServingError, match="shape"):
            EmbeddingStore.open(tmp_path)

    def test_no_uncommitted_temp_files_left(self, embedding, tmp_path):
        EmbeddingStore.save(embedding, tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []


class TestDamagedShards:
    """A damaged shard raises ServingError naming it, never numpy's error."""

    @pytest.mark.parametrize("how", sorted(DAMAGES))
    @pytest.mark.parametrize(
        "shard", ["source", "target", "source_bias", "target_bias"]
    )
    def test_damaged_store_shard(self, embedding, tmp_path, shard, how):
        EmbeddingStore.save(embedding, tmp_path)
        _damage(tmp_path / f"{shard}.npy", how)
        with pytest.raises(ServingError, match=f"{shard}.npy"):
            EmbeddingStore.open(tmp_path)

    @pytest.mark.parametrize("how", sorted(DAMAGES))
    @pytest.mark.parametrize("part", ["ids", "scores"])
    def test_damaged_index_part(self, embedding, tmp_path, part, how):
        TopKIndex.build(TopKEngine(embedding), k=5).save(tmp_path)
        _damage(tmp_path / f"topk_influenced_{part}.npy", how)
        with pytest.raises(ServingError, match=f"topk_influenced_{part}.npy"):
            TopKIndex.open(tmp_path)
