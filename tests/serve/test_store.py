"""EmbeddingStore round-trip, mmap semantics, and corruption handling."""

import dataclasses
import json

import numpy as np
import pytest

from repro.ckpt import TrainingState
from repro.core.embeddings import InfluenceEmbedding
from repro.errors import CheckpointError, ServingError
from repro.serve import (
    STORE_FORMAT_VERSION,
    STORE_MANIFEST_FILENAME,
    EmbeddingStore,
    InfluenceService,
    TopKEngine,
    TopKIndex,
)

#: Ways a persisted ``.npy`` shard gets damaged on disk.
DAMAGES = {
    "truncated": lambda raw: raw[: len(raw) // 2],
    "zeroed": lambda raw: bytes(len(raw)),
    "emptied": lambda raw: b"",
}


#: Ways a persisted JSON manifest gets damaged on disk.
MANIFEST_DAMAGES = {
    "non-utf8": lambda raw: b"\xff\xfe" + raw,
    "not-an-object": lambda raw: b"[]",
}

#: Each manifest, the integer fields it declares, and the entry points
#: that read it.
MANIFESTS = {
    STORE_MANIFEST_FILENAME: ("num_users", "dim"),
    "topk_influenced.json": ("num_users", "k"),
}
MANIFEST_READERS = [
    (STORE_MANIFEST_FILENAME, EmbeddingStore.open),
    (STORE_MANIFEST_FILENAME, InfluenceService.open),
    ("topk_influenced.json", TopKIndex.open),
    ("topk_influenced.json", InfluenceService.open),
]


def _reader_id(value):
    return getattr(value, "__qualname__", value)


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

    def test_save_hashes_once_and_open_verifies(
        self, embedding, tmp_path, monkeypatch
    ):
        from repro.serve import store as store_module

        hashed = []
        real = store_module.content_digest

        def counting(arrays):
            hashed.append(1)
            return real(arrays)

        monkeypatch.setattr(store_module, "content_digest", counting)
        saved = EmbeddingStore.save(embedding, tmp_path)
        assert len(hashed) == 1
        assert isinstance(saved.source, np.memmap)
        np.testing.assert_array_equal(saved.target, embedding.target)
        EmbeddingStore.open(tmp_path)
        assert len(hashed) == 2

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
    """A damaged shard or manifest raises ServingError naming it, never
    numpy's, json's or a builtin error."""

    @pytest.fixture
    def indexed(self, embedding, tmp_path):
        """A store with a persisted ``influenced`` index beside it."""
        EmbeddingStore.save(embedding, tmp_path)
        InfluenceService.open(tmp_path).precompute(5)
        return tmp_path

    @pytest.mark.parametrize("how", sorted(MANIFEST_DAMAGES))
    @pytest.mark.parametrize(
        "manifest, reader", MANIFEST_READERS, ids=_reader_id
    )
    def test_damaged_manifest(self, indexed, manifest, reader, how):
        path = indexed / manifest
        path.write_bytes(MANIFEST_DAMAGES[how](path.read_bytes()))
        with pytest.raises(ServingError, match=manifest):
            reader(indexed)

    @pytest.mark.parametrize(
        "manifest, reader", MANIFEST_READERS, ids=_reader_id
    )
    def test_non_integer_manifest_field(self, indexed, manifest, reader):
        path = indexed / manifest
        original = json.loads(path.read_text())
        for field in MANIFESTS[manifest]:
            damaged = dict(original, **{field: "eight"})
            path.write_text(json.dumps(damaged))
            with pytest.raises(ServingError, match=f"{manifest}.*{field}"):
                reader(indexed)

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


#: Every persisted file of a store with an ``influenced`` index, and the
#: reader that opens it.
PERSISTED_FILES = {
    "source.npy": EmbeddingStore.open,
    "target.npy": EmbeddingStore.open,
    "source_bias.npy": EmbeddingStore.open,
    "target_bias.npy": EmbeddingStore.open,
    STORE_MANIFEST_FILENAME: EmbeddingStore.open,
    "topk_influenced_ids.npy": TopKIndex.open,
    "topk_influenced_scores.npy": TopKIndex.open,
    "topk_influenced.json": TopKIndex.open,
}


def _flip_offsets(size: int) -> list[int]:
    """Every byte of the first 128 (a whole ``.npy`` header, or the head
    of a manifest) and 64 spread over the whole file."""
    spread = np.linspace(0, size - 1, 64).astype(int).tolist()
    return sorted(set(range(min(size, 128))) | set(spread))


class TestByteFlips:
    """One flipped bit in any persisted file raises ServingError or
    leaves the opened data equal to what was saved."""

    @pytest.mark.parametrize("filename", sorted(PERSISTED_FILES))
    def test_flip_raises_or_loads_equal_data(self, embedding, tmp_path, filename):
        EmbeddingStore.save(embedding, tmp_path)
        index = TopKIndex.build(TopKEngine(embedding), k=5)
        index.save(tmp_path)
        reader = PERSISTED_FILES[filename]
        if reader == TopKIndex.open:
            expected = {"indices": index.indices, "scores": index.scores}
        else:
            expected = {
                name: getattr(embedding, name)
                for name in ("source", "target", "source_bias", "target_bias")
            }
        path = tmp_path / filename
        original = path.read_bytes()
        silent = []
        for offset in _flip_offsets(len(original)):
            damaged = bytearray(original)
            damaged[offset] ^= 1 << (offset % 8)
            path.write_bytes(bytes(damaged))
            try:
                opened = reader(tmp_path)
            except ServingError:
                continue
            for name, array in expected.items():
                loaded = getattr(opened, name)
                if loaded.dtype != array.dtype or not np.array_equal(loaded, array):
                    silent.append(offset)
            del opened
        path.write_bytes(original)
        assert silent == [], f"{filename}: flips at {silent} load changed data"
        reader(tmp_path)  # the restored file opens again

    @pytest.mark.parametrize(
        "filename", sorted(f for f in PERSISTED_FILES if f.endswith(".npy"))
    )
    def test_byte_order_flip_is_refused(self, embedding, tmp_path, filename):
        # '<' and '>' differ in one bit; the bytes would hash the same
        # but read as other numbers.
        EmbeddingStore.save(embedding, tmp_path)
        TopKIndex.build(TopKEngine(embedding), k=5).save(tmp_path)
        path = tmp_path / filename
        raw = path.read_bytes()
        assert raw.count(b"'<") == 1
        path.write_bytes(raw.replace(b"'<", b"'>"))
        with pytest.raises(ServingError, match=filename):
            PERSISTED_FILES[filename](tmp_path)


#: Every file in one checkpoint directory: a store plus its state.
CHECKPOINT_FILES = sorted(
    [f for f in PERSISTED_FILES if not f.startswith("topk_")] + ["state.json"]
)


def _rng_state(seed: int) -> dict:
    return np.random.default_rng(seed).bit_generator.state


class TestCheckpointByteFlips:
    """One flipped bit in any file of a checkpoint directory raises
    CheckpointError or loads a state equal in every field."""

    @pytest.fixture
    def state(self, embedding) -> TrainingState:
        return TrainingState(
            source=embedding.source,
            target=embedding.target,
            source_bias=embedding.source_bias,
            target_bias=embedding.target_bias,
            epoch=2,
            loss_history=(0.91, 0.72, 0.6375),
            config_fingerprint="9f86d081884c7d65",
            rng_state=_rng_state(1),
            entry_rng_state=_rng_state(0),
            worker_topology={
                "workers": 2,
                "entry_rng_states": [_rng_state(2), _rng_state(3)],
                "rng_states": [_rng_state(4), _rng_state(5)],
            },
        )

    def test_sweep_covers_every_file(self, state, tmp_path):
        path = state.save(tmp_path / "ckpt-00000002")
        assert sorted(p.name for p in path.iterdir()) == CHECKPOINT_FILES

    @pytest.mark.parametrize("filename", CHECKPOINT_FILES)
    def test_flip_raises_or_loads_equal_state(self, state, tmp_path, filename):
        path = state.save(tmp_path / "ckpt-00000002")
        target = path / filename
        original = target.read_bytes()
        silent = []
        for offset in _flip_offsets(len(original)):
            damaged = bytearray(original)
            damaged[offset] ^= 1 << (offset % 8)
            target.write_bytes(bytes(damaged))
            try:
                loaded = TrainingState.load(path)
            except CheckpointError:
                continue
            for field in dataclasses.fields(TrainingState):
                got, want = getattr(loaded, field.name), getattr(state, field.name)
                if isinstance(want, np.ndarray):
                    equal = got.dtype == want.dtype and np.array_equal(got, want)
                else:
                    equal = got == want
                if not equal:
                    silent.append(offset)
        target.write_bytes(original)
        assert silent == [], f"{filename}: flips at {silent} load changed data"
        TrainingState.load(path)  # the restored file loads again
