"""InfluenceService routing, index persistence, telemetry, and the CLI."""

import json
import re

import numpy as np
import pytest

from repro.core.embeddings import InfluenceEmbedding
from repro.errors import ServingError
from repro.obs import RunRecorder, recording, render_prometheus
from repro.serve import (
    EmbeddingStore,
    InfluenceService,
    TopKEngine,
    TopKIndex,
)
from repro.serve.index import INDEX_FORMAT_VERSION
from tests.oracles import brute_force_topk


@pytest.fixture
def embedding() -> InfluenceEmbedding:
    rng = np.random.default_rng(21)
    return InfluenceEmbedding(
        rng.normal(size=(40, 6)),
        rng.normal(size=(40, 6)),
        rng.normal(size=40),
        rng.normal(size=40),
    )


@pytest.fixture
def store_dir(embedding, tmp_path):
    EmbeddingStore.save(embedding, tmp_path / "store")
    return tmp_path / "store"


class TestTopKIndex:
    @pytest.mark.parametrize("direction", ["influenced", "influencers"])
    def test_build_matches_brute_force(self, embedding, direction):
        engine = TopKEngine(embedding, block_size=8)
        index = TopKIndex.build(engine, k=7, direction=direction)
        for user in range(embedding.num_users):
            from_index = index.query(user)
            ref_idx, ref_scores = brute_force_topk(embedding, user, 7, direction)
            np.testing.assert_array_equal(from_index.indices, ref_idx)
            np.testing.assert_array_equal(from_index.scores, ref_scores)

    @pytest.mark.parametrize("direction", ["influenced", "influencers"])
    def test_batch_boundaries_leave_every_bit_unchanged(
        self, embedding, direction
    ):
        engine = TopKEngine(embedding, block_size=8)
        index = TopKIndex.build(engine, k=7, direction=direction)
        query = (
            engine.top_influenced_batch
            if direction == "influenced"
            else engine.top_influencers_batch
        )
        for bounds in ([0, 1, 10, 23, 40], [0, 9, 18, 27, 36, 40]):
            for start, stop in zip(bounds, bounds[1:]):
                batch = query(np.arange(start, stop), 7)
                np.testing.assert_array_equal(
                    batch.indices, index.indices[start:stop]
                )
                np.testing.assert_array_equal(
                    batch.scores, index.scores[start:stop]
                )

    def test_round_trip_is_mmapped_and_identical(self, embedding, store_dir):
        engine = TopKEngine(embedding, block_size=8)
        built = TopKIndex.build(engine, k=5, direction="influencers")
        built.save(store_dir)
        opened = TopKIndex.open(store_dir, "influencers")
        assert isinstance(opened.indices, np.memmap)
        assert not opened.indices.flags.writeable
        np.testing.assert_array_equal(opened.indices, built.indices)
        np.testing.assert_array_equal(opened.scores, built.scores)

    def test_index_format_version_round_trips(self, embedding, store_dir):
        built = TopKIndex.build(TopKEngine(embedding), k=3)
        built.save(store_dir)
        manifest_path = store_dir / "topk_influenced.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == INDEX_FORMAT_VERSION == 1
        reopened = TopKIndex.open(store_dir)
        np.testing.assert_array_equal(reopened.indices, built.indices)
        # A manifest from another format version is refused.
        manifest["format_version"] = INDEX_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ServingError, match="format_version"):
            TopKIndex.open(store_dir)

    def test_index_of_a_resaved_store_is_refused(self, tmp_path):
        # A store re-saved into its directory must not keep serving the
        # top-k index precomputed from the previous embedding.
        first = InfluenceEmbedding.initialize(50, 4, seed=1)
        second = InfluenceEmbedding.initialize(50, 4, seed=2)
        EmbeddingStore.save(first, tmp_path)
        InfluenceService.open(tmp_path).precompute(5)
        EmbeddingStore.save(second, tmp_path)
        with pytest.raises(ServingError, match="stale"):
            InfluenceService.open(tmp_path)
        # Rebuilding the index against the new store serves it again.
        TopKIndex.build(TopKEngine(second), k=5).save(tmp_path)
        service = InfluenceService.open(tmp_path)
        assert "influenced" in service.indices
        np.testing.assert_array_equal(
            service.top_influenced(0, 5).indices,
            TopKEngine(second).top_influenced(0, 5).indices,
        )

    def test_query_depth_validation(self, embedding):
        index = TopKIndex.build(TopKEngine(embedding), k=5)
        with pytest.raises(ServingError, match="depth"):
            index.query(0, 6)
        with pytest.raises(ServingError):
            index.query(40)

    def test_open_missing_raises(self, store_dir):
        assert not TopKIndex.exists(store_dir)
        with pytest.raises(ServingError, match="no persisted"):
            TopKIndex.open(store_dir)

    def test_k_clamped_to_num_users(self, embedding):
        index = TopKIndex.build(TopKEngine(embedding), k=10_000)
        assert index.k == embedding.num_users


class TestInfluenceService:
    def test_scan_path_matches_brute_force(self, embedding, store_dir):
        service = InfluenceService.open(store_dir, block_size=8)
        for direction, query in (
            ("influenced", service.top_influenced),
            ("influencers", service.top_influencers),
        ):
            for user in (0, 4, 39):
                got = query(user, 6)
                ref_idx, ref_scores = brute_force_topk(
                    embedding, user, 6, direction
                )
                np.testing.assert_array_equal(got.indices, ref_idx)
                np.testing.assert_array_equal(got.scores, ref_scores)

    def test_index_and_scan_paths_bitwise_identical(self, store_dir):
        service = InfluenceService.open(store_dir, block_size=8)
        scan = service.top_influenced(11, 6)
        service.precompute(k=10, directions=("influenced",))
        assert "influenced" in service.indices
        indexed = service.top_influenced(11, 6)
        np.testing.assert_array_equal(indexed.indices, scan.indices)
        np.testing.assert_array_equal(indexed.scores, scan.scores)

    def test_persisted_index_discovered_on_open(self, store_dir):
        InfluenceService.open(store_dir).precompute(
            k=4, directions=("influenced", "influencers")
        )
        reopened = InfluenceService.open(store_dir)
        assert sorted(reopened.indices) == ["influenced", "influencers"]
        # Deeper-than-index queries fall back to the scan path.
        deep = reopened.top_influenced(0, 20)
        assert deep.k == 20

    def test_batched_queries(self, embedding, store_dir):
        service = InfluenceService.open(store_dir, block_size=8)
        users = [1, 2, 3]
        batch = service.top_influencers_batch(users, 5)
        engine = TopKEngine(embedding, block_size=8)
        ref = engine.top_influencers_batch(users, 5)
        np.testing.assert_array_equal(batch.indices, ref.indices)
        np.testing.assert_array_equal(batch.scores, ref.scores)
        service.precompute(k=5, directions=("influencers",))
        indexed = service.top_influencers_batch(users, 5)
        np.testing.assert_array_equal(indexed.indices, ref.indices)
        np.testing.assert_array_equal(indexed.scores, ref.scores)

    def test_queries_recorded_into_ambient_metrics(self, store_dir):
        service = InfluenceService.open(store_dir)
        run = RunRecorder(name="test.serve")
        with recording(run):
            service.top_influenced(0, 3)
            service.precompute(k=3, directions=("influenced",))
            service.top_influenced(1, 3)
        snapshot = run.metrics.snapshot()
        assert "serve.queries" in snapshot
        samples = snapshot["serve.queries"]["samples"]
        assert samples.get("direction=influenced,path=scan") == 1.0
        assert samples.get("direction=influenced,path=index") == 1.0
        assert "serve.query.seconds" in snapshot
        span_names = [s["name"] for s in run.tracer.to_dicts()]
        assert "serve.precompute.influenced" in span_names

    def test_no_metrics_outside_recording_scope(self, store_dir):
        service = InfluenceService.open(store_dir)
        result = service.top_influenced(0, 3)  # must simply not raise
        assert result.k == 3

    def test_latency_summary_recorded(self, store_dir):
        service = InfluenceService.open(store_dir)
        run = RunRecorder(name="test.serve")
        with recording(run):
            for user in range(5):
                service.top_influenced(user, 3)
        snapshot = run.metrics.snapshot()
        queries = snapshot["serve.queries"]["samples"]
        assert queries == {"direction=influenced,path=scan": 5.0}
        (key, sample), = snapshot["serve.query.seconds"]["samples"].items()
        assert key == "direction=influenced,path=scan"
        assert sample["count"] == 5 and sample["sum"] > 0.0
        text = render_prometheus(snapshot)
        assert "serve_query_seconds_bucket" in text
        assert not any(
            line.startswith("# TYPE") and line.endswith(" summary")
            for line in text.splitlines()
        )

    def test_user_out_of_range_raises_and_counts(self, store_dir):
        service = InfluenceService.open(store_dir)
        run = RunRecorder(name="test.serve")
        with recording(run):
            with pytest.raises(ServingError, match="universe"):
                service.top_influenced(40, 3)
            with pytest.raises(ServingError, match="universe"):
                service.top_influencers(-1, 3)
        samples = run.metrics.snapshot()["serve.query.errors"]["samples"]
        assert samples == {
            "direction=influenced,error=ServingError": 1.0,
            "direction=influencers,error=ServingError": 1.0,
        }

    def test_successful_queries_count_no_errors(self, store_dir):
        service = InfluenceService.open(store_dir)
        run = RunRecorder(name="test.serve")
        with recording(run):
            service.top_influenced(0, 3)
        assert "serve.query.errors" not in run.metrics.snapshot()


def _printed_users(out: str) -> list[int]:
    """The ranked user ids a ``serve --query`` invocation printed."""
    return [int(user) for user in re.findall(r"\d+\. user (\d+)", out)]


class TestServeCli:
    def test_build_index_query_pipeline(self, embedding, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        EmbeddingStore.save(embedding, store)
        assert (
            main(
                [
                    "serve",
                    "--store-dir",
                    str(store),
                    "--precompute-k",
                    "5",
                    "--query",
                    "3",
                    "--top-k",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "precomputed top-5" in out
        assert "top 5 users influenced by user 3" in out
        assert _printed_users(out) == list(
            TopKEngine(embedding).top_influenced(3, 5).indices
        )
        # Second invocation: query only, from the persisted artifacts.
        assert (
            main(
                [
                    "serve",
                    "--store-dir",
                    str(store),
                    "--query",
                    "3",
                    "--direction",
                    "influencers",
                ]
            )
            == 0
        )
        assert "influencing user 3" in capsys.readouterr().out

    def test_precompute_replaces_index_of_a_resaved_store(
        self, tmp_path, capsys
    ):
        """``--precompute-k`` rebuilds the stale index its error names."""
        from repro.cli import main

        first = InfluenceEmbedding.initialize(50, 4, seed=1)
        second = InfluenceEmbedding.initialize(50, 4, seed=2)
        EmbeddingStore.save(first, tmp_path)
        InfluenceService.open(tmp_path).precompute(5)
        EmbeddingStore.save(second, tmp_path)
        serve = ["serve", "--store-dir", str(tmp_path), "--top-k", "5"]
        assert main(serve + ["--precompute-k", "5", "--query", "3"]) == 0
        expected = list(TopKEngine(second).top_influenced(3, 5).indices)
        assert _printed_users(capsys.readouterr().out) == expected
        # The rebuilt index is current: a plain open serves from it.
        assert main(serve + ["--query", "3"]) == 0
        assert _printed_users(capsys.readouterr().out) == expected
        assert "influenced" in InfluenceService.open(tmp_path).indices

    def test_precompute_rebuilds_every_persisted_direction(
        self, tmp_path, capsys
    ):
        """After ``--precompute-k`` the directory holds no stale index."""
        from repro.cli import main

        first = InfluenceEmbedding.initialize(50, 4, seed=1)
        second = InfluenceEmbedding.initialize(50, 4, seed=2)
        EmbeddingStore.save(first, tmp_path)
        InfluenceService(EmbeddingStore.open(tmp_path)).precompute(
            5, directions=("influenced", "influencers")
        )
        EmbeddingStore.save(second, tmp_path)
        serve = ["serve", "--store-dir", str(tmp_path), "--query", "0"]
        assert main(serve + ["--precompute-k", "5"]) == 0
        precompute_out = capsys.readouterr().out
        # A plain open finds both indices current and serves from them.
        assert main(serve) == 0
        expected = list(TopKEngine(second).top_influenced(0, 10).indices)
        assert _printed_users(capsys.readouterr().out) == expected
        assert "precomputed top-5 influenced index" in precompute_out
        assert "precomputed top-5 influencers index" in precompute_out
        service = InfluenceService.open(tmp_path)
        assert sorted(service.indices) == ["influenced", "influencers"]
        for direction, index in service.indices.items():
            ref_idx, ref_scores = brute_force_topk(second, 3, 5, direction)
            np.testing.assert_array_equal(index.query(3).indices, ref_idx)
            np.testing.assert_array_equal(index.query(3).scores, ref_scores)

    def test_precompute_builds_no_index_that_was_not_persisted(
        self, embedding, tmp_path, capsys
    ):
        from repro.cli import main

        EmbeddingStore.save(embedding, tmp_path)
        serve = ["serve", "--store-dir", str(tmp_path), "--precompute-k", "3"]
        assert main(serve + ["--direction", "influencers"]) == 0
        assert "influenced index" not in capsys.readouterr().out
        assert TopKIndex.exists(tmp_path, "influencers")
        assert not TopKIndex.exists(tmp_path, "influenced")

    def test_train_serve_retrain_serve(self, tmp_path, capsys):
        """Training into a served store twice keeps ``serve`` working."""
        from repro.cli import main

        store = tmp_path / "store"
        train = [
            "train",
            "--num-users", "40",
            "--num-items", "8",
            "--dim", "4",
            "--epochs", "2",
            "--store-dir", str(store),
        ]
        serve = ["serve", "--store-dir", str(store)]
        assert main(train + ["--seed", "1"]) == 0
        assert main(serve + ["--precompute-k", "5", "--query", "3"]) == 0
        capsys.readouterr()
        assert main(train + ["--seed", "2"]) == 0
        assert main(serve + ["--precompute-k", "5"]) == 0
        capsys.readouterr()
        assert main(serve + ["--query", "3", "--top-k", "5"]) == 0
        expected = TopKEngine(EmbeddingStore.open(store)).top_influenced(3, 5)
        assert _printed_users(capsys.readouterr().out) == list(
            expected.indices
        )
        assert InfluenceService.open(store).indices["influenced"].k == 5

    def test_serve_requires_store_dir(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve"])

    def test_serve_status_line(self, embedding, tmp_path, capsys):
        from repro.cli import main

        EmbeddingStore.save(embedding, tmp_path / "s")
        assert main(["serve", "--store-dir", str(tmp_path / "s")]) == 0
        assert "opened store" in capsys.readouterr().out


class TestKValidation:
    """Regression pins for k/user validation across both query paths.

    Before the fix only the single-query ``user`` was range-checked:
    ``k > num_users`` failed only when routing happened to pick the
    scan, batched queries accepted negative user ids (numpy indexing
    silently wrapped them to the wrong rows), and none of these
    rejections were counted as errors.
    """

    def _indexed_service(self, store_dir, k=5):
        service = InfluenceService.open(store_dir)
        service.precompute(k, directions=("influenced",))
        return service

    def test_k_above_num_users_rejected_on_scan_path(self, store_dir):
        service = InfluenceService.open(store_dir)
        with pytest.raises(ServingError, match="k must be an integer in"):
            service.top_influenced(0, 41)

    def test_k_above_num_users_rejected_on_index_path(self, store_dir):
        service = self._indexed_service(store_dir)
        with pytest.raises(ServingError, match="k must be an integer in"):
            service.top_influenced(0, 999)

    def test_k_rejection_identical_across_paths(self, store_dir):
        plain = InfluenceService.open(store_dir)
        indexed = self._indexed_service(store_dir)
        with pytest.raises(ServingError) as scan_error:
            plain.top_influenced(0, 50)
        with pytest.raises(ServingError) as index_error:
            indexed.top_influenced(0, 50)
        assert str(scan_error.value) == str(index_error.value)

    def test_batch_rejects_bad_k_on_both_paths(self, store_dir):
        plain = InfluenceService.open(store_dir)
        indexed = self._indexed_service(store_dir)
        for service in (plain, indexed):
            with pytest.raises(ServingError, match="k must be an integer in"):
                service.top_influenced_batch([0, 1], 41)

    @pytest.mark.parametrize("bad_k", [0, -3])
    def test_non_positive_k_rejected(self, store_dir, bad_k):
        service = InfluenceService.open(store_dir)
        with pytest.raises(ServingError, match="k must be an integer in"):
            service.top_influencers(0, bad_k)

    #: One bad input each, as ``(users, k)``; the store has 40 users.
    BAD_REQUESTS = {
        "user=-1": (-1, 3),
        "user=N": (40, 3),
        "user=2**63": (2**63, 3),
        "empty-batch": ([], 3),
        "2-D-batch": ([[0, 1]], 3),
        "k=0": (0, 0),
        "k=N+1": (0, 41),
    }

    @pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
    def test_one_text_from_every_entry_point(self, store_dir, case):
        """Every entry point refuses a bad request with the same text."""
        users, k = self.BAD_REQUESTS[case]
        batch = users if isinstance(users, list) else [users]
        # Opened before the index is persisted, so it has none and scans.
        scan = InfluenceService.open(store_dir)
        indexed = self._indexed_service(store_dir)
        index = indexed.indices["influenced"]
        entry_points = {
            "service-index": lambda: indexed.top_influenced(users, k),
            "service-scan": lambda: scan.top_influenced(users, k),
            "service-index-batch": lambda: indexed.top_influenced_batch(batch, k),
            "service-scan-batch": lambda: scan.top_influenced_batch(batch, k),
            "engine": lambda: scan.engine.top_influenced(users, k),
            "engine-batch": lambda: scan.engine.top_influenced_batch(batch, k),
            "index": lambda: index.query(users, k),
        }
        texts = {}
        run = RunRecorder(name="test.serve")
        with recording(run):
            for name, call in entry_points.items():
                with pytest.raises(ServingError) as error:
                    call()
                texts[name] = str(error.value)
        assert len(set(texts.values())) == 1, texts
        samples = run.metrics.snapshot()["serve.query.errors"]["samples"]
        assert samples == {"direction=influenced,error=ServingError": 4.0}

    def test_k_rejections_are_counted(self, store_dir):
        service = InfluenceService.open(store_dir)
        run = RunRecorder(name="test.serve")
        with recording(run):
            with pytest.raises(ServingError):
                service.top_influenced(0, 41)
            with pytest.raises(ServingError):
                service.top_influencers(0, 0)
        samples = run.metrics.snapshot()["serve.query.errors"]["samples"]
        assert samples == {
            "direction=influenced,error=ServingError": 1.0,
            "direction=influencers,error=ServingError": 1.0,
        }

    def test_batch_rejections_are_counted(self, store_dir):
        service = InfluenceService.open(store_dir)
        run = RunRecorder(name="test.serve")
        with recording(run):
            with pytest.raises(ServingError):
                service.top_influencers_batch([-1], 3)
        samples = run.metrics.snapshot()["serve.query.errors"]["samples"]
        assert samples == {"direction=influencers,error=ServingError": 1.0}

    def test_valid_k_equal_num_users_still_served(self, store_dir):
        service = InfluenceService.open(store_dir)
        result = service.top_influenced(0, 40)
        assert result.indices.shape == (40,)
