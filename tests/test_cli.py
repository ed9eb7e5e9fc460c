"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.serve import EmbeddingStore


class TestParser:
    def test_experiment_choices_cover_registry(self):
        parser = build_parser()
        args = parser.parse_args(["table2"])
        assert args.experiment == "table2"
        assert args.scale == "small"
        assert args.seed == 0

    def test_all_is_accepted(self):
        args = build_parser().parse_args(["all", "--scale", "medium", "--seed", "7"])
        assert args.experiment == "all"
        assert args.scale == "medium"
        assert args.seed == 7

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_registry_covers_all_paper_artifacts(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig1-2", "fig3", "table2", "table3", "table4",
            "table5", "fig6", "fig7", "fig8", "fig9", "table6", "sigma",
        }


class TestMain:
    def test_list_flag(self, capsys):
        exit_code = main(["table1", "--list"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "fig9" in out

    def test_runs_single_experiment(self, capsys, monkeypatch):
        calls = []
        # Replace the runner so the test stays fast.
        monkeypatch.setitem(
            EXPERIMENTS,
            "table1",
            (
                "Table I — dataset statistics",
                lambda scale, seed: calls.append((scale, seed)),
            ),
        )
        exit_code = main(["table1", "--scale", "small", "--seed", "3"])
        assert exit_code == 0
        assert calls == [("small", 3)]
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_telemetry_flags_write_manifest_and_trace(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setitem(
            EXPERIMENTS,
            "table1",
            ("Table I — dataset statistics", lambda scale, seed: None),
        )
        telemetry_dir = tmp_path / "tele"
        exit_code = main(["table1", "--telemetry-dir", str(telemetry_dir)])
        assert exit_code == 0
        capsys.readouterr()

        import json

        manifest = json.loads((telemetry_dir / "manifest.json").read_text())
        assert manifest["name"] == "table1"
        assert manifest["annotations"] == {"scale": "small", "seed": 0}
        assert [s["name"] for s in manifest["spans"]] == ["experiment.table1"]
        rows = [
            json.loads(line)
            for line in (telemetry_dir / "trace.jsonl").read_text().splitlines()
        ]
        assert rows[0]["name"] == "experiment.table1"

    def test_telemetry_dir_exports_exposition_snapshot(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setitem(
            EXPERIMENTS,
            "table1",
            ("Table I — dataset statistics", lambda scale, seed: None),
        )
        telemetry_dir = tmp_path / "tele"
        exit_code = main(
            ["table1", "--telemetry-dir", str(telemetry_dir)]
        )
        assert exit_code == 0
        capsys.readouterr()

        import json

        assert sorted(p.name for p in telemetry_dir.iterdir()) == [
            "manifest.json",
            "metrics.prom",
            "trace.jsonl",
        ]
        manifest = json.loads((telemetry_dir / "manifest.json").read_text())
        assert manifest["name"] == "table1"
        exposition = (telemetry_dir / "metrics.prom").read_text()
        assert exposition == "" or "# TYPE" in exposition

    def test_no_telemetry_flags_no_files(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setitem(
            EXPERIMENTS,
            "table1",
            ("Table I — dataset statistics", lambda scale, seed: None),
        )
        assert main(["table1"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


class TestTrainCommand:
    TINY = [
        "train",
        "--num-users", "40",
        "--num-items", "8",
        "--dim", "4",
        "--epochs", "2",
        "--seed", "1",
    ]

    def test_train_args_parse(self):
        args = build_parser().parse_args(
            ["train", "--checkpoint-dir", "d", "--checkpoint-every", "5"]
        )
        assert args.experiment == "train"
        assert args.checkpoint_dir == "d"
        assert args.checkpoint_every == 5
        assert args.checkpoint_keep == 3
        assert not args.resume

    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--resume"])
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_end_to_end_train_writes_checkpoints_and_embedding(
        self, capsys, tmp_path
    ):
        ckpt_dir = tmp_path / "ckpts"
        store_dir = tmp_path / "store"
        exit_code = main(
            self.TINY
            + [
                "--checkpoint-dir", str(ckpt_dir),
                "--store-dir", str(store_dir),
            ]
        )
        assert exit_code == 0
        assert "final loss" in capsys.readouterr().out
        store = EmbeddingStore.open(store_dir)
        assert (store.num_users, store.dim) == (40, 4)
        assert any(p.name.startswith("ckpt-") for p in ckpt_dir.iterdir())

    def test_train_then_resume_reports_checkpoint(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        assert main(self.TINY + ["--checkpoint-dir", str(ckpt_dir)]) == 0
        capsys.readouterr()
        assert main(
            self.TINY + ["--checkpoint-dir", str(ckpt_dir), "--resume"]
        ) == 0
        assert "resuming from checkpoint" in capsys.readouterr().out

    def test_resume_warns_of_retired_checkpoints(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        (ckpt_dir / "ckpt-00000001.npz").write_bytes(b"old format")
        assert main(
            self.TINY + ["--checkpoint-dir", str(ckpt_dir), "--resume"]
        ) == 0
        captured = capsys.readouterr()
        assert "starting fresh" in captured.out
        assert captured.err.count("retired single-file .npz") == 1
        assert "ckpt-00000001.npz" in captured.err

    def test_train_on_text_dataset_writes_store(self, capsys, tmp_path):
        from repro.data import write_action_log, write_edge_list
        from repro.data.synthetic import SyntheticSocialDataset

        dataset = SyntheticSocialDataset.digg_like(
            num_users=40, num_items=8, seed=1
        )
        edges, actions = tmp_path / "edges.txt", tmp_path / "votes.txt"
        write_edge_list(dataset.graph, edges)
        write_action_log(dataset.log, actions)
        store_dir = tmp_path / "store"
        assert main(
            [
                "train", "--dataset", str(edges), str(actions),
                "--epochs", "1", "--dim", "4", "--store-dir", str(store_dir),
            ]
        ) == 0
        assert "over 1 epochs on 40 users" in capsys.readouterr().out
        store = EmbeddingStore.open(store_dir)
        assert (store.num_users, store.dim) == (40, 4)

    def test_train_records_checkpoint_telemetry(self, capsys, tmp_path):
        import json

        telemetry_dir = tmp_path / "tele"
        exit_code = main(
            self.TINY
            + [
                "--checkpoint-dir", str(tmp_path / "ckpts"),
                "--telemetry-dir", str(telemetry_dir),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        manifest = json.loads((telemetry_dir / "manifest.json").read_text())
        counters = manifest["metrics"]
        assert "ckpt.saves" in counters
        assert "ckpt.write_seconds" in counters


class TestInfluenceMaxCommand:
    TINY = [
        "influence-max", "--num-users", "60", "--num-items", "12",
        "--num-seeds", "3", "--eval-runs", "30", "--seed", "1",
    ]

    def test_args_parse_with_defaults(self):
        args = build_parser().parse_args(["influence-max"])
        assert args.preset == "digg"
        assert args.num_seeds == 10

    def test_ris_end_to_end(self, capsys):
        assert main(self.TINY) == 0
        out = capsys.readouterr().out
        assert "ris selected 3 seeds" in out
        assert "MC-evaluated spread" in out

    def test_flickr_preset_and_no_eval(self, capsys):
        assert main(
            self.TINY + ["--preset", "flickr", "--eval-runs", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "flickr preset" in out
        assert "MC-evaluated" not in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--epsilon", "1.5"),
            ("--epsilon", "0"),
            ("--max-sketches", "0"),
            ("--num-seeds", "0"),
            ("--num-seeds", "5000"),
            ("--eval-runs", "-1"),
        ],
    )
    def test_bad_numbers_are_usage_errors(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(self.TINY + [flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err

    def test_same_seed_same_seeds_printed(self, capsys):
        main(self.TINY)
        first = capsys.readouterr().out
        main(self.TINY)
        second = capsys.readouterr().out
        seeds = [l for l in first.splitlines() if l.startswith("  seeds:")]
        assert seeds == [
            l for l in second.splitlines() if l.startswith("  seeds:")
        ]


class TestServeErrors:
    """A bad ``serve`` request is one line on stderr and status 2."""

    @pytest.mark.parametrize(
        "store, flags, message",
        [
            ("store", ["--query", "999"], "user 999 outside served universe [0, 40)"),
            ("store", ["--query", "0", "--top-k", "0"], "k must be an integer in [1, 40]"),
            ("missing", [], "not an embedding store"),
        ],
        ids=["query-outside-universe", "top-k-zero", "missing-store"],
    )
    def test_bad_request_is_one_line(
        self, capsys, tmp_path, store, flags, message
    ):
        from repro.core.embeddings import InfluenceEmbedding

        EmbeddingStore.save(
            InfluenceEmbedding.initialize(40, 4, seed=1), tmp_path / "store"
        )
        assert main(["serve", "--store-dir", str(tmp_path / store), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err
