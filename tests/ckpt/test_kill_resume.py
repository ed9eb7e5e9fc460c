"""Kill-and-resume smoke test: SIGKILL a real training process mid-run.

This is the end-to-end version of the resume-equivalence property: a
``repro.cli train`` subprocess is killed with SIGKILL (no cleanup
handlers, exactly like the OOM-killer or a power cut), then rerun with
``--resume``.  The recovered run must produce an embedding bitwise
identical to an uninterrupted reference run, and the checkpoint
directory must never contain a torn file at a final destination.

The equivalence holds regardless of kill timing: killed before the
first checkpoint lands the resume starts fresh; killed after completion
the resume restores the terminal state — both still match the
reference.  That makes the test race-free by construction.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt.manager import _CKPT_PATTERN
from repro.serve import EmbeddingStore

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

TRAIN_ARGS = [
    "train",
    "--num-users", "100",
    "--num-items", "15",
    "--dim", "8",
    "--epochs", "10",
    "--seed", "0",
]


def _run_cli(extra, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *TRAIN_ARGS, *extra],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _spawn_cli(extra, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *TRAIN_ARGS, *extra],
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_first_checkpoint(ckpt_dir: Path, proc, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if ckpt_dir.is_dir() and any(
            _CKPT_PATTERN.match(p.name) for p in ckpt_dir.iterdir()
        ):
            return
        if proc.poll() is not None:
            return  # process finished before we caught it — still fine
        time.sleep(0.01)
    pytest.fail("no checkpoint appeared within the timeout")


def test_sigkill_mid_run_resumes_to_identical_embedding(tmp_path):
    reference = _run_cli(["--store-dir", str(tmp_path / "ref")], tmp_path)
    assert reference.returncode == 0, reference.stderr

    ckpt_dir = tmp_path / "ckpts"
    victim = _spawn_cli(
        ["--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "1"],
        tmp_path,
    )
    try:
        _wait_for_first_checkpoint(ckpt_dir, victim)
        if victim.poll() is None:
            os.kill(victim.pid, signal.SIGKILL)
    finally:
        victim.wait(timeout=30)

    # No torn file may sit at a final destination: everything matching
    # the checkpoint name pattern must load cleanly.
    from repro.ckpt import TrainingState

    committed = [
        p for p in ckpt_dir.iterdir() if _CKPT_PATTERN.match(p.name)
    ]
    for path in committed:
        TrainingState.load(path)  # raises CheckpointError on corruption

    resumed = _run_cli(
        [
            "--checkpoint-dir", str(ckpt_dir),
            "--checkpoint-every", "1",
            "--resume",
            "--store-dir", str(tmp_path / "resumed"),
        ],
        tmp_path,
    )
    assert resumed.returncode == 0, resumed.stderr

    ref = EmbeddingStore.open(tmp_path / "ref")
    got = EmbeddingStore.open(tmp_path / "resumed")
    for key in ("source", "target", "source_bias", "target_bias"):
        np.testing.assert_array_equal(
            getattr(got, key), getattr(ref, key), err_msg=key
        )
