"""SIGKILL failure injection against a live multi-worker training run.

The hardest crash the parallel engine must survive: the *parent* is
SIGKILL'd while its hogwild workers are alive and mid-epoch.  Three
things must hold afterwards:

* the orphaned workers exit on their own (the command pipe EOFs when
  the parent dies — nothing may linger and keep training);
* every checkpoint at a final destination loads cleanly (atomic
  writes, epoch-barrier checkpointing);
* re-running with ``--resume`` at the same worker count completes the
  job from the latest checkpoint.
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
    "--workers", "2",
    "--num-users", "100",
    "--num-items", "15",
    "--dim", "8",
    "--epochs", "10",
    "--seed", "0",
]


def _env():
    return dict(os.environ, PYTHONPATH=str(REPO_SRC))


def _run_cli(extra, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *TRAIN_ARGS, *extra],
        cwd=cwd,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=180,
    )


def _spawn_cli(extra, cwd):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *TRAIN_ARGS, *extra],
        cwd=cwd,
        env=_env(),
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
            return
        time.sleep(0.01)
    pytest.fail("no checkpoint appeared within the timeout")


def _worker_pids(parent_pid: int) -> list[int]:
    """Direct children of ``parent_pid`` (Linux /proc, else empty)."""
    children: list[int] = []
    task_dir = Path(f"/proc/{parent_pid}/task")
    if not task_dir.is_dir():
        return children
    for task in task_dir.iterdir():
        child_file = task / "children"
        try:
            children.extend(
                int(pid) for pid in child_file.read_text().split()
            )
        except OSError:
            continue
    return children


def _assert_exits(pids: list[int], timeout=30.0):
    """Every pid must be gone (or a reaped zombie) within the timeout."""
    deadline = time.monotonic() + timeout
    remaining = list(pids)
    while remaining and time.monotonic() < deadline:
        still_alive = []
        for pid in remaining:
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                continue  # exited and reaped
            if stat.split(") ")[-1].split()[0] == "Z":
                continue  # zombie: dead, awaiting reap by init
            still_alive.append(pid)
        remaining = still_alive
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"orphaned hogwild workers still alive: {remaining}"


@pytest.mark.skipif(
    not Path("/proc").is_dir(), reason="needs /proc to track worker pids"
)
def test_sigkill_with_workers_alive_resumes_cleanly(tmp_path):
    reference = _run_cli(["--store-dir", str(tmp_path / "ref")], tmp_path)
    assert reference.returncode == 0, reference.stderr

    ckpt_dir = tmp_path / "ckpts"
    victim = _spawn_cli(
        ["--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "1"],
        tmp_path,
    )
    orphans: list[int] = []
    try:
        _wait_for_first_checkpoint(ckpt_dir, victim)
        if victim.poll() is None:
            # Capture the live worker pids, then kill the parent hard.
            orphans = _worker_pids(victim.pid)
            os.kill(victim.pid, signal.SIGKILL)
    finally:
        victim.wait(timeout=30)

    # Orphaned workers must notice the dead parent (pipe EOF) and exit.
    _assert_exits(orphans)

    # Every committed checkpoint must load cleanly despite the kill.
    from repro.ckpt import TrainingState

    committed = [p for p in ckpt_dir.iterdir() if _CKPT_PATTERN.match(p.name)]
    assert committed, "the run checkpointed before the kill"
    for path in committed:
        state = TrainingState.load(path)
        assert state.worker_topology is not None
        assert state.worker_topology["workers"] == 2

    # Same worker count resumes and completes the job.
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
    final = EmbeddingStore.open(tmp_path / "resumed")
    for key in ("source", "target", "source_bias", "target_bias"):
        assert np.isfinite(getattr(final, key)).all(), key
