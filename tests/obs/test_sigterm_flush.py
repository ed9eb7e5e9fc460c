"""SIGTERM flush smoke test: a killed CLI run still persists telemetry.

The PR 3 SIGKILL test proves checkpoints survive an un-catchable kill;
this is its telemetry sibling for the catchable one.  A ``repro.cli
train`` subprocess running with ``--telemetry-dir`` is sent SIGTERM
mid-run.  The flush-on-exit hook the exporter installs
(:mod:`repro.obs.export`) must write the manifest, the span trace and
a complete exposition snapshot before the process re-delivers the
signal to itself — so the files are valid JSON / exposition text, yet
the exit status still reports death by SIGTERM.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _spawn_train(tmp_path: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "train",
            "--num-users", "150",
            "--num-items", "25",
            "--dim", "8",
            "--epochs", "500",  # far longer than the test will allow
            "--seed", "0",
            "--telemetry-dir", str(tmp_path / "tele"),
            "--export-every", "0.2",
        ],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_until(condition, proc: subprocess.Popen, what: str, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        if proc.poll() is not None:
            pytest.fail(f"training exited early with {proc.returncode}")
        time.sleep(0.01)
    pytest.fail(f"{what} did not happen within the timeout")


def test_sigterm_mid_run_flushes_telemetry(tmp_path):
    victim = _spawn_train(tmp_path)
    exposition = tmp_path / "tele" / "metrics.prom"
    try:
        # The exporter writes an initial snapshot at start(), so this
        # appears well before training finishes its 500 epochs.
        _wait_until(exposition.exists, victim, "initial snapshot")
        # Kill only after the *second* flush (the atomic replace bumps
        # the mtime): by then the process is deep in the training loop,
        # past all the exit-hook registration.
        first_mtime = exposition.stat().st_mtime_ns
        _wait_until(
            lambda: exposition.stat().st_mtime_ns != first_mtime,
            victim,
            "second periodic flush",
        )
        os.kill(victim.pid, signal.SIGTERM)
        victim.wait(timeout=60)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)

    # The exit status must still be honest about the termination.
    assert victim.returncode == -signal.SIGTERM

    # The telemetry directory holds a complete, parseable snapshot set,
    # flushed by the signal handler.
    manifest = json.loads((tmp_path / "tele" / "manifest.json").read_text())
    assert manifest["name"] == "train"
    assert (tmp_path / "tele" / "trace.jsonl").exists()
    exposition = (tmp_path / "tele" / "metrics.prom").read_text()
    assert exposition == "" or "# TYPE" in exposition
    assert not any(
        p.name.startswith(".") for p in (tmp_path / "tele").iterdir()
    ), "no torn temp files may linger in the telemetry dir"
