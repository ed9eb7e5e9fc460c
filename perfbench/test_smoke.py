"""Smoke test of the pipeline benchmark: every workload at toy size.

From the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

It runs each workload's ``tiny()`` variant untraced and traced, checks
that every declared metric is emitted with its unit, that
``BENCHMARK.json`` declares exactly the tables in ``spec.py``, and that
a corrupted top-k row trips the output check, and that the launcher
reaps the helper process shared memory starts.
"""

from __future__ import annotations

import json
import math
import os
import sys
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel  # noqa: E402
from repro.data.synthetic import SyntheticSocialDataset  # noqa: E402
from repro.serve import EmbeddingStore, InfluenceService, TopKIndex  # noqa: E402


def test_benchmark_json_declares_the_spec_tables():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json()


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_run_emits_every_metric(name, trace, tmp_path, monkeypatch):
    # At 400 users the top out-degree users are close to the best seeds
    # and a few test episodes decide the AUC: the quality bars mean
    # something only at full size.  The other checks stay on.
    monkeypatch.setattr(spec, "MIN_MARGIN_SE", -math.inf)
    monkeypatch.setattr(spec, "MIN_AUC", 0.0)
    result = pipeline.run_workload(
        spec.WORKLOADS[name].tiny(), seed=3, seconds=0.3, trace=trace,
        workdir=tmp_path,
    )
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert result.correct and result.failed == 0 and result.attempted > 0
    assert list(result.metrics) == [metric.name for metric in table]
    for metric in table:
        entry = result.metrics[metric.name]
        assert entry["unit"] == metric.unit
        assert math.isfinite(entry["value"])
        assert metric.better in ("lower", "higher")
    if trace:
        assert (tmp_path / "traces" / f"{name}-seed3.trace.jsonl").is_file()
        assert result.metrics["trace.unattributed_frac"]["value"] < 0.05
    else:
        assert list(result.reported) == [m.name for m in spec.STAGE_FIGURES]


def test_corrupted_topk_row_trips_the_check(tmp_path):
    data = SyntheticSocialDataset.digg_like(num_users=120, num_items=20, seed=1)
    model = Inf2vecModel(Inf2vecConfig(dim=8, epochs=1), seed=1)
    model.fit(data.graph, data.log)
    EmbeddingStore.save(model.embedding, tmp_path)
    service = InfluenceService.open(tmp_path)
    service.precompute(spec.TOP_K)
    users = [0, 7, 42]
    checks.check_topk(service, users, spec.TOP_K, spec.SCAN_K)

    index = service.indices["influenced"]
    ids = np.array(index.indices)
    ids[7, [0, 1]] = ids[7, [1, 0]]
    service.indices["influenced"] = TopKIndex(
        "influenced", ids, np.array(index.scores)
    )
    with pytest.raises(checks.CheckFailed, match="index top-10 ids of user 7"):
        checks.check_topk(service, users, spec.TOP_K, spec.SCAN_K)


def test_no_helper_process_outlives_a_run():
    # A shared-memory block, as the hogwild trainer makes, starts the
    # resource tracker; the launcher must reap it before exiting.
    block = shared_memory.SharedMemory(create=True, size=64)
    block.close()
    block.unlink()
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    run.stop_helper_processes()
    assert tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
