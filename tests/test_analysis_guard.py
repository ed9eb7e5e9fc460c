"""Guard: the full invariant suite passes over ``src/repro``.

This is the test that makes the contracts machine-enforced on every
test run: no global RNG state, no bare prints, atomic-only
persistence, monotonic timing, accurate ``__all__`` declarations, the
hygiene rules, hogwild write discipline, serving determinism, the
telemetry catalog contract and dead exports — see DESIGN.md §11
"Coding invariants".  The suite runs once per session, cold, and both
tests read that one run.
"""

import time
from pathlib import Path

import pytest

from repro.analysis import (
    REFERENCE_ROOTS,
    build_project_graph,
    default_rules,
    run_rules,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def suite_run():
    """``(findings, seconds)`` of one full run over ``src/repro``."""
    start = time.perf_counter()
    graph = build_project_graph(
        SRC_ROOT, reference_roots=[REPO_ROOT / name for name in REFERENCE_ROOTS]
    )
    findings = run_rules(graph, default_rules())
    return findings, time.perf_counter() - start


def test_source_tree_satisfies_all_invariants(suite_run):
    findings, _ = suite_run
    rendered = "\n".join(f.render(prefix="src/repro") for f in findings)
    assert not findings, f"invariant violations in src/:\n{rendered}"


def test_full_suite_is_fast_enough_for_every_test_run(suite_run):
    """The acceptance bound: a cold run finishes well inside 10 s."""
    _, elapsed = suite_run
    assert elapsed < 10.0, f"analysis took {elapsed:.2f}s (budget: 10s)"
