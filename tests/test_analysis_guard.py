"""Guard: the full invariant suite passes over ``src/repro``.

This is the test that makes the contracts machine-enforced on every
test run: no global RNG state, no bare prints, atomic-only
persistence, monotonic timing, accurate ``__all__`` declarations, and
the hygiene rules — see DESIGN.md "Coding invariants".  Since the
checker grew a second pass, it also runs every project rule (hogwild
write discipline, serving determinism, the telemetry catalog
contract, dead exports) over the whole-project graph.  It absorbs the
old ``tests/test_no_print.py`` (the ``no-print`` rule).
"""

import time
from pathlib import Path

from repro.analysis import (
    baseline_key,
    build_project_graph,
    default_project_rules,
    default_rules,
    load_baseline,
    run_analysis,
    run_project_rules,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / ".analysis-baseline.json"

#: Usage-only trees the project pass resolves imports against.
REFERENCE_ROOTS = tuple(
    REPO_ROOT / name
    for name in ("tests", "benchmarks", "examples", "scripts")
    if (REPO_ROOT / name).is_dir()
)


def _run_suite():
    baseline = load_baseline(BASELINE) if BASELINE.is_file() else frozenset()
    findings = list(run_analysis(SRC_ROOT, default_rules()))
    graph = build_project_graph(SRC_ROOT, reference_roots=REFERENCE_ROOTS)
    findings.extend(run_project_rules(graph, default_project_rules()))
    return [f for f in findings if baseline_key(f) not in baseline]


def test_source_tree_satisfies_all_invariants():
    findings = _run_suite()
    rendered = "\n".join(f.render(prefix="src/repro") for f in findings)
    assert not findings, f"invariant violations in src/:\n{rendered}"


def test_full_suite_is_fast_enough_for_every_test_run():
    """The acceptance bound: both passes finish well inside 10 s."""
    start = time.perf_counter()
    _run_suite()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"analysis took {elapsed:.2f}s (budget: 10s)"


def test_baseline_file_is_checked_in_and_loadable():
    """The repo ships a loadable (currently empty) baseline."""
    assert BASELINE.is_file(), f"missing checked-in baseline {BASELINE}"
    entries = load_baseline(BASELINE)
    assert entries == frozenset(), (
        "the baseline should stay empty now the tree is clean; new "
        f"grandfathered entries need justification: {sorted(entries)}"
    )
