"""Fixture mini-projects for every cross-file rule: positive + negative."""

from __future__ import annotations

from repro.analysis import analyze_project
from repro.analysis.rules import (
    DeadExportRule,
    ExplicitDtypeRule,
    HogwildSafetyRule,
    SetIterationOrderRule,
    TelemetryContractRule,
)

SHARED_DEF = (
    "__all__ = ['SharedEmbedding']\n"
    "class SharedEmbedding:\n"
    "    pass\n"
)


def _ids(findings):
    return [f.rule_id for f in findings]


class TestHogwildSafety:
    def run(self, worker_source, extra=None):
        sources = {
            "parallel/shared.py": SHARED_DEF,
            "parallel/worker.py": (
                "from parallel.shared import SharedEmbedding\n" + worker_source
            ),
        }
        if extra:
            sources.update(extra)
        return analyze_project(sources, [HogwildSafetyRule()])

    def test_sanctioned_idioms_are_clean(self):
        findings = self.run(
            "import numpy as np\n"
            "def step(emb, users, grad):\n"
            "    np.add.at(emb.source, users, grad)\n"
            "    emb.source[users] += grad\n"
            "    emb.source_bias += np.bincount(users, minlength=3)\n"
        )
        assert findings == []

    def test_plain_attribute_assign_is_flagged(self):
        findings = self.run(
            "def step(emb, grad):\n"
            "    emb.source = emb.source + grad\n"
        )
        assert _ids(findings) == ["hogwild-safety"]
        assert "rebinds shared buffer" in findings[0].message

    def test_alias_rebinding_is_flagged(self):
        findings = self.run(
            "def step(emb, grad):\n"
            "    rows = emb.source\n"
            "    rows = rows * 2\n"
        )
        assert _ids(findings) == ["hogwild-safety"]
        assert "detaching" in findings[0].message

    def test_alias_inplace_write_is_clean(self):
        findings = self.run(
            "def step(emb, users, grad):\n"
            "    rows = emb.source\n"
            "    rows[users] += grad\n"
        )
        assert findings == []

    def test_lock_constructions_and_acquire_flagged(self):
        findings = self.run(
            "import threading\n"
            "from threading import RLock\n"
            "def guard(existing):\n"
            "    lock = threading.Lock()\n"
            "    other = RLock()\n"
            "    existing.acquire()\n"
        )
        assert _ids(findings) == ["hogwild-safety"] * 3

    def test_modules_outside_scope_are_ignored(self):
        findings = self.run(
            "def ok(emb):\n    emb.target[0] += 1\n",
            extra={
                # Same spelling, but this module never imports the
                # shared class, so plain assignment is fine here.
                "elsewhere.py": (
                    "def reset(obj):\n    obj.source = None\n"
                    "import threading\nLOCK = threading.Lock()\n"
                ),
            },
        )
        assert findings == []

    def test_defining_module_may_bind_buffers(self):
        findings = analyze_project(
            {
                "parallel/shared.py": (
                    "__all__ = ['SharedEmbedding']\n"
                    "from parallel.shared import SharedEmbedding\n"
                    "class SharedEmbedding:\n"
                    "    def attach(self, view):\n"
                    "        self.source = view\n"
                ),
            },
            [HogwildSafetyRule()],
        )
        assert findings == []


class TestExplicitDtype:
    def run(self, body, module="sketch/pool.py"):
        return analyze_project(
            {module: "import numpy as np\n" + body}, [ExplicitDtypeRule()]
        )

    def test_missing_dtype_flagged(self):
        findings = self.run("def f(n):\n    return np.arange(n)\n")
        assert _ids(findings) == ["explicit-dtype"]
        assert "np.arange" in findings[0].message

    def test_explicit_dtype_clean(self):
        findings = self.run(
            "def f(n):\n    return np.zeros(n, dtype=np.float64)\n"
        )
        assert findings == []

    def test_non_constructor_and_other_modules_ignored(self):
        clean = self.run("def f(x):\n    return np.asarray(x)\n")
        assert clean == []
        outside = self.run(
            "def f(n):\n    return np.empty(n)\n", module="viz/plots.py"
        )
        assert outside == []


class TestSetIterationOrder:
    def run(self, body, module="core/contexts.py"):
        return analyze_project({module: body}, [SetIterationOrderRule()])

    def test_direct_iteration_flagged(self):
        findings = self.run(
            "def f(xs):\n"
            "    for x in set(xs):\n"
            "        yield x\n"
        )
        assert _ids(findings) == ["set-iteration-order"]

    def test_list_of_set_flagged(self):
        findings = self.run("def f(xs):\n    return list(set(xs))\n")
        assert _ids(findings) == ["set-iteration-order"]

    def test_comprehension_over_literal_flagged(self):
        findings = self.run("def f():\n    return [x for x in {1, 2, 3}]\n")
        assert _ids(findings) == ["set-iteration-order"]

    def test_sorted_wrapping_is_clean(self):
        findings = self.run(
            "def f(xs):\n"
            "    for x in sorted(set(xs)):\n"
            "        yield x\n"
            "    return sorted({x for x in xs})\n"
        )
        assert findings == []

    def test_outside_scope_ignored(self):
        findings = self.run(
            "def f(xs):\n    return list(set(xs))\n", module="viz/colors.py"
        )
        assert findings == []


CATALOG = (
    "TRAIN_LOSS = gauge('train.loss', ('epoch',), 'mean loss')\n"
    "IC_ROUNDS = histogram('ic.rounds', (), 'rounds', (1.0, 2.0))\n"
    "SPAN_CATALOG = (\n"
    "    SpanSpec('fit', ('epochs',), ''),\n"
    "    SpanSpec('serve.batch.*', ('k',), ''),\n"
    ")\n"
)


class TestTelemetryContract:
    def run(self, user_source, catalog=CATALOG):
        sources = {"catalog.py": catalog, "app.py": user_source}
        return analyze_project(sources, [TelemetryContractRule()])

    def test_declared_site_with_declared_labels_clean(self):
        findings = self.run(
            "from catalog import IC_ROUNDS, TRAIN_LOSS\n"
            "import catalog\n"
            "def f(run, loss, rounds):\n"
            "    TRAIN_LOSS.set(loss, epoch=3)\n"
            "    catalog.TRAIN_LOSS.set(value=loss, epoch=4)\n"
            "    IC_ROUNDS.observe_many(rounds)\n"
            "    with run.span('fit', epochs=2):\n"
            "        pass\n"
        )
        assert findings == []

    def test_undeclared_name_flagged(self):
        findings = self.run(
            "def f(run):\n"
            "    with run.span('fitt'):\n"
            "        pass\n"
        )
        assert _ids(findings) == ["telemetry-contract"]
        assert "not declared" in findings[0].message

    def test_kind_mismatch_flagged(self):
        findings = self.run(
            "from catalog import IC_ROUNDS, TRAIN_LOSS\n"
            "def f():\n"
            "    TRAIN_LOSS.inc()\n"
            "    IC_ROUNDS.set(3.0)\n"
        )
        assert _ids(findings) == ["telemetry-contract"] * 2
        messages = sorted(finding.message for finding in findings)
        assert "'IC_ROUNDS' is a histogram handle; it has no .set()" in messages
        assert "'TRAIN_LOSS' is a gauge handle; it has no .inc()" in messages

    def test_undeclared_label_flagged(self):
        findings = self.run(
            "from catalog import TRAIN_LOSS\n"
            "def f(run, loss):\n"
            "    TRAIN_LOSS.set(loss, worker=1)\n"
            "    with run.span('fit', workers=2):\n"
            "        pass\n"
        )
        assert _ids(findings) == ["telemetry-contract"] * 2
        assert "worker on 'TRAIN_LOSS'" in findings[0].message
        assert "workers on span 'fit'" in findings[1].message

    def test_fstring_family_matches_declaration(self):
        findings = self.run(
            "def f(run, direction):\n"
            "    with run.span(f'serve.batch.{direction}', k=5):\n"
            "        pass\n"
        )
        assert findings == []

    def test_numpy_receiver_and_variable_names_skipped(self):
        # Only names that resolve to a catalog declaration are handles.
        findings = self.run(
            "import numpy as np\n"
            "import threading\n"
            "def f(data, edges, metrics, name, TRAIN_LOSS):\n"
            "    counts, edges = np.histogram(data, bins=edges)\n"
            "    metrics.counter(name, 'pass-through').inc()\n"
            "    threading.Event().set()\n"
            "    TRAIN_LOSS.inc(label=1)\n"
            "    return counts\n"
        )
        assert findings == []

    def test_missing_catalog_module_flagged(self):
        findings = analyze_project(
            {
                "app.py": (
                    "def f(run):\n"
                    "    with run.span('fit'):\n"
                    "        pass\n"
                )
            },
            [TelemetryContractRule()],
        )
        assert _ids(findings) == ["telemetry-contract"]
        assert "no literal SPAN_CATALOG" in findings[0].message


class TestDeadExport:
    SOURCES = {
        "pkg/__init__.py": (
            "from pkg.impl import Thing, helper\n"
            "__all__ = ['Thing', 'helper']\n"
        ),
        "pkg/impl.py": (
            "__all__ = ['Thing', 'helper']\n"
            "class Thing:\n    pass\n"
            "def helper():\n    return Thing()\n"
        ),
    }

    def test_unimported_exports_flagged_at_origin_and_reexport(self):
        findings = analyze_project(dict(self.SOURCES), [DeadExportRule()])
        flagged = {(f.path, f.message.split("'")[1]) for f in findings}
        assert ("pkg/impl.py", "Thing") in flagged
        assert ("pkg/__init__.py", "Thing") in flagged

    def test_test_import_through_reexport_counts(self):
        findings = analyze_project(
            dict(self.SOURCES),
            [DeadExportRule()],
            reference_sources={
                "test_pkg.py": "from pkg import Thing, helper\n"
            },
        )
        assert findings == []

    def test_internal_module_import_counts(self):
        sources = dict(self.SOURCES)
        sources["consumer.py"] = (
            "from pkg.impl import Thing, helper\n"
            "both = (Thing, helper)\n"
        )
        findings = analyze_project(sources, [DeadExportRule()])
        assert findings == []

    def test_attribute_use_counts(self):
        sources = dict(self.SOURCES)
        sources["consumer.py"] = (
            "import pkg.impl\n"
            "both = (pkg.impl.Thing, pkg.impl.helper)\n"
        )
        findings = analyze_project(sources, [DeadExportRule()])
        assert findings == []

    def test_submodule_exports_are_structural(self):
        findings = analyze_project(
            {
                "pkg/__init__.py": "from pkg import impl\n__all__ = ['impl']\n",
                "pkg/impl.py": "x = 1\n",
            },
            [DeadExportRule()],
        )
        assert findings == []
