"""Engine tests: graph construction, origins, usage, runner."""

from __future__ import annotations

import ast

import pytest

from repro.analysis import (
    AstRule,
    Finding,
    ProjectGraph,
    analyze_project,
    build_project_graph,
    build_project_graph_from_sources,
    run_rules,
)


class NamedRule(AstRule):
    """Flags every module whose name contains 'bad' (test scaffolding)."""

    rule_id = "named"
    description = "test rule"

    def check_project(self, graph):
        for info in graph.checked_modules():
            if "bad" in info.name:
                yield self.finding(
                    info.parsed, info.parsed.tree.body[0], "flagged"
                )


class TestModuleNaming:
    def test_plain_tree_module_names(self):
        graph = build_project_graph_from_sources(
            {
                "pkg/__init__.py": "__all__ = []\n",
                "pkg/mod.py": "x = 1\n",
                "top.py": "y = 2\n",
            }
        )
        assert set(graph.modules) == {"pkg", "pkg.mod", "top"}
        assert graph.module("pkg").is_package
        assert not graph.module("top").is_package

    def test_package_root_gets_prefix(self, tmp_path):
        root = tmp_path / "myproj"
        root.mkdir()
        (root / "__init__.py").write_text("__all__ = []\n")
        sub = root / "sub"
        sub.mkdir()
        (sub / "__init__.py").write_text("__all__ = []\n")
        (sub / "leaf.py").write_text("z = 3\n")
        graph = build_project_graph(root)
        assert set(graph.modules) == {"myproj", "myproj.sub", "myproj.sub.leaf"}
        assert graph.package == "myproj"


class TestSymbolTable:
    def test_exports_defs_and_imports(self):
        graph = build_project_graph_from_sources(
            {
                "a.py": (
                    "import json\n"
                    "from b import helper\n"
                    "__all__ = ['main']\n"
                    "CONST = 1\n"
                    "def main():\n"
                    "    from b import lazy  # function-level import\n"
                    "    return helper() + lazy()\n"
                ),
                "b.py": (
                    "__all__ = ['helper', 'lazy']\n"
                    "def helper():\n    return 1\n"
                    "def lazy():\n    return 2\n"
                ),
            }
        )
        info = graph.module("a")
        assert info.exports == ("main",)
        assert {"CONST", "main"} <= set(info.top_level_defs)
        bound = {(edge.module, edge.name) for edge in info.imports}
        # Lazy function-level imports are collected too.
        assert ("b", "helper") in bound and ("b", "lazy") in bound
        assert info.imports_symbol("b.helper")
        assert not info.imports_symbol("b.missing")

    def test_non_literal_all_is_none(self):
        graph = build_project_graph_from_sources(
            {"a.py": "names = ['x']\n__all__ = names\n"}
        )
        assert graph.module("a").exports is None

    def test_relative_imports_resolve_against_package(self):
        graph = build_project_graph_from_sources(
            {
                "pkg/__init__.py": "__all__ = []\n",
                "pkg/a.py": "from . import b\nfrom .b import f\n",
                "pkg/b.py": "def f():\n    return 0\n",
            }
        )
        edges = {
            (edge.module, edge.name)
            for edge in graph.module("pkg.a").imports
        }
        assert ("pkg", "b") in edges and ("pkg.b", "f") in edges

    def test_attribute_uses_resolve_to_deepest_module(self):
        graph = build_project_graph_from_sources(
            {
                "pkg/__init__.py": "__all__ = []\n",
                "pkg/util.py": "def f():\n    return 0\n",
                "user.py": "import pkg.util\nvalue = pkg.util.f()\n",
            }
        )
        assert ("pkg.util", "f") in graph.module("user").attribute_uses


class TestOrigins:
    SOURCES = {
        "pkg/__init__.py": "from pkg.impl import Thing\n__all__ = ['Thing']\n",
        "pkg/impl.py": "__all__ = ['Thing']\nclass Thing:\n    pass\n",
    }

    def test_reexport_chain_collapses(self):
        graph = build_project_graph_from_sources(self.SOURCES)
        assert graph.export_origin("pkg", "Thing") == ("pkg.impl", "Thing")
        assert graph.export_origin("pkg.impl", "Thing") == ("pkg.impl", "Thing")

    def test_import_through_any_layer_marks_origin_used(self):
        graph = build_project_graph_from_sources(
            self.SOURCES,
            reference_sources={"test_thing.py": "from pkg import Thing\n"},
        )
        assert ("pkg.impl", "Thing") in graph.used_origins()

    def test_reexport_alone_is_not_usage(self):
        graph = build_project_graph_from_sources(self.SOURCES)
        # pkg imports Thing but only to re-export it (it is in pkg's
        # __all__), so the origin stays unused.
        assert ("pkg.impl", "Thing") not in graph.used_origins()

    def test_submodule_binding_resolves_to_module(self):
        graph = build_project_graph_from_sources(
            {
                "pkg/__init__.py": "from pkg import impl\n__all__ = ['impl']\n",
                "pkg/impl.py": "x = 1\n",
            }
        )
        assert graph.export_origin("pkg", "impl") == ("pkg.impl", "")


class TestRunner:
    def test_findings_sorted_and_suppressed(self):
        findings = analyze_project(
            {
                "bad_one.py": "x = 1\n",
                "bad_two.py": "y = 2  # lint: disable=named\n",
            },
            [NamedRule()],
        )
        assert [f.path for f in findings] == ["bad_one.py"]

    def test_real_tree_builds_and_resolves(self, repo_src):
        graph = build_project_graph(repo_src)
        assert isinstance(graph, ProjectGraph)
        assert graph.package == "repro"
        assert graph.export_origin("repro", "Inf2vecModel") == (
            "repro.core.inf2vec",
            "Inf2vecModel",
        )


@pytest.fixture
def repo_src():
    from pathlib import Path

    root = Path(__file__).resolve().parents[2] / "src" / "repro"
    if not root.is_dir():
        pytest.skip("src/repro not present")
    return root


class TestProjectFindingContract:
    def test_finding_fields(self):
        graph = build_project_graph_from_sources({"bad.py": "x = 1\n"})
        findings = run_rules(graph, [NamedRule()])
        assert findings == [
            Finding(path="bad.py", line=1, rule_id="named", message="flagged")
        ]

    def test_project_rule_base_requires_override(self):
        graph = build_project_graph_from_sources({"a.py": "x = 1\n"})
        with pytest.raises(NotImplementedError):
            list(AstRule().check_project(graph))

    def test_finding_defaults_to_line_one_without_node(self):
        graph = build_project_graph_from_sources({"a.py": "x = 1\n"})
        info = graph.module("a")
        rule = AstRule()
        rule.rule_id = "t"
        finding = rule.finding(info.parsed, None, "msg")
        assert (finding.line, finding.path) == (1, "a.py")
        located = rule.finding(info.parsed, info.parsed.tree.body[0], "msg")
        assert isinstance(info.parsed.tree.body[0], ast.stmt)
        assert located.line == 1
