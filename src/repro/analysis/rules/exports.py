"""Cross-file rule: dead ``__all__`` exports.

The per-file ``pinned-api`` rule forces every package init to pin its
public surface in a literal ``__all__`` — but it cannot see whether
anything *consumes* that surface.  An export nobody imports is API the
project promises to keep stable for no one: it rots silently, dodges
every test, and widens the compatibility contract for free.  Deciding
"nobody imports this" is inherently whole-project: importers may pull
the symbol from any re-export layer (``from repro import
Inf2vecModel`` vs. ``from repro.core.inf2vec import Inf2vecModel``
name the same object), and the test/benchmark trees count as genuine
consumers even though they are never checked themselves.

The rule resolves every ``__all__`` entry and every import through
re-export chains to its *origin* (defining module, name) and reports
entries whose origin no other module, test, benchmark, or example
imports.  A ``from``-import inside a checked module is only
genuine usage when the importer does not itself re-export the bound
name (listing it in its own ``__all__`` is plumbing, not consumption);
attribute access through a module alias counts; entries binding
submodules (``from . import core``) are structural and skipped.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import AstRule, Finding
from repro.analysis.project import ModuleInfo, ProjectGraph


def _export_lines(tree: ast.Module) -> dict[str, int]:
    """Line of each string element of the ``__all__`` literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    value = node.value
                    if isinstance(value, (ast.List, ast.Tuple)):
                        return {
                            element.value: element.lineno
                            for element in value.elts
                            if isinstance(element, ast.Constant)
                            and isinstance(element.value, str)
                        }
    return {}


class DeadExportRule(AstRule):
    """``__all__`` symbols no other module and no test imports."""

    rule_id = "dead-export"
    description = (
        "every __all__ export must be imported by some other module, "
        "test, benchmark, or example"
    )

    def check_project(self, graph: ProjectGraph) -> Iterable[Finding]:
        used = graph.used_origins()
        for info in graph.checked_modules():
            yield from self._check_module(graph, info, used)

    def _check_module(
        self,
        graph: ProjectGraph,
        info: ModuleInfo,
        used: frozenset[tuple[str, str]],
    ) -> Iterator[Finding]:
        if not info.exports:
            return
        lines = _export_lines(info.parsed.tree)
        for name in info.exports:
            origin = graph.export_origin(info.name, name)
            if origin[1] == "":
                continue  # submodule binding: structural, not an API symbol
            if origin in used:
                continue
            line = lines.get(name, 1)
            where = (
                "defined here"
                if origin[0] == info.name
                else f"originating in {origin[0]}"
            )
            yield Finding(
                path=info.parsed.relative,
                line=line,
                rule_id=self.rule_id,
                message=(
                    f"'{name}' ({where}) is exported but no other "
                    f"module and no test imports it"
                ),
            )
