"""``no-print``: library code never prints.

Library code reports through ``repro.utils.logging`` or ``repro.obs``
so applications control the output channel; ``print`` is reserved for
the designated rendering surfaces:

* ``cli.py`` — the command-line front end;
* ``viz/ascii.py`` — the ASCII chart renderer;
* ``analysis/cli.py`` — the static-analysis runner's own output;
* ``obs/regress.py`` — the perf-regression gate's report output;
* functions named ``main`` or ``print_*`` under ``experiments/`` —
  each experiment's documented "print the table/figure" contract.

AST-based, so docstrings and identifiers that merely contain the
substring never trigger it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from repro.analysis.core import AstRule, Finding, ParsedFile

#: Root-relative files where ``print()`` is the module's purpose.
DEFAULT_ALLOWED_FILES = frozenset(
    {"cli.py", "viz/ascii.py", "analysis/cli.py", "obs/regress.py"}
)

#: Directory whose ``main``/``print_*`` functions may render to stdout.
DEFAULT_RENDERER_DIR = "experiments/"


class _PrintFinder(ast.NodeVisitor):
    """Collect bare ``print(...)`` calls with their enclosing functions."""

    def __init__(self) -> None:
        self.calls: list[tuple[ast.Call, list[str]]] = []
        self._stack: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.calls.append((node, list(self._stack)))
        self.generic_visit(node)


class NoPrintRule(AstRule):
    """Forbid bare ``print()`` outside the rendering surfaces."""

    rule_id = "no-print"
    description = (
        "library code reports via repro.utils.logging / repro.obs; "
        "print() is reserved for cli.py, viz/ascii.py, analysis/cli.py, "
        "obs/regress.py, and experiments' main/print_* renderers"
    )

    def __init__(
        self,
        allowed_files: Iterable[str] = DEFAULT_ALLOWED_FILES,
        renderer_dir: str = DEFAULT_RENDERER_DIR,
        renderer_names: Sequence[str] = ("main", "print_"),
    ) -> None:
        self.allowed_files = frozenset(allowed_files)
        self.renderer_dir = renderer_dir
        self.renderer_names = tuple(renderer_names)

    def _is_renderer(self, stack: list[str]) -> bool:
        for name in stack:
            for pattern in self.renderer_names:
                if pattern.endswith("_"):
                    if name.startswith(pattern):
                        return True
                elif name == pattern:
                    return True
        return False

    def check(self, parsed: ParsedFile) -> Iterable[Finding]:
        if parsed.relative in self.allowed_files:
            return
        finder = _PrintFinder()
        finder.visit(parsed.tree)
        in_renderer_dir = parsed.relative.startswith(self.renderer_dir)
        for node, stack in finder.calls:
            if in_renderer_dir and self._is_renderer(stack):
                continue
            yield self.finding(
                parsed,
                node,
                "bare print() call; use repro.utils.logging or repro.obs "
                "so applications control the output channel",
            )
