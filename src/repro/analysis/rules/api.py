"""``pinned-api``: ``__all__`` is accurate wherever it is declared.

``tests/test_api_surface.py`` treats each public package's ``__all__``
as a compatibility contract (and pins ``repro.ckpt`` /
``repro.analysis`` exactly).  That contract is only meaningful if
``__all__`` itself is trustworthy, so this rule checks, per file:

* every package ``__init__.py`` declares ``__all__`` (the packages are
  exactly the ``PUBLIC_MODULES`` the API-surface test imports — the
  guard test cross-checks the two lists);
* ``__all__`` is a *literal* list/tuple of unique strings, so it is
  statically auditable;
* every listed name is actually bound at module top level (a stale
  entry would make ``from repro.x import *`` raise).

A public definition may stay out of ``__all__``: the ``dead-export``
project rule keeps the declared surface to what the repo imports.

Modules that do not declare ``__all__`` (and are not package inits)
are out of scope: their surface is defined by their package's re-export.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import AstRule, Finding, ParsedFile


def _literal_strings(node: ast.expr) -> list[str] | None:
    """The string elements of a literal list/tuple, else ``None``."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    values: list[str] = []
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant) and isinstance(element.value, str)
        ):
            return None
        values.append(element.value)
    return values


def _top_level_bindings(tree: ast.Module) -> tuple[set[str], bool]:
    """Names bound at module top level, and whether ``import *`` appears."""
    bound: set[str] = set()
    has_star = False
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    has_star = True
                else:
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional definitions (TYPE_CHECKING, optional deps).
            inner, star = _top_level_bindings(
                ast.Module(body=list(ast.iter_child_nodes(node)), type_ignores=[])
            )
            bound |= inner
            has_star = has_star or star
    return bound, has_star


def _find_all_assignment(tree: ast.Module) -> ast.Assign | None:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return node
    return None


class PinnedApiRule(AstRule):
    """``__all__`` must exist (package inits), be literal, and be accurate."""

    rule_id = "pinned-api"
    description = (
        "every package __init__ declares a literal __all__ of unique "
        "entries that are bound at top level (the API-surface tests pin "
        "against it)"
    )

    def check(self, parsed: ParsedFile) -> Iterable[Finding]:
        tree = parsed.tree
        assignment = _find_all_assignment(tree)
        is_package_init = parsed.relative.endswith("__init__.py")
        if assignment is None:
            if is_package_init:
                yield Finding(
                    path=parsed.relative,
                    line=1,
                    rule_id=self.rule_id,
                    message=(
                        "package __init__ lacks __all__; the public surface "
                        "must be declared (tests/test_api_surface.py pins it)"
                    ),
                )
            return
        exported = _literal_strings(assignment.value)
        if exported is None:
            yield self.finding(
                parsed,
                assignment,
                "__all__ must be a literal list/tuple of strings so the "
                "public surface is statically auditable",
            )
            return
        duplicates = sorted({name for name in exported if exported.count(name) > 1})
        if duplicates:
            yield self.finding(
                parsed,
                assignment,
                f"__all__ lists duplicate entries: {', '.join(duplicates)}",
            )
        bound, has_star = _top_level_bindings(tree)
        if not has_star:
            missing = [name for name in exported if name not in bound]
            if missing:
                yield self.finding(
                    parsed,
                    assignment,
                    "__all__ lists names never bound at top level: "
                    f"{', '.join(sorted(missing))}",
                )
