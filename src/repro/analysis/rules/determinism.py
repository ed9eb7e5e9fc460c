"""Cross-file rules: bitwise determinism of serving, sketching, training.

Resume-equivalence (DESIGN.md §10) and the serving contract (§12)
both promise *bitwise* reproducibility: a resumed run and a fresh run
produce identical embeddings, and a blocked top-k scan equals the
brute-force scan bit for bit.  Two conventions carry that promise,
and both are scoped by package, not by file:

* array constructors in hot-path modules (``serve``, ``sketch``,
  ``parallel``) must pass an explicit ``dtype`` — platform-dependent
  default widths (Windows ``np.arange`` -> int32) silently change
  checkpoint and index layouts (``explicit-dtype``);
* no iteration over an unordered ``set`` feeding ordered results —
  ``list(set(...))``, ``for x in set(...)`` or a set literal depend on
  hash-iteration order, which varies across runs and Python builds;
  wrap in ``sorted(...)`` instead (``set-iteration-order``).

Scope is resolved by module name segments on the project graph, so the
rules follow the packages however the tree is rooted.  (Bitwise-stable
``np.einsum`` contraction in the blocked scan is asserted directly by
``tests/serve/test_topk.py``, across block sizes.)
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import AstRule, Finding
from repro.analysis.project import ModuleInfo, ProjectGraph
from repro.analysis.rules.common import resolve_call_target

#: Segments marking hot-path modules where dtypes must be explicit.
DTYPE_SCOPE = frozenset({"serve", "sketch", "parallel"})

#: Segments marking modules feeding checkpointed / benchmarked results.
SET_ORDER_SCOPE = frozenset({"core", "serve", "sketch", "parallel", "ckpt"})

#: ``numpy`` constructors with platform-dependent default dtypes.
_DTYPE_CONSTRUCTORS = frozenset(
    {
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
        "numpy.full",
        "numpy.arange",
        "numpy.fromiter",
        "numpy.frombuffer",
    }
)


def _in_scope(info: ModuleInfo, segments: frozenset[str]) -> bool:
    return not segments.isdisjoint(info.name.split("."))


def _scoped(graph: ProjectGraph, segments: frozenset[str]) -> Iterator[ModuleInfo]:
    for info in graph.checked_modules():
        if _in_scope(info, segments):
            yield info


class ExplicitDtypeRule(AstRule):
    """Array constructors in hot-path modules need an explicit dtype."""

    rule_id = "explicit-dtype"
    description = (
        "numpy array constructors in serve/sketch/parallel modules "
        "must pass an explicit dtype"
    )

    def check_project(self, graph: ProjectGraph) -> Iterable[Finding]:
        for info in _scoped(graph, DTYPE_SCOPE):
            for node in ast.walk(info.parsed.tree):
                if not isinstance(node, ast.Call):
                    continue
                target = resolve_call_target(node, info.import_map)
                if target not in _DTYPE_CONSTRUCTORS:
                    continue
                if any(kw.arg == "dtype" for kw in node.keywords):
                    continue
                constructor = target.rsplit(".", 1)[1]
                yield self.finding(
                    info.parsed,
                    node,
                    f"np.{constructor} without an explicit dtype; default "
                    f"widths are platform-dependent",
                )


class SetIterationOrderRule(AstRule):
    """No set-iteration-order dependence feeding deterministic results."""

    rule_id = "set-iteration-order"
    description = (
        "no iteration over unordered sets in modules feeding "
        "checkpointed or benchmarked results; wrap in sorted(...)"
    )

    def check_project(self, graph: ProjectGraph) -> Iterable[Finding]:
        for info in _scoped(graph, SET_ORDER_SCOPE):
            for node in ast.walk(info.parsed.tree):
                yield from self._check_node(info, node)

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _check_node(self, info: ModuleInfo, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)) and self._is_set_expr(
            node.iter
        ):
            yield self.finding(
                info.parsed,
                node,
                "iterating a set directly depends on hash order; "
                "iterate sorted(...) instead",
            )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("list", "tuple", "enumerate")
                and node.args
                and self._is_set_expr(node.args[0])
            ):
                yield self.finding(
                    info.parsed,
                    node,
                    f"{func.id}(set(...)) materialises hash order; use "
                    f"sorted(...) instead",
                )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for comp in node.generators:
                if self._is_set_expr(comp.iter):
                    yield self.finding(
                        info.parsed,
                        node,
                        "comprehension over a set depends on hash order; "
                        "iterate sorted(...) instead",
                    )
