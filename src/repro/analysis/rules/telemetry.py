"""Cross-file rule: metric handle and span sites against the catalog.

Every metric is a handle declared once in ``repro.obs.catalog``
(``NAME = counter|gauge|histogram("name", (labels...), ...)``), so a
misspelt metric is an ``ImportError`` and its kind and help text cannot
drift at the site.  Two mistakes still pass import: a label the
declaration does not list, which splits the series under a key nobody
declared, and a mutator the kind lacks, which raises only when the
event happens.  This rule flags both at every ``NAME.<mutator>(...)``
site whose ``NAME`` resolves to a declared handle.

Spans keep literal names at their sites (benchmark harnesses open spans
too), so each ``run.span(...)`` name must match a ``SPAN_CATALOG``
entry, exactly or as a ``*`` family (f-string names become ``*``
patterns), with only declared attribute keys.

The catalog is read *statically*, so the analyzer never imports the
code under analysis.  The ``obs`` implementation layer itself (tracer
and exporter pass-throughs taking ``name`` as a variable) is out of
scope.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Iterable, Iterator

from repro.analysis.core import AstRule, Finding
from repro.analysis.project import ModuleInfo, ProjectGraph
from repro.analysis.rules.common import dotted_name

#: Anchor symbol locating the catalog.
CATALOG_SYMBOL = "SPAN_CATALOG"

#: Each handle kind's mutators, with the one keyword that is no label.
_MUTATORS = {
    "counter": {"inc": "amount"},
    "gauge": {"set": "value"},
    "histogram": {"observe": "value", "observe_many": "values"},
}

#: ``name -> declared labels`` (spans) or ``handle -> (kind, labels)``.
_Spans = dict[str, frozenset[str]]
_Handles = dict[str, tuple[str, frozenset[str]]]


def _literal_str(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _site_name(node: ast.expr) -> str | None:
    """Literal name, or an ``*``-family pattern for an f-string name."""
    if isinstance(node, ast.JoinedStr):
        return "".join(
            value.value if isinstance(value, ast.Constant) else "*"
            for value in node.values
        )
    return _literal_str(node)


def _labels(node: ast.expr | None) -> frozenset[str]:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return frozenset()
    return frozenset(
        label for label in map(_literal_str, node.elts) if label is not None
    )


def _extract_catalog(tree: ast.Module) -> tuple[_Spans, _Handles]:
    """Statically read the span catalog and the handle declarations."""
    spans: _Spans = {}
    handles: _Handles = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        if target.id == CATALOG_SYMBOL and isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                if isinstance(element, ast.Call) and element.args:
                    name = _literal_str(element.args[0])
                    labels = element.args[1] if len(element.args) > 1 else None
                    if name is not None:
                        spans[name] = _labels(labels)
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTATORS
            and len(value.args) > 1
        ):
            handles[target.id] = (value.func.id, _labels(value.args[1]))
    return spans, handles


class TelemetryContractRule(AstRule):
    """Handle and span sites must agree with the catalog."""

    rule_id = "telemetry-contract"
    description = (
        "metric handles take only their kind's mutators and declared "
        "labels; span names and attributes must be declared in the catalog"
    )

    def check_project(self, graph: ProjectGraph) -> Iterable[Finding]:
        catalog = graph.find_defining_module(CATALOG_SYMBOL)
        if catalog is None:
            spans, handles = None, {}
        else:
            spans, handles = _extract_catalog(catalog.parsed.tree)
        for info in graph.checked_modules():
            if catalog is not None and info.name == catalog.name:
                continue
            if "obs" in info.name.split("."):
                continue
            for node in ast.walk(info.parsed.tree):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    yield from self._check_span(info, node, spans)
                    if catalog is not None:
                        yield from self._check_handle(
                            info, node, catalog.name, handles
                        )

    def _check_span(
        self, info: ModuleInfo, call: ast.Call, spans: _Spans | None
    ) -> Iterator[Finding]:
        if call.func.attr != "span" or not call.args:
            return
        name = _site_name(call.args[0])
        if name is None:
            return
        if spans is None:
            yield self.finding(
                info.parsed,
                call,
                f"span '{name}' used but no literal {CATALOG_SYMBOL} "
                "module exists in the project",
            )
            return
        declared = spans.get(name)
        if declared is None:
            declared = next(
                (labels for pattern, labels in spans.items()
                 if fnmatchcase(name, pattern)),
                None,
            )
        if declared is None:
            yield self.finding(
                info.parsed,
                call,
                f"span name '{name}' is not declared in {CATALOG_SYMBOL}",
            )
            return
        yield from self._check_labels(info, call, f"span '{name}'", declared)

    def _check_handle(
        self, info: ModuleInfo, call: ast.Call, catalog: str, handles: _Handles
    ) -> Iterator[Finding]:
        receiver = dotted_name(call.func.value)
        resolved = info.import_map.resolve(receiver) if receiver else None
        module, _, handle = (resolved or "").rpartition(".")
        if module != catalog or handle not in handles:
            return
        kind, declared = handles[handle]
        value_keyword = _MUTATORS[kind].get(call.func.attr)
        if value_keyword is None:
            yield self.finding(
                info.parsed,
                call,
                f"'{handle}' is a {kind} handle; it has no "
                f".{call.func.attr}()",
            )
            return
        yield from self._check_labels(
            info, call, f"'{handle}'", declared | {value_keyword}
        )

    def _check_labels(
        self,
        info: ModuleInfo,
        call: ast.Call,
        what: str,
        declared: frozenset[str],
    ) -> Iterator[Finding]:
        undeclared = {kw.arg for kw in call.keywords if kw.arg} - declared
        if undeclared:
            listed = ", ".join(sorted(undeclared))
            yield self.finding(
                info.parsed,
                call,
                f"label(s) {listed} on {what} are not in the declared "
                "label set",
            )
