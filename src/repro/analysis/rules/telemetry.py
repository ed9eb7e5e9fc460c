"""Cross-file rule: instrument sites against ``repro.obs.catalog``.

A metric name lives in the instrument site and in the exposition it
flows into.  A typo'd counter still counts; it just reports under a
name nothing declared.  This rule pins every site to the catalog:
each ``metrics.counter/gauge/histogram/summary(...)`` and
``run.span(...)`` site in checked modules must use a name declared in
``METRIC_CATALOG`` with the *same instrument kind*, and only labels
from the declared label set (f-string names become ``*`` families and
must match a declared family).  No runtime check can stand in for
this one: benchmark harnesses open spans the catalog does not declare.
(That every regress-gate pattern still matches a baseline leaf is
asserted by ``tests/obs/test_catalog.py``.)

The catalog is read *statically* (it is a pure literal by contract),
so the analyzer never imports the code under analysis.  The ``obs``
implementation layer itself (registry, tracer, exporter pass-throughs
taking ``name`` as a variable) is out of scope, as are non-literal
names and non-telemetry receivers that merely share a method name
(``np.histogram``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, Iterator

from repro.analysis.core import AstRule, Finding
from repro.analysis.project import ModuleInfo, ProjectGraph
from repro.analysis.rules.common import dotted_name

#: Anchor symbol locating the catalog.
CATALOG_SYMBOL = "METRIC_CATALOG"

_INSTRUMENT_METHODS = frozenset({"counter", "gauge", "histogram", "summary"})
_MUTATOR_METHODS = frozenset({"inc", "set", "observe", "observe_many", "quantile"})
_NON_LABEL_KWARGS = frozenset({"description"})


@dataclass(frozen=True)
class _DeclaredSpec:
    name: str
    kind: str
    labels: frozenset[str]


def _literal_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _site_name(node: ast.expr) -> str | None:
    """Literal name, or an ``*``-family pattern for an f-string name."""
    literal = _literal_str(node)
    if literal is not None:
        return literal
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("*")
        return "".join(parts)
    return None


def _extract_catalog(tree: ast.Module) -> tuple[_DeclaredSpec, ...] | None:
    """Statically read ``METRIC_CATALOG = (MetricSpec(...), ...)``."""
    for node in tree.body:
        if not (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and any(
                isinstance(t, ast.Name) and t.id == CATALOG_SYMBOL
                for t in (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
            )
        ):
            continue
        value = node.value
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        specs: list[_DeclaredSpec] = []
        for element in value.elts:
            if not isinstance(element, ast.Call):
                continue
            args = list(element.args)
            keywords = {kw.arg: kw.value for kw in element.keywords if kw.arg}
            name_node = args[0] if args else keywords.get("name")
            kind_node = args[1] if len(args) > 1 else keywords.get("kind")
            labels_node = args[2] if len(args) > 2 else keywords.get("labels")
            name = _literal_str(name_node) if name_node is not None else None
            kind = _literal_str(kind_node) if kind_node is not None else None
            if name is None or kind is None:
                continue
            labels: frozenset[str] = frozenset()
            if isinstance(labels_node, (ast.Tuple, ast.List)):
                labels = frozenset(
                    label
                    for label in (
                        _literal_str(elt) for elt in labels_node.elts
                    )
                    if label is not None
                )
            specs.append(_DeclaredSpec(name, kind, labels))
        return tuple(specs)
    return None


class TelemetryContractRule(AstRule):
    """Instrument sites must resolve in the catalog."""

    rule_id = "telemetry-contract"
    description = (
        "every metric/span name must be declared in the telemetry "
        "catalog with matching kind and labels"
    )

    def check_project(self, graph: ProjectGraph) -> Iterable[Finding]:
        catalog_module = graph.find_defining_module(CATALOG_SYMBOL)
        specs = (
            _extract_catalog(catalog_module.parsed.tree)
            if catalog_module is not None
            else None
        )
        for info in graph.checked_modules():
            if catalog_module is not None and info.name == catalog_module.name:
                continue
            if "obs" in info.name.split("."):
                continue
            yield from self._check_sites(info, specs)

    def _declared(
        self, specs: tuple[_DeclaredSpec, ...], name: str, kind: str
    ) -> _DeclaredSpec | None:
        for spec in specs:
            if spec.kind != kind:
                continue
            if spec.name == name or fnmatchcase(name, spec.name):
                return spec
        return None

    def _collect_sites(
        self, info: ModuleInfo
    ) -> list[tuple[ast.Call, str, str, frozenset[str]]]:
        """Each instrument/span site once, labels taken from its mutator."""
        sites: list[tuple[ast.Call, str, str, frozenset[str]]] = []
        consumed: set[int] = set()
        bare: list[tuple[ast.Call, str, str, frozenset[str]]] = []
        for node in ast.walk(info.parsed.tree):
            site = self._telemetry_site(info, node)
            if site is None:
                continue
            if site[0] is not node:
                # Mutator-chained: the inner instrument call will also be
                # visited bare by the walk; keep only this labelled view.
                consumed.add(id(site[0]))
                sites.append(site)
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                _INSTRUMENT_METHODS
            ):
                bare.append(site)
            else:
                sites.append(site)
        sites.extend(site for site in bare if id(site[0]) not in consumed)
        return sites

    def _check_sites(
        self, info: ModuleInfo, specs: tuple[_DeclaredSpec, ...] | None
    ) -> Iterator[Finding]:
        for call, name, kind, labels in self._collect_sites(info):
            if specs is None:
                yield self.finding(
                    info.parsed,
                    call,
                    f"telemetry name '{name}' used but no literal "
                    f"{CATALOG_SYMBOL} module exists in the project",
                )
                continue
            declared = self._declared(specs, name, kind)
            if declared is None:
                wrong_kind = next(
                    (
                        spec
                        for spec in specs
                        if spec.name == name or fnmatchcase(name, spec.name)
                    ),
                    None,
                )
                if wrong_kind is not None:
                    yield self.finding(
                        info.parsed,
                        call,
                        f"'{name}' is declared as a {wrong_kind.kind} in "
                        f"the catalog but used as a {kind}",
                    )
                else:
                    yield self.finding(
                        info.parsed,
                        call,
                        f"{kind} name '{name}' is not declared in "
                        f"{CATALOG_SYMBOL}",
                    )
                continue
            undeclared = labels - declared.labels
            if undeclared:
                listed = ", ".join(sorted(undeclared))
                yield self.finding(
                    info.parsed,
                    call,
                    f"label(s) {listed} on '{name}' are not in the "
                    f"declared label set",
                )

    def _telemetry_site(
        self, info: ModuleInfo, node: ast.AST
    ) -> tuple[ast.Call, str, str, frozenset[str]] | None:
        """``(call, name, kind, labels)`` when ``node`` is a site."""
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            return None
        method = node.func.attr
        if method == "span":
            name = _site_name(node.args[0]) if node.args else None
            if name is None:
                return None
            labels = frozenset(kw.arg for kw in node.keywords if kw.arg)
            return (node, name, "span", labels)
        if method in _MUTATOR_METHODS and isinstance(node.func.value, ast.Call):
            inner = node.func.value
            site = self._instrument_call(info, inner)
            if site is None:
                return None
            name, kind = site
            labels = frozenset(
                kw.arg
                for kw in node.keywords
                if kw.arg and kw.arg not in _NON_LABEL_KWARGS
            )
            return (inner, name, kind, labels)
        if method in _INSTRUMENT_METHODS:
            site = self._instrument_call(info, node)
            if site is None:
                return None
            name, kind = site
            return (node, name, kind, frozenset())
        return None

    def _instrument_call(
        self, info: ModuleInfo, node: ast.Call
    ) -> tuple[str, str] | None:
        if not isinstance(node.func, ast.Attribute):
            return None
        method = node.func.attr
        if method not in _INSTRUMENT_METHODS:
            return None
        receiver = dotted_name(node.func.value)
        if receiver is not None:
            resolved = info.import_map.resolve(receiver)
            if resolved is not None and resolved.split(".")[0] in (
                "numpy",
                "scipy",
            ):
                return None
        name = _site_name(node.args[0]) if node.args else None
        if name is None:
            return None
        return (name, method)
