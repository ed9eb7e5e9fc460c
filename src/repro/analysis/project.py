"""The whole-project graph, and the one runner every rule goes through.

Most of this repository's invariants live between files: hogwild
write discipline spans ``parallel/`` and the worker entry point in
``core/inf2vec.py``, the telemetry contract spans every instrument
site plus ``obs/catalog.py``, and a dead ``__all__`` export is
*defined* by what every other module (and the test tree) does not
import.  This module parses every file once and builds the view all
rules share:

* :class:`ModuleInfo` — one module: its dotted name, parsed AST,
  ``__all__`` exports, top-level definitions, every import edge (also
  the lazy function-level ones), and the module-alias attribute
  accesses it performs;
* :class:`ProjectGraph` — the symbol table over all modules, with
  re-export origin resolution (``repro.core`` re-exporting
  ``Inf2vecModel`` from ``repro.core.inf2vec`` aliases the same
  symbol) and usage queries; *reference* trees (:data:`REFERENCE_ROOTS`)
  contribute usage edges but are never checked, and files that do not
  parse become ``parse-error`` findings;
* :func:`build_project_graph` / :func:`build_project_graph_from_sources`
  — construct the graph from a directory tree or from in-memory
  fixture sources;
* :func:`run_rules` — apply rules to a graph, honouring
  ``# lint: disable=<rule>`` comments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.analysis.core import (
    PARSE_ERROR_RULE,
    Finding,
    ParsedFile,
    PathLike,
    Rule,
    iter_python_files,
    parse_source,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.rules.common import ImportMap

#: Repository trees whose imports count as usage in the graph but
#: which are never checked, named relative to the repository root.
REFERENCE_ROOTS = ("tests", "benchmarks", "examples")


@dataclass(frozen=True)
class ImportEdge:
    """One imported binding: ``from module import name`` or ``import module``.

    ``name`` is ``None`` for plain ``import module``; ``bound`` is the
    local alias the import creates.  Edges are collected from the whole
    tree, so lazy function-level imports (cycle guards) appear too.
    """

    module: str
    name: str | None
    bound: str
    lineno: int


def _module_name_for(relative: str, package: str | None) -> str:
    """Dotted module name of a root-relative POSIX path."""
    parts = relative.split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    if package:
        parts = [package, *parts]
    return ".".join(parts) if parts else (package or "")


def _literal_exports(tree: ast.Module) -> tuple[str, ...] | None:
    """``__all__`` as a tuple of strings, or ``None`` if absent/non-literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    value = node.value
                    if isinstance(value, (ast.List, ast.Tuple)) and all(
                        isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in value.elts
                    ):
                        return tuple(e.value for e in value.elts)
                    return None
    return None


@dataclass
class ModuleInfo:
    """One module of the project, with its resolved symbol information."""

    name: str  #: Dotted module name (``repro.core.inf2vec``).
    parsed: ParsedFile
    is_package: bool  #: Whether the file is a package ``__init__.py``.
    checked: bool  #: Rules emit findings here (False = reference-only).
    exports: tuple[str, ...] | None = None  #: Literal ``__all__``, if any.
    top_level_defs: frozenset[str] = frozenset()
    imports: tuple[ImportEdge, ...] = ()
    import_map: "ImportMap" = field(default=None, repr=False)  # type: ignore[assignment]
    #: ``(module, attr)`` pairs read as attributes of a module alias
    #: (``shared.SharedEmbedding`` after ``from repro.parallel import
    #: shared``), resolved against the project's module set.
    attribute_uses: frozenset[tuple[str, str]] = frozenset()

    def imports_symbol(self, canonical: str) -> bool:
        """Whether any local alias resolves to the canonical dotted path."""
        return any(
            resolved == canonical or resolved.startswith(canonical + ".")
            for resolved in self.import_map.aliases.values()
        ) or any(
            f"{edge.module}.{edge.name}" == canonical
            for edge in self.imports
            if edge.name is not None
        )


def _collect_imports(
    tree: ast.Module, package_parts: Sequence[str]
) -> tuple[ImportEdge, ...]:
    """Every import edge in the tree, with relative imports resolved."""
    edges: list[ImportEdge] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append(
                    ImportEdge(
                        module=alias.name,
                        name=None,
                        bound=alias.asname or alias.name.split(".")[0],
                        lineno=node.lineno,
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = list(package_parts)
                drop = node.level - 1
                if drop:
                    base = base[:-drop] if drop <= len(base) else []
                module = ".".join(
                    [*base, node.module] if node.module else base
                )
            else:
                module = node.module or ""
            if not module:
                continue
            for alias in node.names:
                edges.append(
                    ImportEdge(
                        module=module,
                        name=alias.name,
                        bound=alias.asname or alias.name,
                        lineno=node.lineno,
                    )
                )
    return tuple(edges)


def _collect_attribute_uses(
    tree: ast.Module, edges: Sequence[ImportEdge], module_names: frozenset[str]
) -> frozenset[tuple[str, str]]:
    """Resolve ``alias.attr`` chains whose alias names a project module.

    For a chain like ``repro.core.inf2vec.Inf2vecModel`` the *deepest*
    prefix that is a known module wins, recording
    ``("repro.core.inf2vec", "Inf2vecModel")``.
    """
    aliases: dict[str, str] = {}
    for edge in edges:
        if edge.name is None:
            # ``import pkg.util`` binds only ``pkg``; the dotted tail is
            # reached through attribute access, which the chain walk
            # below resolves segment by segment.  An ``as`` alias binds
            # the full dotted module instead.
            head = edge.module.split(".")[0]
            aliases[edge.bound] = head if edge.bound == head else edge.module
        else:
            aliases[edge.bound] = f"{edge.module}.{edge.name}"
    uses: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            continue
        chain.append(current.id)
        chain.reverse()
        head = aliases.get(chain[0])
        if head is None:
            continue
        parts = [*head.split("."), *chain[1:]]
        for depth in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:depth])
            if prefix in module_names:
                uses.add((prefix, parts[depth]))
                break
    return frozenset(uses)


def _top_level_def_names(tree: ast.Module) -> frozenset[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        names.add(name_node.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return frozenset(names)


class ProjectGraph:
    """The whole-project symbol table and import graph.

    ``modules`` maps dotted names to *checked* modules (rules may emit
    findings there); ``references`` holds reference-only trees — their
    imports and attribute accesses count as usage, but they are never
    the subject of a finding.  ``parse_errors`` holds one
    ``parse-error`` finding per checked file the parser rejected.
    """

    def __init__(
        self,
        modules: dict[str, ModuleInfo],
        references: dict[str, ModuleInfo],
        package: str | None = None,
        parse_errors: Sequence[Finding] = (),
    ):
        self.modules = modules
        self.references = references
        self.package = package
        self.parse_errors = tuple(parse_errors)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def module(self, name: str) -> ModuleInfo | None:
        """The checked module registered under ``name`` (or ``None``)."""
        return self.modules.get(name)

    def all_modules(self) -> Iterator[ModuleInfo]:
        """Checked modules first, then reference modules."""
        yield from self.modules.values()
        yield from self.references.values()

    def checked_modules(self) -> Iterator[ModuleInfo]:
        """Modules rules may report findings in, in sorted name order."""
        for name in sorted(self.modules):
            yield self.modules[name]

    def modules_importing(self, canonical: str) -> list[ModuleInfo]:
        """Checked modules with any alias resolving to ``canonical``."""
        return [
            info
            for info in self.checked_modules()
            if info.imports_symbol(canonical)
        ]

    def find_defining_module(self, top_level_name: str) -> ModuleInfo | None:
        """The unique checked module binding ``top_level_name`` at top level.

        Returns ``None`` when zero or several modules bind the name —
        callers that need an anchor symbol (a catalog constant, a
        policy table) treat ambiguity as absence.
        """
        owners = [
            info
            for info in self.modules.values()
            if top_level_name in info.top_level_defs
        ]
        return owners[0] if len(owners) == 1 else None

    # ------------------------------------------------------------------
    # Re-export origins and usage
    # ------------------------------------------------------------------

    def export_origin(self, module: str, name: str) -> tuple[str, str]:
        """Follow re-export ``from``-import chains to the defining module.

        ``repro.core`` binding ``Inf2vecModel`` via ``from
        repro.core.inf2vec import Inf2vecModel`` resolves to
        ``("repro.core.inf2vec", "Inf2vecModel")``; a binding that is a
        submodule object resolves to ``(submodule, "")``.  Chains stop
        at modules outside the graph.
        """
        seen: set[tuple[str, str]] = set()
        while (module, name) not in seen:
            seen.add((module, name))
            info = self.modules.get(module)
            if info is None:
                break
            hop = next(
                (
                    edge
                    for edge in info.imports
                    if edge.name is not None and edge.bound == name
                ),
                None,
            )
            if hop is None:
                break
            submodule = f"{hop.module}.{hop.name}"
            if submodule in self.modules:
                return (submodule, "")
            module, name = hop.module, hop.name
        return (module, name)

    def used_origins(self) -> frozenset[tuple[str, str]]:
        """Every symbol origin genuinely consumed somewhere in the project.

        A ``from``-import counts unless it is a re-export (the importer
        lists the bound name in its own ``__all__``); module-alias
        attribute accesses always count; reference modules (tests,
        benchmarks, ...) always count.  Origins are resolved through
        re-export chains, so importing ``repro.Inf2vecModel`` marks the
        ``repro.core.inf2vec`` definition as used.
        """
        used: set[tuple[str, str]] = set()
        for info in self.all_modules():
            reexports = frozenset(info.exports or ()) if info.checked else frozenset()
            for edge in info.imports:
                if edge.name is None or edge.module not in self.modules:
                    continue
                if edge.bound in reexports:
                    continue
                used.add(self.export_origin(edge.module, edge.name))
            for module, attr in info.attribute_uses:
                used.add(self.export_origin(module, attr))
        return frozenset(used)


def _build_module(
    parsed: ParsedFile,
    name: str,
    checked: bool,
    module_names: frozenset[str] | None = None,
) -> ModuleInfo:
    # Imported lazily: rules.common lives under the rules package, whose
    # __init__ imports the cross-file rules, which import this module.
    from repro.analysis.rules.common import ImportMap

    is_package = parsed.relative.endswith("__init__.py")
    package_parts = name.split(".") if is_package else name.split(".")[:-1]
    edges = _collect_imports(parsed.tree, package_parts)
    return ModuleInfo(
        name=name,
        parsed=parsed,
        is_package=is_package,
        checked=checked,
        exports=_literal_exports(parsed.tree),
        top_level_defs=_top_level_def_names(parsed.tree),
        imports=edges,
        import_map=ImportMap(parsed.tree),
        attribute_uses=frozenset(),
    )


def _finalize_attribute_uses(
    modules: dict[str, ModuleInfo], references: dict[str, ModuleInfo]
) -> None:
    names = frozenset(modules)
    for info in (*modules.values(), *references.values()):
        info.attribute_uses = _collect_attribute_uses(
            info.parsed.tree, info.imports, names
        )


def _parse(text: str, relative: str) -> ParsedFile | Finding:
    """The parsed file, or a ``parse-error`` finding if it does not parse."""
    try:
        return parse_source(text, relative)
    except SyntaxError as exc:
        return Finding(
            path=relative,
            line=exc.lineno or 1,
            rule_id=PARSE_ERROR_RULE,
            message=f"file does not parse: {exc.msg}",
        )


def build_project_graph(
    root: PathLike,
    reference_roots: Sequence[PathLike] = (),
) -> ProjectGraph:
    """Parse every Python file under ``root`` once and build the graph.

    When ``root`` itself is a package (contains ``__init__.py``) its
    directory name becomes the top-level package prefix, so scanning
    ``src/repro`` yields module names ``repro``, ``repro.core...``.
    Files under ``reference_roots`` (missing ones are skipped) join
    the graph as reference-only modules; one that does not parse is
    left out, since nothing is checked there.
    """
    root = Path(root)
    package = root.name if (root / "__init__.py").is_file() else None
    modules: dict[str, ModuleInfo] = {}
    parse_errors: list[Finding] = []
    for path in iter_python_files(root):
        relative = path.relative_to(root).as_posix()
        parsed = _parse(path.read_text(encoding="utf-8"), relative)
        if isinstance(parsed, Finding):
            parse_errors.append(parsed)
            continue
        name = _module_name_for(relative, package)
        modules[name] = _build_module(parsed, name, checked=True)
    references: dict[str, ModuleInfo] = {}
    for reference_root in reference_roots:
        reference_root = Path(reference_root)
        if not reference_root.is_dir():
            continue
        for path in iter_python_files(reference_root):
            relative = path.relative_to(reference_root).as_posix()
            pseudo = f"{reference_root.name}/{relative}"
            parsed = _parse(path.read_text(encoding="utf-8"), pseudo)
            if isinstance(parsed, ParsedFile):
                references[pseudo] = _build_module(parsed, pseudo, checked=False)
    _finalize_attribute_uses(modules, references)
    return ProjectGraph(modules, references, package, parse_errors)


def build_project_graph_from_sources(
    sources: Mapping[str, str],
    reference_sources: Mapping[str, str] | None = None,
) -> ProjectGraph:
    """Fixture entry: build a graph from ``{relative path: source}``.

    Paths use POSIX separators and determine module names exactly like
    :func:`build_project_graph` with no package prefix — ``"pkg/a.py"``
    becomes module ``pkg.a``.  Parse failures are handled as there.
    """
    modules: dict[str, ModuleInfo] = {}
    parse_errors: list[Finding] = []
    for relative, text in sources.items():
        parsed = _parse(text, relative)
        if isinstance(parsed, Finding):
            parse_errors.append(parsed)
            continue
        name = _module_name_for(relative, package=None)
        modules[name] = _build_module(parsed, name, checked=True)
    references: dict[str, ModuleInfo] = {}
    for relative, text in (reference_sources or {}).items():
        parsed = _parse(text, relative)
        if isinstance(parsed, ParsedFile):
            references[relative] = _build_module(parsed, relative, checked=False)
    _finalize_attribute_uses(modules, references)
    return ProjectGraph(modules, references, None, parse_errors)


def run_rules(graph: ProjectGraph, rules: Sequence[Rule]) -> list[Finding]:
    """Apply ``rules`` to ``graph``: the one runner.

    Findings on a statement carrying a matching ``# lint: disable``
    comment are dropped; the graph's ``parse-error`` findings are
    always reported.  Returns the findings sorted by path, line, rule.
    """
    by_path = {info.parsed.relative: info.parsed for info in graph.all_modules()}
    findings = list(graph.parse_errors)
    for rule in rules:
        for finding in rule.check_project(graph):
            parsed = by_path.get(finding.path)
            if parsed is not None and parsed.is_suppressed(
                finding.rule_id, finding.line
            ):
                continue
            findings.append(finding)
    return sorted(findings)


def analyze_project(
    sources: Mapping[str, str],
    rules: Sequence[Rule],
    reference_sources: Mapping[str, str] | None = None,
) -> list[Finding]:
    """Run ``rules`` over in-memory fixture ``sources``."""
    graph = build_project_graph_from_sources(sources, reference_sources)
    return run_rules(graph, rules)
