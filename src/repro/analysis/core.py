"""Framework core: findings, parsed files, suppressions, the rule protocol.

The pieces every rule builds on:

* :class:`Finding` — one violation, addressed by root-relative path,
  line, rule id, and message;
* :class:`ParsedFile` — a source file with its ``ast`` tree and the
  line-indexed ``# lint: disable=<rule>`` suppressions, parsed once
  per run and shared by every rule;
* :class:`Rule` / :class:`AstRule` — the one plugin protocol
  (``check_project(graph)``) and the base class every rule derives
  from.  A per-file rule overrides :meth:`AstRule.check`, which the
  base applies to each checked module of the graph; a cross-file rule
  overrides :meth:`AstRule.check_project` itself.

The runner lives in :mod:`repro.analysis.project`, next to the graph
it runs over.

Suppression comments apply to the whole *statement* containing the
comment's line: a disable anywhere on a multi-line call covers every
physical line of that statement (``lineno..end_lineno``), so findings
reported on the opening line are silenced by a comment on a wrapped
argument line and vice versa::

    self.start_unix = time.time()  # lint: disable=no-wallclock-timing

A bare ``# lint: disable`` (no ``=rule``) suppresses every rule on
that statement; use sparingly.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.project import ProjectGraph

PathLike = Union[str, Path]

#: Reserved rule id for files the parser rejects.
PARSE_ERROR_RULE = "parse-error"

_SUPPRESS_RE = re.compile(r"lint:\s*disable(?:=(?P<rules>[\w\-]+(?:\s*,\s*[\w\-]+)*))?")

#: Sentinel meaning "all rules suppressed on this line".
_ALL_RULES = frozenset({"*"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str  #: POSIX path relative to the scanned root.
    line: int  #: 1-indexed physical line.
    rule_id: str
    message: str

    def render(self, prefix: str = "") -> str:
        """``path:line: rule-id: message`` (optionally prefixed)."""
        location = f"{prefix}/{self.path}" if prefix else self.path
        return f"{location}:{self.line}: {self.rule_id}: {self.message}"


@dataclass
class ParsedFile:
    """A source file parsed once per run and shared by every rule."""

    relative: str  #: POSIX path relative to the scanned root.
    tree: ast.Module
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``line`` carries a disable comment covering ``rule_id``."""
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return rules is _ALL_RULES or "*" in rules or rule_id in rules


class Rule(Protocol):
    """The plugin protocol: a rule id, a description, and a check.

    :meth:`check_project` receives the whole
    :class:`~repro.analysis.project.ProjectGraph` and yields findings.
    Suppression comments are applied by the runner, never by the rule
    itself.
    """

    rule_id: str
    description: str

    def check_project(self, graph: "ProjectGraph") -> Iterable[Finding]:
        """Yield every violation of this rule across the project."""
        ...


class AstRule:
    """Base class of every rule: a shared ``finding`` constructor.

    Subclasses set ``rule_id`` / ``description`` class attributes.  A
    per-file rule implements :meth:`check`, which the default
    :meth:`check_project` applies to every checked module (reference
    trees are never checked); a cross-file rule overrides
    :meth:`check_project`.
    """

    rule_id = "abstract"
    description = "abstract base rule"

    def finding(
        self, parsed: ParsedFile, node: ast.AST | None, message: str
    ) -> Finding:
        """Build a :class:`Finding` in ``parsed`` located at ``node``."""
        return Finding(
            path=parsed.relative,
            line=getattr(node, "lineno", 1),
            rule_id=self.rule_id,
            message=message,
        )

    def check(self, parsed: ParsedFile) -> Iterable[Finding]:
        """Per-file rules override this."""
        raise NotImplementedError

    def check_project(self, graph: "ProjectGraph") -> Iterable[Finding]:
        """Apply :meth:`check` to every checked module of ``graph``."""
        for info in graph.checked_modules():
            yield from self.check(info.parsed)


def _scan_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Map line number -> suppressed rule ids from ``lint:`` comments."""
    suppressions: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressions
    for line, comment in comments:
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        listed = match.group("rules")
        if listed is None:
            suppressions[line] = _ALL_RULES
        else:
            names = frozenset(name.strip() for name in listed.split(","))
            suppressions[line] = suppressions.get(line, frozenset()) | names
    return suppressions


def _expand_suppressions_to_statements(
    tree: ast.Module, suppressions: dict[int, frozenset[str]]
) -> dict[int, frozenset[str]]:
    """Widen each suppression to its whole statement's line range.

    A ``# lint: disable`` on any physical line of a multi-line
    statement must cover findings reported on *every* line of that
    statement (rules usually report on the statement's first line,
    while the comment often sits on a wrapped argument line).  For each
    suppression we find the smallest enclosing ``ast.stmt`` span and
    apply the suppressed rules to its full ``lineno..end_lineno``
    range; a comment outside any statement keeps exact-line scope.
    """
    if not suppressions:
        return suppressions
    spans = [
        (node.lineno, node.end_lineno or node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt)
    ]
    expanded: dict[int, frozenset[str]] = {}

    def add(line: int, rules: frozenset[str]) -> None:
        existing = expanded.get(line)
        expanded[line] = rules if existing is None else existing | rules

    for line, rules in suppressions.items():
        add(line, rules)
        enclosing = [
            (start, end) for start, end in spans if start <= line <= end
        ]
        if not enclosing:
            continue
        start, end = min(enclosing, key=lambda span: span[1] - span[0])
        for covered in range(start, end + 1):
            add(covered, rules)
    return expanded


def parse_source(text: str, relative: str = "<memory>.py") -> ParsedFile:
    """Parse ``text`` into a :class:`ParsedFile` (raises ``SyntaxError``)."""
    tree = ast.parse(text, filename=relative)
    return ParsedFile(
        relative=relative,
        tree=tree,
        suppressions=_expand_suppressions_to_statements(
            tree, _scan_suppressions(text)
        ),
    )


def iter_python_files(root: PathLike) -> Iterator[Path]:
    """All ``*.py`` files under ``root``, sorted, hidden dirs skipped."""
    root = Path(root)
    for path in sorted(root.rglob("*.py")):
        if any(part.startswith(".") for part in path.relative_to(root).parts):
            continue
        yield path
