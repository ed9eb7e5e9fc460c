"""The runner CLI behind ``python -m repro.analysis``.

Exit codes: **0** — clean tree; **1** — findings (each printed as
``path:line: rule-id: message``); **2** — usage error (unknown rule,
bad root).

Each root is parsed once into a project graph (see
:mod:`repro.analysis.project`) and every selected rule runs over it.
The :data:`~repro.analysis.project.REFERENCE_ROOTS` trees in the
working directory contribute usage edges to the graph but are never
checked.

This module is one of the sanctioned ``print()`` rendering surfaces
(see the ``no-print`` rule): findings go to stdout, the summary to
stderr, so piped output stays machine-readable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.core import Rule
from repro.analysis.project import REFERENCE_ROOTS, build_project_graph, run_rules
from repro.analysis.rules import ALL_RULES, default_rules, get_rule

#: The tree scanned when no root is given, relative to the cwd.
DEFAULT_ROOT = Path("src") / "repro"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.analysis`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST-based invariant checker: enforces the reproducibility, "
            "telemetry, and persistence contracts over the source tree, "
            "per file and across the whole project graph."
        ),
    )
    parser.add_argument(
        "roots",
        nargs="*",
        type=Path,
        help=f"directories to scan (default: {DEFAULT_ROOT} under the cwd)",
    )
    parser.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list rule ids with descriptions and exit",
    )
    return parser


def _select_rules(spec: str | None, parser: argparse.ArgumentParser) -> list[Rule]:
    """The rules a ``--rules`` spec names (all of them when unset)."""
    if spec is None:
        return default_rules()
    rules: list[Rule] = []
    for rule_id in spec.split(","):
        try:
            rules.append(get_rule(rule_id.strip()))
        except KeyError as exc:
            parser.error(str(exc.args[0]))
    return rules


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_class in ALL_RULES:
            print(f"{rule_class.rule_id}: {rule_class.description}")
        return 0

    rules = _select_rules(args.rules, parser)
    roots = list(args.roots) or ([DEFAULT_ROOT] if DEFAULT_ROOT.is_dir() else [])
    if not roots:
        parser.error(f"no roots given and ./{DEFAULT_ROOT} does not exist")
    for root in roots:
        if not root.is_dir():
            parser.error(f"root {root} is not a directory")
    reference_roots = [Path(name) for name in REFERENCE_ROOTS]

    count = 0
    for root in roots:
        graph = build_project_graph(root, reference_roots=reference_roots)
        for finding in run_rules(graph, rules):
            print(finding.render(prefix=root.as_posix()))
            count += 1
    print(f"{count} finding(s)", file=sys.stderr)
    return 1 if count else 0
