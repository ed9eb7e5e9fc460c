"""repro.analysis — AST-based invariant checker for this repository.

Bitwise-identical checkpoint/resume requires every RNG draw to flow
through an explicitly seeded ``numpy`` Generator, persistence must go
through ``repro.ckpt.atomic.atomic_output``, hogwild workers must
write the shared parameter buffers in place, and every metric handle
and span name must agree with the telemetry catalog.  This package
makes those contracts machine-enforced in one pass:
:func:`~repro.analysis.project.build_project_graph` parses every file
once into a whole-project symbol table and import graph, and
:func:`~repro.analysis.project.run_rules` applies every rule in
:data:`repro.analysis.rules.ALL_RULES` to it, dropping findings under
a ``# lint: disable=<rule>`` comment.  A per-file rule checks one
module at a time; a cross-file rule sees resolved symbols across
module boundaries.  See DESIGN.md §11 "Coding invariants".

Run it locally::

    PYTHONPATH=src python -m repro.analysis            # scan src/repro
    python -m repro.analysis --list-rules              # what is enforced
    python -m repro.analysis --rules dead-export src/repro

The pytest guard (``tests/test_analysis_guard.py``) runs the full
suite over ``src/`` on every test run, so a violation fails the build
with a ``file:line`` finding.
"""

from repro.analysis.cli import main
from repro.analysis.core import (
    PARSE_ERROR_RULE,
    AstRule,
    Finding,
    ParsedFile,
    Rule,
    iter_python_files,
    parse_source,
)
from repro.analysis.project import (
    REFERENCE_ROOTS,
    ModuleInfo,
    ProjectGraph,
    analyze_project,
    build_project_graph,
    build_project_graph_from_sources,
    run_rules,
)
from repro.analysis.rules import ALL_RULES, default_rules, get_rule

__all__ = [
    "ALL_RULES",
    "AstRule",
    "Finding",
    "ModuleInfo",
    "PARSE_ERROR_RULE",
    "ParsedFile",
    "ProjectGraph",
    "REFERENCE_ROOTS",
    "Rule",
    "analyze_project",
    "build_project_graph",
    "build_project_graph_from_sources",
    "default_rules",
    "get_rule",
    "iter_python_files",
    "main",
    "parse_source",
    "run_rules",
]
