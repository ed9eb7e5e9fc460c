"""``no-wallclock-timing``: durations come from ``perf_counter``.

``time.time()`` is wall-clock: NTP slews, DST, and manual clock
adjustments make intervals derived from it wrong, and benchmark deltas
(BENCH_training.json, fig9) must be monotonic to be comparable.  All
duration measurement uses ``time.perf_counter()``.

The two legitimate *unix-timestamp* call sites — span start times in
``repro/obs/tracing.py`` and run-manifest creation in
``repro/obs/run.py``, where an absolute epoch time is the point — are
annotated with ``# lint: disable=no-wallclock-timing`` at the call
line; any new ``time.time()`` needs the same explicit opt-out.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import AstRule, Finding, ParsedFile
from repro.analysis.rules.common import ImportMap, resolve_call_target


class NoWallclockTimingRule(AstRule):
    """Forbid ``time.time()``; durations must use ``perf_counter``."""

    rule_id = "no-wallclock-timing"
    description = (
        "time.time() is wall-clock and non-monotonic; measure durations "
        "with time.perf_counter() — genuine unix-timestamp sites carry "
        "an explicit '# lint: disable=no-wallclock-timing'"
    )

    def check(self, parsed: ParsedFile) -> Iterable[Finding]:
        imports = ImportMap(parsed.tree)
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            if resolve_call_target(node, imports) == "time.time":
                yield self.finding(
                    parsed,
                    node,
                    "time.time() for timing; use time.perf_counter() for "
                    "durations (suppress explicitly if an absolute unix "
                    "timestamp is genuinely required)",
                )
