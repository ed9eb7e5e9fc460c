"""Framework behaviour: suppressions, file iteration, parse errors."""

import textwrap

from repro.analysis import (
    PARSE_ERROR_RULE,
    Finding,
    analyze_project,
    build_project_graph,
    default_rules,
    get_rule,
    iter_python_files,
    parse_source,
    run_rules,
)

VIOLATION = "import numpy as np\nx = np.random.rand()\n"


def analyze(source, rules):
    """Findings of ``rules`` over one in-memory module."""
    return analyze_project({"<memory>.py": source}, rules)


def run_tree(root):
    """Findings of every rule over the files under ``root``."""
    return run_rules(build_project_graph(root), default_rules())


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_named_suppression_silences_that_rule(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand()  # lint: disable=no-global-rng\n"
        )
        assert analyze(source, default_rules()) == []

    def test_suppression_of_other_rule_does_not_silence(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand()  # lint: disable=no-print\n"
        )
        findings = analyze(source, default_rules())
        assert [f.rule_id for f in findings] == ["no-global-rng"]

    def test_bare_disable_silences_all_rules(self):
        source = "print(open('x', 'w'))  # lint: disable\n"
        assert analyze(source, default_rules()) == []

    def test_comma_separated_rule_list(self):
        source = (
            "print(open('x', 'w'))  "
            "# lint: disable=no-print, atomic-write-only\n"
        )
        assert analyze(source, default_rules()) == []

    def test_suppression_only_covers_its_line(self):
        source = (
            "import numpy as np\n"
            "y = np.random.rand()  # lint: disable=no-global-rng\n"
            "z = np.random.rand()\n"
        )
        findings = analyze(source, default_rules())
        assert [f.line for f in findings] == [3]

    def test_suppression_covers_the_whole_statement(self):
        # The comment sits on the first line of a multi-line call; the
        # violation node is reported on a later line of the same
        # statement and must still be silenced.
        source = (
            "import numpy as np\n"
            "x = np.mean(  # lint: disable=no-global-rng\n"
            "    np.random.rand(\n"
            "        3,\n"
            "    )\n"
            ")\n"
        )
        assert analyze(source, default_rules()) == []

    def test_comment_on_inner_line_covers_the_statement_too(self):
        source = (
            "import numpy as np\n"
            "x = np.mean(\n"
            "    np.random.rand(3),  # lint: disable=no-global-rng\n"
            ")\n"
        )
        assert analyze(source, default_rules()) == []

    def test_statement_scope_does_not_leak_to_siblings(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand()  # lint: disable=no-global-rng\n"
            "y = np.random.rand()\n"
        )
        findings = analyze(source, default_rules())
        assert [f.line for f in findings] == [3]

    def test_disable_comment_inside_string_is_inert(self):
        source = (
            'text = "lint: disable=no-global-rng"\n'
            "import numpy as np\n"
            "x = np.random.rand()\n"
        )
        parsed = parse_source(source)
        assert parsed.suppressions == {}
        findings = analyze(source, default_rules())
        assert [f.rule_id for f in findings] == ["no-global-rng"]


# ---------------------------------------------------------------------------
# File iteration
# ---------------------------------------------------------------------------


class TestFileIteration:
    def test_hidden_directories_are_skipped(self, tmp_path):
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "skipme.py").write_text(VIOLATION)
        (tmp_path / "seen.py").write_text("x = 1\n")
        files = list(iter_python_files(tmp_path))
        assert [p.name for p in files] == ["seen.py"]

    def test_findings_are_sorted_by_path_line_rule(self, tmp_path):
        (tmp_path / "b.py").write_text(VIOLATION)
        (tmp_path / "a.py").write_text("print('x')\nprint('y')\n")
        findings = run_tree(tmp_path)
        keys = [(f.path, f.line) for f in findings]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Parse errors
# ---------------------------------------------------------------------------


class TestParseErrors:
    def test_syntax_error_becomes_parse_error_finding(self):
        findings = analyze("def broken(:\n", default_rules())
        assert [f.rule_id for f in findings] == [PARSE_ERROR_RULE]
        assert "does not parse" in findings[0].message

    def test_unparsable_file_does_not_abort_the_run(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "good.py").write_text(VIOLATION)
        findings = run_tree(tmp_path)
        assert {f.rule_id for f in findings} == {PARSE_ERROR_RULE, "no-global-rng"}


# ---------------------------------------------------------------------------
# Finding rendering
# ---------------------------------------------------------------------------


def test_finding_render():
    finding = Finding(path="data/x.py", line=7, rule_id="r", message="m")
    assert finding.render() == "data/x.py:7: r: m"
    assert finding.render(prefix="src/repro") == "src/repro/data/x.py:7: r: m"


def test_fixture_entry_matches_textwrap_fixture_style():
    source = textwrap.dedent(
        """
        import time

        def f():
            return time.time()
        """
    )
    findings = analyze(source, [get_rule("no-wallclock-timing")])
    assert [f.line for f in findings] == [5]
