"""CLI contract: exit codes, text output, rule selection."""

import pytest

from repro.analysis import ALL_RULES
from repro.analysis.cli import main

CLEAN = "x = 1\n"
VIOLATION = "import numpy as np\nx = np.random.rand()\n"


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A scannable package dir; cwd pinned so no repo tree leaks in."""
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    return pkg


def run_cli(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree):
        (tree / "ok.py").write_text(CLEAN)
        assert run_cli(str(tree)) == 0

    def test_findings_exit_nonzero(self, tree):
        (tree / "bad.py").write_text(VIOLATION)
        assert run_cli(str(tree)) == 1

    def test_usage_error_exits_two(self, tree):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(str(tree), "--rules", "no-such-rule")
        assert excinfo.value.code == 2

    def test_missing_root_exits_two(self, tree):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(str(tree / "missing"))
        assert excinfo.value.code == 2


class TestTextOutput:
    def test_findings_printed_with_file_line_rule(self, tree, capsys):
        (tree / "bad.py").write_text(VIOLATION)
        run_cli(str(tree))
        out = capsys.readouterr()
        assert f"{tree.as_posix()}/bad.py:2: no-global-rng:" in out.out
        assert "1 finding(s)" in out.err

    def test_list_rules_shows_every_id(self, capsys):
        assert run_cli("--list-rules") == 0
        out = capsys.readouterr().out
        for rule_class in ALL_RULES:
            assert rule_class.rule_id in out


class TestRuleSelection:
    def test_rules_flag_restricts_the_suite(self, tree, capsys):
        (tree / "bad.py").write_text(VIOLATION + "print('x')\n")
        assert run_cli(str(tree), "--rules", "no-print") == 1
        payload_lines = capsys.readouterr().out.splitlines()
        assert len(payload_lines) == 1
        assert "no-print" in payload_lines[0]

    def test_project_rule_id_selects_the_project_pass(self, tree, capsys):
        # dead-export is a cross-file rule: it needs the import graph,
        # and selecting it alone must not run any per-file rule.
        (tree / "impl.py").write_text(
            VIOLATION + "__all__ = ['unused']\ndef unused():\n    return 1\n"
        )
        assert run_cli(str(tree), "--rules", "dead-export") == 1
        out_lines = capsys.readouterr().out.splitlines()
        assert len(out_lines) == 1
        assert "dead-export" in out_lines[0] and "'unused'" in out_lines[0]
