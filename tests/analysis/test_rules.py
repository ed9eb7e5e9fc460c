"""Per-rule fixtures: every rule has passing and failing snippets.

All fixtures are parsed from strings via ``analyze_project`` — never
from repo files — so each case documents exactly the construct it
exercises.
"""

import textwrap

import pytest

from repro.analysis import ALL_RULES, analyze_project, get_rule
from repro.analysis.rules import (
    AtomicWriteOnlyRule,
    NoBareExceptRule,
    NoGlobalRngRule,
    NoMutableDefaultArgsRule,
    NoPrintRule,
    NoWallclockTimingRule,
    PinnedApiRule,
)


def check(rule, source, relative="mod.py"):
    """Findings from one rule over a dedented snippet."""
    return analyze_project({relative: textwrap.dedent(source)}, [rule])


# ---------------------------------------------------------------------------
# no-global-rng
# ---------------------------------------------------------------------------


class TestNoGlobalRng:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\nx = np.random.rand(3)\n",
            "import numpy as np\nnp.random.seed(0)\n",
            "import numpy.random as npr\nx = npr.choice([1, 2])\n",
            "from numpy import random\nx = random.uniform()\n",
            "from numpy.random import rand\n",
            "import random\nx = random.random()\n",
            "import random as rnd\nx = rnd.randint(0, 3)\n",
            "from random import shuffle\n",
        ],
    )
    def test_flags_global_rng(self, snippet):
        findings = check(NoGlobalRngRule(), snippet)
        assert findings, snippet
        assert all(f.rule_id == "no-global-rng" for f in findings)

    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            "import numpy as np\n\ndef f(rng: np.random.Generator):\n"
            "    return rng.integers(5)\n",
            "import numpy as np\nss = np.random.SeedSequence(1)\n",
            "from numpy.random import default_rng\nrng = default_rng(0)\n",
            # A local object that happens to be named ``random``.
            "random = make_sampler()\nx = random.random()\n",
        ],
    )
    def test_allows_explicit_generators(self, snippet):
        assert check(NoGlobalRngRule(), snippet) == []

    def test_reports_file_and_line(self):
        findings = check(
            NoGlobalRngRule(), "import numpy as np\n\nx = np.random.rand()\n"
        )
        assert [(f.path, f.line) for f in findings] == [("mod.py", 3)]


# ---------------------------------------------------------------------------
# no-print
# ---------------------------------------------------------------------------


class TestNoPrint:
    def test_flags_bare_print(self):
        findings = check(NoPrintRule(), "print('hello')\n")
        assert [f.rule_id for f in findings] == ["no-print"]

    def test_flags_print_inside_helper(self):
        findings = check(
            NoPrintRule(),
            """
            def helper():
                print("nope")
            """,
        )
        assert len(findings) == 1

    def test_allows_rendering_surfaces(self):
        assert check(NoPrintRule(), "print('ok')\n", relative="cli.py") == []
        assert check(NoPrintRule(), "print('ok')\n", relative="viz/ascii.py") == []
        assert (
            check(NoPrintRule(), "print('ok')\n", relative="analysis/cli.py") == []
        )

    def test_allows_experiment_renderers_only(self):
        source = """
        def print_table():
            print("| a | b |")

        def main():
            print("rendered")

        def compute():
            print("leaked")
        """
        findings = check(NoPrintRule(), source, relative="experiments/table9.py")
        assert [f.line for f in findings] == [9]

    def test_identifier_containing_print_is_fine(self):
        assert check(NoPrintRule(), "x = config_fingerprint(1)\n") == []


# ---------------------------------------------------------------------------
# atomic-write-only
# ---------------------------------------------------------------------------


class TestAtomicWriteOnly:
    @pytest.mark.parametrize(
        "snippet",
        [
            "handle = open('out.txt', 'w')\n",
            "handle = open('out.bin', mode='wb')\n",
            "from pathlib import Path\nPath('x').open('a')\n",
            "import numpy as np\nnp.save('arr.npy', arr)\n",
            "import numpy as np\nnp.savez_compressed('arr.npz', a=arr)\n",
            "import json\n\ndef f(fh):\n    json.dump({}, fh)\n",
            "import pickle\n\ndef f(fh):\n    pickle.dump({}, fh)\n",
            "from pathlib import Path\nPath('x').write_text('data')\n",
            "arr.tofile('raw.bin')\n",
        ],
    )
    def test_flags_raw_writes(self, snippet):
        findings = check(AtomicWriteOnlyRule(), snippet)
        assert findings, snippet
        assert all(f.rule_id == "atomic-write-only" for f in findings)

    @pytest.mark.parametrize(
        "snippet",
        [
            "handle = open('in.txt', 'r')\n",
            "handle = open('in.txt')\n",
            "import json\ntext = json.dumps({})\n",
            # The sanctioned pattern: writes inside atomic_output.
            """
            import numpy as np
            from repro.ckpt.atomic import atomic_output

            def save(path, arr):
                with atomic_output(path) as tmp:
                    np.savez_compressed(tmp, arr=arr)
            """,
            """
            from repro.ckpt.atomic import atomic_output

            def save(path, rows):
                with atomic_output(path) as tmp:
                    with open(tmp, "w", encoding="utf-8") as handle:
                        handle.writelines(rows)
            """,
            # os.open with flag constants is not a mode-string write.
            "import os\nfd = os.open('x', os.O_RDONLY)\n",
        ],
    )
    def test_allows_reads_and_atomic_blocks(self, snippet):
        assert check(AtomicWriteOnlyRule(), snippet) == []

    def test_primitive_module_is_exempt(self):
        findings = check(
            AtomicWriteOnlyRule(),
            "def raw(path, data):\n    open(path, 'w').write(data)\n",
            relative="ckpt/atomic.py",
        )
        assert findings == []

    def test_write_after_atomic_block_closes_is_flagged(self):
        source = """
        from repro.ckpt.atomic import atomic_output

        def f(path):
            with atomic_output(path) as tmp:
                pass
            open(path, "w")
        """
        findings = check(AtomicWriteOnlyRule(), source)
        assert [f.line for f in findings] == [7]


# ---------------------------------------------------------------------------
# no-wallclock-timing
# ---------------------------------------------------------------------------


class TestNoWallclockTiming:
    def test_flags_time_time(self):
        findings = check(
            NoWallclockTimingRule(), "import time\nstart = time.time()\n"
        )
        assert [f.rule_id for f in findings] == ["no-wallclock-timing"]

    def test_flags_from_import_spelling(self):
        findings = check(
            NoWallclockTimingRule(), "from time import time\nstart = time()\n"
        )
        assert len(findings) == 1

    def test_allows_perf_counter(self):
        assert (
            check(
                NoWallclockTimingRule(),
                "import time\nstart = time.perf_counter()\n",
            )
            == []
        )

    def test_suppression_comment_allows_unix_timestamps(self):
        source = (
            "import time\n"
            "stamp = time.time()  # lint: disable=no-wallclock-timing\n"
        )
        assert check(NoWallclockTimingRule(), source) == []


# ---------------------------------------------------------------------------
# pinned-api
# ---------------------------------------------------------------------------


class TestPinnedApi:
    def test_package_init_must_declare_all(self):
        findings = check(
            PinnedApiRule(), "from pkg.mod import thing\n", relative="pkg/__init__.py"
        )
        assert [f.rule_id for f in findings] == ["pinned-api"]

    def test_stale_entry_is_flagged(self):
        source = "__all__ = ['gone']\n\ndef _private():\n    pass\n"
        findings = check(PinnedApiRule(), source)
        assert len(findings) == 1
        assert "never bound" in findings[0].message

    def test_dynamic_all_is_flagged(self):
        findings = check(PinnedApiRule(), "__all__ = sorted(globals())\n")
        assert len(findings) == 1
        assert "literal" in findings[0].message

    def test_duplicate_entries_are_flagged(self):
        source = "__all__ = ['f', 'f']\n\ndef f():\n    pass\n"
        findings = check(PinnedApiRule(), source)
        assert any("duplicate" in f.message for f in findings)

    def test_accurate_all_passes(self):
        source = """
        from helpers import imported_thing

        __all__ = ["CONST", "Thing", "fn", "imported_thing"]

        CONST = 1

        class Thing:
            pass

        def fn():
            pass

        def _private():
            pass
        """
        assert check(PinnedApiRule(), source, relative="pkg/__init__.py") == []

    def test_non_init_without_all_is_out_of_scope(self):
        assert check(PinnedApiRule(), "def anything():\n    pass\n") == []


# ---------------------------------------------------------------------------
# hygiene rules
# ---------------------------------------------------------------------------


class TestHygiene:
    def test_bare_except_flagged(self):
        source = "try:\n    x = 1\nexcept:\n    pass\n"
        findings = check(NoBareExceptRule(), source)
        assert [f.rule_id for f in findings] == ["no-bare-except"]

    def test_typed_except_allowed(self):
        source = (
            "try:\n    x = 1\n"
            "except ValueError:\n    pass\n"
            "except BaseException:\n    raise\n"
        )
        assert check(NoBareExceptRule(), source) == []

    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()", "[x for x in y]"]
    )
    def test_mutable_default_flagged(self, default):
        findings = check(
            NoMutableDefaultArgsRule(), f"def f(a, acc={default}):\n    pass\n"
        )
        assert [f.rule_id for f in findings] == ["no-mutable-default-args"]

    def test_kwonly_mutable_default_flagged(self):
        findings = check(
            NoMutableDefaultArgsRule(), "def f(*, acc=[]):\n    pass\n"
        )
        assert len(findings) == 1

    def test_immutable_defaults_allowed(self):
        source = "def f(a=None, b=1, c='x', d=(1, 2), e=frozenset()):\n    pass\n"
        assert check(NoMutableDefaultArgsRule(), source) == []


# ---------------------------------------------------------------------------
# Registry-wide invariants
# ---------------------------------------------------------------------------


def test_every_rule_has_id_description_and_check():
    for rule_class in ALL_RULES:
        assert rule_class.rule_id != "abstract"
        assert rule_class.description
        assert callable(rule_class().check_project)


def test_rule_ids_are_unique():
    ids = [rule_class.rule_id for rule_class in ALL_RULES]
    assert len(ids) == len(set(ids))


def test_get_rule_round_trips_every_id():
    for rule_class in ALL_RULES:
        assert type(get_rule(rule_class.rule_id)) is rule_class


def test_get_rule_unknown_id_raises():
    with pytest.raises(KeyError, match="unknown rule"):
        get_rule("no-such-rule")
