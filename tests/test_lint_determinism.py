"""D-family lint rules: snippets that must flag and snippets that must pass."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint.determinism import (
    FILE_IO_ALLOWLIST,
    check_file_io,
    check_float_equality,
    check_module_random,
    run_determinism_rules,
)

pytestmark = pytest.mark.lint

PATH = "src/repro/core/example.py"


def _run(check, snippet: str):
    tree = ast.parse(snippet)
    return check(PATH, tree, snippet.splitlines())


class TestModuleRandom:
    def test_flags_import_random(self):
        violations = _run(check_module_random, "import random\n")
        assert [v.rule for v in violations] == ["D102"]

    def test_flags_from_import_of_module_state_functions(self):
        snippet = "from random import choice, shuffle\n"
        assert len(_run(check_module_random, snippet)) == 2

    def test_passes_random_class_import(self):
        snippet = "from random import Random\nrng = Random(7)\n"
        assert _run(check_module_random, snippet) == []

    def test_passes_system_random(self):
        assert _run(check_module_random, "from random import SystemRandom\n") == []

    def test_flags_import_random_submodule_style(self):
        assert len(_run(check_module_random, "import random as rnd\n")) == 1


class TestFloatEquality:
    def test_flags_nonzero_literal_equality(self):
        violations = _run(check_float_equality, "ok = x == 1.5\n")
        assert [v.rule for v in violations] == ["D103"]

    def test_flags_not_equal_and_reversed_operands(self):
        snippet = "a = 2.5 != y\nb = y == 0.25\n"
        assert len(_run(check_float_equality, snippet)) == 2

    def test_flags_negative_literal(self):
        assert len(_run(check_float_equality, "a = x == -1.5\n")) == 1

    def test_zero_guard_is_exempt(self):
        snippet = "a = denom == 0.0\nb = length != 0.0\nc = x == -0.0\n"
        assert _run(check_float_equality, snippet) == []

    def test_int_equality_is_fine(self):
        assert _run(check_float_equality, "a = frame == 3\n") == []

    def test_ordering_comparisons_are_fine(self):
        assert _run(check_float_equality, "a = x <= 1.5\nb = x > 0.1\n") == []


class TestRunAll:
    def test_families_compose(self):
        snippet = (
            "import random\n"
            "eq = x == 3.25\n"
            "open('x')\n"
        )
        rules = sorted(v.rule for v in _run(run_determinism_rules, snippet))
        assert rules == ["D102", "D103", "D104"]

    def test_clean_snippet_is_clean(self):
        snippet = (
            "from random import Random\n"
            "def roll(seed: int) -> float:\n"
            "    return Random(seed).random()\n"
        )
        assert _run(run_determinism_rules, snippet) == []


class TestFileIO:
    def test_flags_builtin_open(self):
        violations = _run(check_file_io, "with open('x.json') as handle:\n    pass\n")
        assert [v.rule for v in violations] == ["D104"]
        assert "open" in violations[0].message

    def test_flags_path_read_write_methods(self):
        snippet = (
            "data = Path('x').read_bytes()\n"
            "text = Path('x').read_text()\n"
            "Path('y').write_text(text)\n"
            "Path('y').write_bytes(data)\n"
            "Path('z').mkdir()\n"
            "Path('z').unlink()\n"
        )
        assert len(_run(check_file_io, snippet)) == 6

    def test_allowlisted_files_are_exempt(self):
        tree = ast.parse("with open('x.tape') as handle:\n    pass\n")
        for allowed in sorted(FILE_IO_ALLOWLIST):
            assert check_file_io(allowed, tree, []) == []

    def test_allowlist_names_real_files(self):
        for allowed in FILE_IO_ALLOWLIST:
            assert Path(allowed).is_file(), allowed

    def test_pure_code_is_clean(self):
        snippet = "rows = [encode(r) for r in data]\nresult = json.dumps(rows)\n"
        assert _run(check_file_io, snippet) == []

    def test_run_all_includes_file_io(self):
        rules = sorted(
            v.rule for v in _run(run_determinism_rules, "open('x')\n")
        )
        assert rules == ["D104"]
