"""repro lint CLI: exit codes, baseline workflow, --explain, JSON artifact.

Exit-code contract (mirrors ``repro bench-diff``): 0 clean, 1 new
violations, 2 usage errors.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent

CLEAN_MODULE = '''\
from __future__ import annotations

from random import Random


def roll(seed: int) -> float:
    return Random(seed).random()
'''

DIRTY_MODULE = '''\
from __future__ import annotations

import random


def roll():
    return random.random()
'''

pytestmark = pytest.mark.lint


def make_repo(root: Path, dirty: bool = False) -> Path:
    """A tiny lintable repo: one module under src/repro/game."""
    game = root / "src" / "repro" / "game"
    game.mkdir(parents=True)
    (game / "dice.py").write_text(DIRTY_MODULE if dirty else CLEAN_MODULE)
    return root


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        make_repo(tmp_path)
        assert lint_main(["--root", str(tmp_path)]) == 0
        assert "0 new violation(s)" in capsys.readouterr().out

    def test_injected_violation_fails_the_gate(self, tmp_path, capsys):
        # What CI runs: a freshly introduced violation must exit nonzero.
        make_repo(tmp_path, dirty=True)
        assert lint_main(["--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "D102" in out
        assert "T301" in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        make_repo(tmp_path)
        code = lint_main(["--root", str(tmp_path), str(tmp_path / "nope.py")])
        assert code == 2

    def test_bad_root_is_usage_error(self, tmp_path):
        assert lint_main(["--root", str(tmp_path / "missing")]) == 2

    def test_unknown_explain_rule_is_usage_error(self, capsys):
        assert lint_main(["--explain", "Z999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_malformed_baseline_is_usage_error(self, tmp_path, capsys):
        make_repo(tmp_path)
        bad = tmp_path / "lint-baseline.json"
        bad.write_text("{not json")
        assert lint_main(["--root", str(tmp_path)]) == 2
        assert "baseline" in capsys.readouterr().err


class TestBaselineWorkflow:
    def test_write_then_rerun_suppresses(self, tmp_path, capsys):
        make_repo(tmp_path, dirty=True)
        assert lint_main(["--root", str(tmp_path), "--write-baseline"]) == 0
        baseline = tmp_path / "lint-baseline.json"
        data = json.loads(baseline.read_text())
        assert data["schema"] == "repro.lint-baseline.v1"
        assert len(data["suppressions"]) >= 2  # D102 + T301
        capsys.readouterr()

        # The same violations are now visible-but-allowed.
        assert lint_main(["--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 new violation(s)" in out
        assert "baseline-suppressed" in out

    def test_new_violation_on_top_of_baseline_still_fails(self, tmp_path, capsys):
        root = make_repo(tmp_path, dirty=True)
        assert lint_main(["--root", str(tmp_path), "--write-baseline"]) == 0
        capsys.readouterr()
        extra = root / "src" / "repro" / "game" / "more.py"
        extra.write_text("import random\n")
        assert lint_main(["--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "more.py" in out
        assert "dice.py" not in out  # old findings stay suppressed

    def test_baseline_counts_multiplicity(self, tmp_path, capsys):
        # Two identical lines in one file: baseline of one only absorbs one.
        game = tmp_path / "src" / "repro" / "game"
        game.mkdir(parents=True)
        (game / "a.py").write_text("import random\n")
        assert lint_main(["--root", str(tmp_path), "--write-baseline"]) == 0
        (game / "a.py").write_text("import random\nimport random\n")
        capsys.readouterr()
        assert lint_main(["--root", str(tmp_path)]) == 1

    def test_no_baseline_flag_reports_everything(self, tmp_path, capsys):
        make_repo(tmp_path, dirty=True)
        assert lint_main(["--root", str(tmp_path), "--write-baseline"]) == 0
        capsys.readouterr()
        assert lint_main(["--root", str(tmp_path), "--no-baseline"]) == 1

    def test_inline_ignore_suppresses_one_rule(self, tmp_path):
        game = tmp_path / "src" / "repro" / "game"
        game.mkdir(parents=True)
        (game / "a.py").write_text(
            "import random  # repro-lint: ignore[D102]\n"
        )
        assert lint_main(["--root", str(tmp_path)]) == 0

    def test_inline_ignore_is_rule_scoped(self, tmp_path):
        game = tmp_path / "src" / "repro" / "game"
        game.mkdir(parents=True)
        (game / "a.py").write_text(
            "import random  # repro-lint: ignore[D101]\n"
        )
        assert lint_main(["--root", str(tmp_path)]) == 1


class TestExplainAndListing:
    @pytest.mark.parametrize(
        "rule", ["D101", "D102", "D103", "P201", "P202", "P203", "P205", "T301"]
    )
    def test_every_rule_explains(self, rule, capsys):
        assert lint_main(["--explain", rule]) == 0
        out = capsys.readouterr().out
        assert rule in out
        assert "scope:" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert lint_main(["--explain", "d102"]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("D101", "P203", "T301"):
            assert rule in out


class TestJsonArtifact:
    def test_bench_schema_artifact(self, tmp_path, capsys):
        make_repo(tmp_path, dirty=True)
        artifact = tmp_path / "lint-report.json"
        assert lint_main(["--root", str(tmp_path), "--json", str(artifact)]) == 1
        data = json.loads(artifact.read_text())
        assert data["schema"] == "repro.bench.v1"
        rows = {row["bench"]: row for row in data["rows"]}
        assert set(rows) == {"lint", "lint_wall"}
        metrics = rows["lint"]["metrics"]
        assert metrics["violations.total"] == metrics["violations.D"] + metrics[
            "violations.P"
        ] + metrics["violations.T"]
        assert metrics["violations.D102"] == 1.0
        assert metrics["files.scanned"] >= 1.0
        # Whole-program families report even when zero, plus wall time.
        for family in ("C", "F", "R", "S"):
            assert metrics[f"violations.{family}"] == 0.0
        assert metrics["wall_seconds"] > 0.0
        # The analyzer-cost row CI diffs against the committed baseline.
        cost = rows["lint_wall"]["metrics"]
        assert cost["wall_seconds"] == metrics["wall_seconds"]
        assert cost["functions_analyzed"] >= 1.0
        assert cost["fixpoint_iterations"] >= cost["functions_analyzed"]

    def test_json_to_stdout(self, tmp_path, capsys):
        make_repo(tmp_path)
        assert lint_main(["--root", str(tmp_path), "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload, _, summary = out.rpartition("\nrepro lint:")
        data = json.loads(payload)
        assert data["schema"] == "repro.bench.v1"


class TestDeduplication:
    def test_directory_plus_explicit_path_reports_once(self, tmp_path, capsys):
        # Satellite: the same file via the default dir scan AND an explicit
        # argument must yield each violation exactly once.
        root = make_repo(tmp_path, dirty=True)
        dice = root / "src" / "repro" / "game" / "dice.py"
        assert lint_main(["--root", str(tmp_path), str(dice)]) == 1
        out = capsys.readouterr().out
        assert out.count("D102") == 2  # finding line + summary tally, not 2 findings
        assert out.count("dice.py:3") == 1

    def test_odd_path_spelling_still_dedupes(self, tmp_path, capsys):
        root = make_repo(tmp_path, dirty=True)
        odd = (
            root / "src" / "repro" / "game" / ".." / "game" / "dice.py"
        )
        assert lint_main(["--root", str(tmp_path), str(odd)]) == 1
        out = capsys.readouterr().out
        assert out.count("dice.py:3") == 1

    def test_file_listed_twice_dedupes(self, tmp_path, capsys):
        root = make_repo(tmp_path, dirty=True)
        dice = root / "src" / "repro" / "game" / "dice.py"
        assert lint_main(["--root", str(tmp_path), str(dice), str(dice)]) == 1
        assert capsys.readouterr().out.count("dice.py:3") == 1


class TestGithubFormat:
    def test_github_annotations_on_findings(self, tmp_path, capsys):
        make_repo(tmp_path, dirty=True)
        assert lint_main(["--root", str(tmp_path), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=src/repro/game/dice.py,line=3::D102" in out

    def test_github_format_clean_tree(self, tmp_path, capsys):
        make_repo(tmp_path)
        assert lint_main(["--root", str(tmp_path), "--format", "github"]) == 0
        assert "::error" not in capsys.readouterr().out


class TestRatchet:
    def _write(self, path: Path, suppressions: list[dict]) -> Path:
        path.write_text(
            json.dumps(
                {
                    "schema": "repro.lint-baseline.v1",
                    "suppressions": suppressions,
                }
            )
        )
        return path

    ENTRY = {
        "rule": "D102",
        "path": "src/repro/game/dice.py",
        "context": "import random",
        "count": 1,
    }

    def test_identical_baselines_pass(self, tmp_path):
        from repro.lint.baseline import ratchet_regressions

        old = self._write(tmp_path / "old.json", [self.ENTRY])
        new = self._write(tmp_path / "new.json", [self.ENTRY])
        assert ratchet_regressions(old, new) == []

    def test_shrinking_passes(self, tmp_path):
        from repro.lint.baseline import ratchet_regressions

        old = self._write(tmp_path / "old.json", [self.ENTRY])
        new = self._write(tmp_path / "new.json", [])
        assert ratchet_regressions(old, new) == []

    def test_new_fingerprint_is_a_regression(self, tmp_path):
        from repro.lint.baseline import ratchet_regressions

        old = self._write(tmp_path / "old.json", [])
        new = self._write(tmp_path / "new.json", [self.ENTRY])
        regressions = ratchet_regressions(old, new)
        assert len(regressions) == 1
        assert "D102" in regressions[0]

    def test_count_increase_is_a_regression(self, tmp_path):
        from repro.lint.baseline import ratchet_regressions

        old = self._write(tmp_path / "old.json", [self.ENTRY])
        new = self._write(tmp_path / "new.json", [{**self.ENTRY, "count": 2}])
        assert len(ratchet_regressions(old, new)) == 1

    def test_ratchet_cli_exit_codes(self, tmp_path, capsys):
        from repro.lint.baseline import _ratchet_main

        old = self._write(tmp_path / "old.json", [])
        ok = self._write(tmp_path / "ok.json", [])
        bad = self._write(tmp_path / "bad.json", [self.ENTRY])
        assert _ratchet_main([str(old), str(ok)]) == 0
        assert _ratchet_main([str(old), str(bad)]) == 1
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{not json")
        assert _ratchet_main([str(old), str(malformed)]) == 2


class TestRealRepo:
    def test_repo_is_lint_clean(self, capsys):
        # The acceptance criterion: `repro lint` clean on src/repro with the
        # committed (empty) baseline.
        assert lint_main(["--root", str(REPO_ROOT)]) == 0
        assert "0 new violation(s)" in capsys.readouterr().out

    def test_repro_cli_lint_subcommand(self, capsys):
        assert repro_main(["lint", "--root", str(REPO_ROOT)]) == 0

    def test_repro_cli_lint_explain(self, capsys):
        assert repro_main(["lint", "--explain", "P202"]) == 0
        assert "demultiplexer" in capsys.readouterr().out
