"""repro lint CLI: exit codes, inline ignores, --explain, JSON artifact.

Exit-code contract (mirrors ``repro bench-diff``): 0 clean, 1
violations, 2 usage errors.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main
from repro.lint.engine import LintConfig, run_lint
from repro.lint.violations import DETERMINISTIC_PACKAGES

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

ACK_BRANCH = (
    "        elif isinstance(message, AckMessage):\n"
    "            self._on_ack(src, message)\n"
)

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
        assert "0 violation(s)" in capsys.readouterr().out

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


class TestBaselineWorkflow:
    """Suppression: the rule-scoped inline ignore is the only mechanism
    (the class name is kept so its test ids stay stable)."""

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
            "import random  # repro-lint: ignore[D103]\n"
        )
        assert lint_main(["--root", str(tmp_path)]) == 1

    def test_d104_reports_through_an_ignore(self, tmp_path):
        # New file I/O is an allowlist decision, never a comment.
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        (core / "publisher.py").write_text(
            "def dump(path: str) -> None:\n"
            "    open(path)  # repro-lint: ignore[D104]\n"
            "    open(path)  # repro-lint: ignore\n"
        )
        report = run_lint(LintConfig(root=tmp_path))
        assert [(v.rule, v.line) for v in report.violations] == [
            ("D104", 2),
            ("D104", 3),
        ]

    def test_protocol_findings_honour_a_rule_scoped_ignore(self, tmp_path):
        # The real messages/node/wire modules with AckMessage's dispatch
        # branch gone: M801 reports it, and an ignore on the reported line
        # silences it, like any other family's finding.
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        for name in ("messages.py", "node.py", "wire.py"):
            text = (REPO_ROOT / "src" / "repro" / "core" / name).read_text()
            if name == "node.py":
                assert ACK_BRANCH in text
                text = text.replace(ACK_BRANCH, "")
            (core / name).write_text(text)
        dropped = [
            v
            for v in run_lint(LintConfig(root=tmp_path)).violations
            if "`AckMessage`" in v.message
        ]
        assert [v.rule for v in dropped] == ["M801"]
        (violation,) = dropped
        path = tmp_path / violation.path
        lines = path.read_text().splitlines(keepends=True)
        lines[violation.line - 1] = (
            lines[violation.line - 1].rstrip("\n") + "  # repro-lint: ignore[M801]\n"
        )
        path.write_text("".join(lines))
        rules = {v.rule for v in run_lint(LintConfig(root=tmp_path)).violations}
        assert "M801" not in rules


class TestExplainAndListing:
    @pytest.mark.parametrize(
        "rule", ["D102", "D103", "D104", "F402", "R501", "S701", "M801", "T301"]
    )
    def test_every_rule_explains(self, rule, capsys):
        assert lint_main(["--explain", rule]) == 0
        out = capsys.readouterr().out
        assert rule in out
        assert "scope:" in out

    @pytest.mark.parametrize("rule", ["D102", "D103", "D104"])
    def test_d_scope_is_the_deterministic_packages(self, rule, capsys):
        assert lint_main(["--explain", rule]) == 0
        scope = capsys.readouterr().out.splitlines()[1]
        assert scope == "scope: src/repro/{" + ",".join(DETERMINISTIC_PACKAGES) + "}"

    def test_explain_is_case_insensitive(self, capsys):
        assert lint_main(["--explain", "d102"]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("D102", "M801", "T301"):
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
        assert metrics["violations.total"] == metrics["violations.D"] + metrics["violations.T"]
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


class TestRealRepo:
    def test_repo_is_lint_clean(self, capsys):
        # The acceptance criterion: `repro lint` clean on src/repro.
        assert lint_main(["--root", str(REPO_ROOT)]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_repro_cli_lint_subcommand(self, capsys):
        assert repro_main(["lint", "--root", str(REPO_ROOT)]) == 0

    def test_repro_cli_lint_explain(self, capsys):
        assert repro_main(["lint", "--explain", "M801"]) == 0
        assert "silently dropped" in capsys.readouterr().out
