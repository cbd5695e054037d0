"""``repro lint`` / ``python -m repro.lint`` — the analyzer's front end.

Exit codes mirror ``repro bench-diff``: 0 clean, 1 violations,
2 usage errors (unknown rule, missing path).

``--changed-only`` keeps the pre-commit loop fast as whole-program passes
accumulate: the per-file families (D/T) scan only files that differ from
``git merge-base HEAD origin/main`` (plus untracked files) — the fork
point, so upstream churn never widens the scan — while the
whole-program families (F/R/C/S/M) still analyze the full tree — a call
graph over a subset would miss edges and lie.  When nothing under
``src/repro`` changed at all, the run short-circuits clean.  Fallback
semantics: outside a git work tree, or when ``origin/main`` is unknown
(fresh clone without the remote, detached CI checkout), the flag degrades
to a full scan — the safe direction — and says so on stderr.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

from repro.lint.engine import LintConfig, LintReport, run_lint
from repro.lint.violations import RULE_CATALOG, family_of

__all__ = ["add_lint_arguments", "build_parser", "cmd_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared between the standalone parser and the ``repro`` subcommand."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: <root>/src/repro)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root (src/repro resolves under it)",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print a rule's rationale (e.g. --explain D102) and exit",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write violation counts as a repro.bench.v1 artifact "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule with its one-line summary and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        dest="output_format",
        help="violation output format: plain text (default) or GitHub "
        "Actions ::error annotations",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="rewrite C601 config-drift literals to their named constants "
        "(adds the core/config.py import) and exit",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        dest="changed_only",
        help="scan only files changed since the merge-base with "
        "origin/main (whole-program families still analyze the full "
        "tree); falls back to a full scan outside a git repo",
    )
    parser.add_argument(
        "--footprints",
        metavar="PATH",
        help="export the M-family handler footprint table as JSON "
        "('-' for stdout); the model checker seeds its partial-order "
        "reduction from this table",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism / protocol-conformance / typing static analysis",
    )
    add_lint_arguments(parser)
    return parser


def _explain(rule: str) -> int:
    info = RULE_CATALOG.get(rule.upper())
    if info is None:
        known = ", ".join(sorted(RULE_CATALOG))
        print(f"repro lint: unknown rule {rule!r} (known: {known})", file=sys.stderr)
        return 2
    print(f"{info.rule} — {info.summary}")
    print(f"scope: {info.scope}")
    print()
    print(info.rationale)
    if info.examples:
        print()
        for example in info.examples:
            print(f"  {example}")
    return 0


def _list_rules() -> int:
    for rule in sorted(RULE_CATALOG):
        info = RULE_CATALOG[rule]
        print(f"{rule}  {info.summary}")
    return 0


def _cmd_fix(root: Path) -> int:
    """Apply the C601 autofixer in place; returns a process exit code."""
    import ast

    from repro.lint.configdrift import (
        apply_fixes,
        extract_constants,
        find_drift_sites,
    )

    program_root = root / "src" / "repro"
    if not program_root.is_dir():
        print(f"repro lint: no src/repro under {root}", file=sys.stderr)
        return 2
    constants = extract_constants(program_root / "core" / "config.py")
    files: dict[str, ast.Module] = {}
    sources: dict[str, str] = {}
    for file in sorted(program_root.rglob("*.py")):
        rel = file.resolve().relative_to(root.resolve()).as_posix()
        source = file.read_text(encoding="utf-8")
        try:
            files[rel] = ast.parse(source)
        except SyntaxError:
            continue
        sources[rel] = source
    sites = find_drift_sites(files, constants)
    if not sites:
        print("repro lint --fix: nothing to rewrite")
        return 0
    for rel, new_source in sorted(apply_fixes(sites, sources).items()):
        (root / rel).write_text(new_source, encoding="utf-8")
        count = sum(1 for s in sites if s.path == rel)
        print(f"fixed {rel}: {count} literal(s) -> named constants")
    print(f"repro lint --fix: rewrote {len(sites)} literal(s)")
    return 0


def _git_lines(root: Path, *args: str) -> list[str] | None:
    """Run one git command under ``root``; None on any failure."""
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return [line.strip() for line in proc.stdout.splitlines() if line.strip()]


def changed_paths(root: Path) -> list[Path] | None:
    """Files under ``src/repro`` that this branch touched.

    Returns None when the diff cannot be computed (not a git work tree,
    or ``origin/main`` unknown) — the caller falls back to a full scan.
    The diff base is ``git merge-base HEAD origin/main``, not
    ``origin/main`` itself: diffing against the remote tip would count
    every file *other people* changed upstream since this branch forked,
    turning the fast pre-commit loop into a near-full scan on any busy
    repo.  The list combines ``git diff --name-only <base>`` (committed,
    staged and unstaged edits) with untracked files, so a brand-new
    module is linted before its first ``git add``.
    """
    if _git_lines(root, "rev-parse", "--is-inside-work-tree") is None:
        return None
    base_lines = _git_lines(root, "merge-base", "HEAD", "origin/main")
    if not base_lines:
        return None
    diffed = _git_lines(root, "diff", "--name-only", base_lines[0])
    if diffed is None:
        return None
    untracked = (
        _git_lines(root, "ls-files", "--others", "--exclude-standard") or []
    )
    changed: list[Path] = []
    seen: set[str] = set()
    for rel in [*diffed, *untracked]:
        if rel in seen:
            continue
        seen.add(rel)
        if not rel.endswith(".py") or not rel.startswith("src/repro/"):
            continue
        path = root / rel
        if path.is_file():  # deletions need no scan
            changed.append(path)
    return sorted(changed)


def _github_annotations(report: LintReport) -> str:
    lines = [
        f"::error file={v.path},line={v.line}::{v.rule} {v.message}"
        for v in sorted(
            report.violations, key=lambda v: (v.path, v.line, v.rule)
        )
    ]
    return "\n".join([*lines, report.summary()])


def _write_json_artifact(
    report: LintReport, path: str, wall_seconds: float | None = None
) -> None:
    # Deferred import: keeps `python -m repro.lint --explain ...` usable
    # even if the obs layer grows heavier dependencies someday.
    from repro.obs.emit import bench_row, write_bench_json

    metrics: dict[str, float] = {
        "violations.total": float(len(report.violations)),
        "files.scanned": float(report.files_scanned),
    }
    families = {family_of(rule) for rule in RULE_CATALOG}
    counts_by_family = report.counts_by_family()
    for family in sorted(families):
        metrics[f"violations.{family}"] = float(counts_by_family.get(family, 0))
    for rule, count in sorted(report.counts_by_rule().items()):
        metrics[f"violations.{rule}"] = float(count)
    if wall_seconds is not None:
        metrics["wall_seconds"] = wall_seconds
    rows = [bench_row(bench="lint", params={}, metrics=metrics)]
    # The gated cost row: baseline.json carries a `lint_wall` entry, so a
    # taint-pass blowup (wall time or fixpoint effort) fails bench-diff.
    if wall_seconds is not None:
        rows.append(
            bench_row(
                bench="lint_wall",
                params={},
                metrics={
                    "wall_seconds": wall_seconds,
                    "functions_analyzed": float(
                        report.taint_stats.functions_analyzed
                    ),
                    "fixpoint_iterations": float(
                        report.taint_stats.fixpoint_iterations
                    ),
                },
            )
        )
    if path == "-":
        import json

        print(json.dumps({"schema": "repro.bench.v1", "rows": rows}, indent=2,
                         sort_keys=True))
    else:
        write_bench_json(path, rows)


def cmd_lint(args: argparse.Namespace) -> int:
    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        return _list_rules()

    root = Path(args.root)
    if not root.is_dir():
        print(f"repro lint: root is not a directory: {root}", file=sys.stderr)
        return 2
    if getattr(args, "fix", False):
        return _cmd_fix(root)

    paths = tuple(Path(p) for p in args.paths)
    if getattr(args, "changed_only", False):
        if paths:
            print(
                "repro lint: --changed-only and explicit paths are mutually "
                "exclusive",
                file=sys.stderr,
            )
            return 2
        changed = changed_paths(root)
        if changed is None:
            print(
                "repro lint: --changed-only needs a git work tree with "
                "origin/main; falling back to a full scan",
                file=sys.stderr,
            )
        elif not changed:
            print(
                "repro lint --changed-only: nothing under src/repro differs "
                "from origin/main"
            )
            if args.json:
                _write_json_artifact(LintReport(), args.json, wall_seconds=0.0)
            return 0
        else:
            paths = tuple(changed)

    started = time.perf_counter()
    try:
        report = run_lint(LintConfig(root=root, paths=paths))
    except (FileNotFoundError, ValueError) as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    wall_seconds = time.perf_counter() - started

    if getattr(args, "footprints", None):
        import json

        if report.footprints is None:
            print(
                "repro lint: no footprint table was produced (whole-program "
                "pass did not run)",
                file=sys.stderr,
            )
            return 2
        payload = json.dumps(
            report.footprints.to_json(), indent=2, sort_keys=True
        )
        if args.footprints == "-":
            print(payload)
        else:
            Path(args.footprints).write_text(payload + "\n", encoding="utf-8")

    if args.json:
        _write_json_artifact(report, args.json, wall_seconds=wall_seconds)
    if getattr(args, "output_format", "text") == "github":
        print(_github_annotations(report))
    else:
        print(report.render())
    return 1 if report.violations else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return cmd_lint(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
