"""``repro lint`` / ``python -m repro.lint`` — the analyzer's front end.

Exit codes mirror ``repro bench-diff``: 0 clean, 1 violations,
2 usage errors (unknown rule, unknown flag, missing path).  Every run
analyzes the whole program; explicit paths narrow only the per-file D/T
families.
"""

from __future__ import annotations

import argparse
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


def _github_annotations(report: LintReport) -> str:
    lines = [
        f"::error file={v.path},line={v.line}::{v.rule} {v.message}"
        for v in sorted(
            report.violations, key=lambda v: (v.path, v.line, v.rule)
        )
    ]
    return "\n".join([*lines, report.summary()])


def _write_json_artifact(report: LintReport, path: str, wall_seconds: float) -> None:
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
    metrics["wall_seconds"] = wall_seconds
    # The gated cost row: baseline.json carries a `lint_wall` entry, so a
    # taint-pass blowup (wall time or fixpoint effort) fails bench-diff.
    cost = {
        "wall_seconds": wall_seconds,
        "functions_analyzed": float(report.taint_stats.functions_analyzed),
        "fixpoint_iterations": float(report.taint_stats.fixpoint_iterations),
    }
    rows = [
        bench_row(bench="lint", params={}, metrics=metrics),
        bench_row(bench="lint_wall", params={}, metrics=cost),
    ]
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
    paths = tuple(Path(p) for p in args.paths)
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
        _write_json_artifact(report, args.json, wall_seconds)
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
