"""The lint engine: collect files, run rule families, drop inline ignores.

Dependency-free by design (stdlib ``ast`` only): the analyzer must run in
CI before anything is installed, and must never disagree with itself
across environments.

Rule scoping:

* **T rules** run on every ``src/repro`` file scanned.
* **D rules** run only inside the deterministic packages
  (``DETERMINISTIC_PACKAGES`` in ``lint/violations.py``); ``repro.obs``
  and ``repro.mc`` write artifacts on purpose.
* **F/R/C/S/M rules** are whole-program: regardless of which paths were
  requested, they analyze everything under ``<root>/src/repro`` (a call
  graph over a file subset would miss edges and lie; the S-family taint
  fixpoint additionally needs every exact call edge).  Every file is
  parsed exactly once — the scan pass and the whole-program pass share a
  cache keyed by resolved path.

The one suppression: a finding whose reported line contains
``repro-lint: ignore`` (or ``repro-lint: ignore[D102]`` to scope it) is
dropped — use sparingly, with a justifying comment; prefer fixing.  It is
applied once, at the end of :func:`run_lint`, to every family alike.
D104 is the exception: new file I/O is a reviewed ``FILE_IO_ALLOWLIST``
entry, never a comment, so an ignore does not silence it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.callgraph import ParsedModule, build_call_graph, module_name_for
from repro.lint.configdrift import run_configdrift_rules
from repro.lint.determinism import run_determinism_rules
from repro.lint.flow import run_flow_rules
from repro.lint.footprint import FootprintTable, run_footprint_rules
from repro.lint.routing import run_routing_rules
from repro.lint.taint import TaintStats, run_taint_rules
from repro.lint.typing_rules import run_typing_rules
from repro.lint.violations import DETERMINISTIC_PACKAGES, Violation, family_of

__all__ = ["LintConfig", "LintReport", "run_lint"]

_IGNORE_PATTERN = re.compile(
    r"repro-lint:\s*ignore(?:\[(?P<rules>[A-Z]\d+(?:\s*,\s*[A-Z]\d+)*)\])?"
)


@dataclass(frozen=True, slots=True)
class LintConfig:
    """One lint invocation: where to look."""

    root: Path
    paths: tuple[Path, ...] = ()

    def scan_paths(self) -> tuple[Path, ...]:
        if self.paths:
            return self.paths
        return (self.root / "src" / "repro",)

    def program_root(self) -> Path:
        """Where the whole-program families (F/R/C/S/M) look."""
        return self.root / "src" / "repro"


@dataclass(slots=True)
class LintReport:
    """What one run found, inline-ignored findings dropped."""

    violations: list[Violation] = field(default_factory=list)
    files_scanned: int = 0
    #: effort counters from the interprocedural taint pass (S rules),
    #: surfaced as the `lint_wall` bench row so CI can gate lint cost
    taint_stats: TaintStats = TaintStats(functions_analyzed=0, fixpoint_iterations=0)
    #: the M-family handler-footprint table (None when the whole-program
    #: pass did not run); exported via `repro lint --footprints` and
    #: consumed by the repro.mc partial-order reduction
    footprints: FootprintTable | None = None

    def counts_by_rule(self) -> dict[str, int]:
        return dict(Counter(v.rule for v in self.violations))

    def counts_by_family(self) -> dict[str, int]:
        return dict(Counter(family_of(v.rule) for v in self.violations))

    def summary(self) -> str:
        return (
            f"repro lint: {self.files_scanned} files, "
            f"{len(self.violations)} violation(s)"
        )

    def render(self) -> str:
        lines = [v.render() for v in sorted(
            self.violations, key=lambda v: (v.path, v.line, v.rule)
        )]
        if lines:
            by_rule = ", ".join(
                f"{rule}:{count}" for rule, count in sorted(self.counts_by_rule().items())
            )
            return "\n".join([*lines, self.summary() + f" ({by_rule})"])
        return self.summary()


def _collect_files(paths: tuple[Path, ...]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"lint target does not exist: {path}")
    # de-duplicate while keeping order
    seen: set[Path] = set()
    unique: list[Path] = []
    for file in files:
        resolved = file.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(file)
    return unique


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _repro_parts(rel: str) -> tuple[str, ...] | None:
    """Path parts below ``src/repro``, or None when outside it."""
    parts = Path(rel).parts
    if len(parts) >= 2 and parts[0] == "src" and parts[1] == "repro":
        return parts[2:]
    return None


def _in_deterministic_scope(rel: str) -> bool:
    below = _repro_parts(rel)
    return below is not None and len(below) > 1 and below[0] in DETERMINISTIC_PACKAGES


def _inline_ignored(violation: Violation, source_lines: list[str]) -> bool:
    if violation.rule == "D104" or not 1 <= violation.line <= len(source_lines):
        return False
    match = _IGNORE_PATTERN.search(source_lines[violation.line - 1])
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True
    return violation.rule in {r.strip() for r in rules.split(",")}


class _ParseCache:
    """Parse every file at most once per invocation."""

    def __init__(self, root: Path) -> None:
        self._root = root
        self._entries: dict[Path, tuple[str, ast.Module | None, list[str]]] = {}

    def parse(self, file: Path) -> tuple[str, ast.Module | None, list[str]]:
        """(rel, tree-or-None, source lines); tree is None on syntax error."""
        resolved = file.resolve()
        cached = self._entries.get(resolved)
        if cached is not None:
            return cached
        rel = _relpath(file, self._root)
        source = file.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree: ast.Module | None
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError:
            tree = None
        entry = (rel, tree, lines)
        self._entries[resolved] = entry
        return entry

    def syntax_error(self, file: Path) -> SyntaxError | None:
        try:
            ast.parse(file.read_text(encoding="utf-8"), filename=str(file))
        except SyntaxError as error:
            return error
        return None


def run_lint(config: LintConfig) -> LintReport:
    """Scan, analyze the whole program, drop inline ignores; never writes files."""
    report = LintReport()
    found: list[Violation] = []
    cache = _ParseCache(config.root)
    lines_by_rel: dict[str, list[str]] = {}

    for file in _collect_files(config.scan_paths()):
        rel, tree, source_lines = cache.parse(file)
        if _repro_parts(rel) is None and config.paths == ():
            continue
        lines_by_rel[rel] = source_lines
        report.files_scanned += 1
        if tree is None:
            error = cache.syntax_error(file)
            found.append(
                Violation(
                    rule="E000",
                    path=rel,
                    line=(error.lineno or 1) if error else 1,
                    message=(
                        f"file does not parse: {error.msg if error else 'unknown'}"
                    ),
                )
            )
            continue

        found.extend(run_typing_rules(rel, tree, source_lines))
        if _in_deterministic_scope(rel):
            found.extend(run_determinism_rules(rel, tree, source_lines))

    found.extend(_run_whole_program(config, cache, lines_by_rel, report))

    report.violations = [
        v for v in found if not _inline_ignored(v, lines_by_rel.get(v.path, []))
    ]
    return report


def _run_whole_program(
    config: LintConfig,
    cache: _ParseCache,
    lines_by_rel: dict[str, list[str]],
    report: LintReport,
) -> list[Violation]:
    """F/R/C/S/M families over the full ``<root>/src/repro`` tree."""
    program_root = config.program_root()
    if not program_root.is_dir():
        return []
    modules: list[ParsedModule] = []
    trees_by_rel: dict[str, ast.Module] = {}
    for file in sorted(program_root.rglob("*.py")):
        rel, tree, source_lines = cache.parse(file)
        if tree is None:
            continue  # E000 is reported by the scan pass when requested
        lines_by_rel.setdefault(rel, source_lines)
        trees_by_rel[rel] = tree
        module = module_name_for(rel)
        if module is not None:
            modules.append(ParsedModule(module=module, path=rel, tree=tree))

    graph = build_call_graph(modules)
    found: list[Violation] = []
    found.extend(run_flow_rules(graph, lines_by_rel))
    found.extend(run_routing_rules(graph, lines_by_rel))
    taint_violations, report.taint_stats = run_taint_rules(graph, lines_by_rel)
    found.extend(taint_violations)
    footprint_violations, report.footprints = run_footprint_rules(
        graph, lines_by_rel, trees_by_rel
    )
    found.extend(footprint_violations)
    found.extend(
        run_configdrift_rules(
            trees_by_rel,
            lines_by_rel,
            program_root / "core" / "config.py",
        )
    )
    return found
