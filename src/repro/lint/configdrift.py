"""C rules: paper-constant drift detection (C601) and its ``--fix`` rewriter.

``core/config.py`` is the single source of truth for the paper's magic
numbers (50 ms frame, IS size 5, 40-frame proxy period, ±60° vision cone,
1 Hz tiers…).  A literal ``0.05`` or ``40`` re-stated elsewhere *looks*
harmless until one experiment changes the config and the re-stated copy
silently keeps the old value — the two halves of the protocol then run
different papers.  C601 flags a numeric literal whose *name* (parameter,
dataclass field, or keyword argument) matches a known paper constant and
whose *value* equals that constant; the fixer rewrites the literal to the
imported name.

Name+value matching keeps the rule precise: ``fall_damage_per_speed =
0.05`` shares the value but not the meaning of ``FRAME_SECONDS`` and is
not flagged; ``frame_seconds = 0.10`` is a deliberate override and is not
flagged either.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from pathlib import Path

from repro.lint.violations import Violation

__all__ = [
    "CONSTANT_ALIASES",
    "DriftSite",
    "extract_constants",
    "find_drift_sites",
    "run_configdrift_rules",
    "apply_fixes",
]

#: Repo-relative path of the constants module (also the exempt file).
CONFIG_REL = "src/repro/core/config.py"

#: parameter/field/keyword name -> constant in core/config.py.
CONSTANT_ALIASES: dict[str, str] = {
    "frame_seconds": "FRAME_SECONDS",
    "horizon_frames": "FRAMES_PER_SECOND",
    "proxy_period_frames": "PROXY_PERIOD_FRAMES",
    "subscription_retention_frames": "PROXY_PERIOD_FRAMES",
    "retention_frames": "PROXY_PERIOD_FRAMES",
    "interest_size": "INTEREST_SET_SIZE",
    "vision_half_angle": "VISION_HALF_ANGLE",
    "vision_slack": "VISION_SLACK",
    "signature_bits": "SIGNATURE_BITS",
    "silence_threshold_frames": "MEMBERSHIP_SILENCE_FRAMES",
}

#: Packages C601 sweeps (repo-relative path prefixes under the root).
_SCOPE_PREFIXES = (
    "src/repro/core/",
    "src/repro/crypto/",
    "src/repro/game/",
    "src/repro/net/",
)


@dataclass(frozen=True, slots=True)
class DriftSite:
    """One literal to flag (and, under ``--fix``, to rewrite)."""

    path: str
    line: int
    col: int
    end_line: int
    end_col: int
    alias: str  # the parameter/field/keyword name that matched
    constant: str  # the config constant it duplicates
    literal: str  # source text of the literal (for the message)


def _literal_value(node: ast.expr) -> float | None:
    """Evaluate a numeric literal or ``math.radians(<literal>)``; else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_value(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Call):
        func = node.func
        is_radians = (
            isinstance(func, ast.Attribute) and func.attr == "radians"
        ) or (isinstance(func, ast.Name) and func.id == "radians")
        if is_radians and len(node.args) == 1 and not node.keywords:
            inner = _literal_value(node.args[0])
            return None if inner is None else math.radians(inner)
    return None


def extract_constants(config_path: Path) -> dict[str, float]:
    """Module-level UPPER_CASE numeric constants defined in config.py."""
    constants: dict[str, float] = {}
    try:
        tree = ast.parse(config_path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return constants
    for node in tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        if not isinstance(target, ast.Name) or not target.id.isupper():
            continue
        assert value is not None
        evaluated = _literal_value(value)
        if evaluated is None and isinstance(value, ast.Name):
            evaluated = constants.get(value.id)  # alias of an earlier constant
        if evaluated is not None:
            constants[target.id] = evaluated
    return constants


def _matches(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-12)


def _site_for(
    path: str, alias: str, value_node: ast.expr, constants: dict[str, float]
) -> DriftSite | None:
    constant = CONSTANT_ALIASES.get(alias)
    if constant is None or constant not in constants:
        return None
    value = _literal_value(value_node)
    if value is None or not _matches(value, constants[constant]):
        return None
    return DriftSite(
        path=path,
        line=value_node.lineno,
        col=value_node.col_offset,
        end_line=value_node.end_lineno or value_node.lineno,
        end_col=value_node.end_col_offset or value_node.col_offset,
        alias=alias,
        constant=constant,
        literal=ast.unparse(value_node),
    )


def find_drift_sites(
    files: dict[str, ast.Module], constants: dict[str, float]
) -> list[DriftSite]:
    """Scan parsed in-scope files for alias-named literals."""
    sites: list[DriftSite] = []
    if not constants:
        return sites
    for rel in sorted(files):
        if rel == CONFIG_REL or not rel.startswith(_SCOPE_PREFIXES):
            continue
        tree = files[rel]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                for arg, default in zip(
                    positional[len(positional) - len(args.defaults):],
                    args.defaults,
                ):
                    site = _site_for(rel, arg.arg, default, constants)
                    if site:
                        sites.append(site)
                for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
                    if kw_default is not None:
                        site = _site_for(rel, arg.arg, kw_default, constants)
                        if site:
                            sites.append(site)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, ast.AnnAssign)
                        and item.value is not None
                        and isinstance(item.target, ast.Name)
                    ):
                        site = _site_for(
                            rel, item.target.id, item.value, constants
                        )
                        if site:
                            sites.append(site)
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg is None:
                        continue
                    site = _site_for(rel, keyword.arg, keyword.value, constants)
                    if site:
                        sites.append(site)
    # A dataclass field default is found once via ClassDef and not again via
    # FunctionDef; keyword args inside defaults could double-report — dedup.
    unique: dict[tuple[str, int, int], DriftSite] = {}
    for site in sites:
        unique.setdefault((site.path, site.line, site.col), site)
    return sorted(unique.values(), key=lambda s: (s.path, s.line, s.col))


def run_configdrift_rules(
    files: dict[str, ast.Module],
    sources: dict[str, list[str]],
    config_path: Path,
) -> list[Violation]:
    """C601 over every parsed file; ``sources`` completes the
    whole-program rule signature (the rule reads only the trees)."""
    constants = extract_constants(config_path)
    return [
        Violation(
            rule="C601",
            path=site.path,
            line=site.line,
            message=(
                f"literal {site.literal} duplicates {site.constant} "
                f"(core/config.py) for '{site.alias}'; import the "
                "constant instead (repro lint --fix rewrites it)"
            ),
        )
        for site in find_drift_sites(files, constants)
    ]


# -- the --fix rewriter ------------------------------------------------------


def _offset_table(source: str) -> list[int]:
    """Absolute offset of the start of each 1-indexed line."""
    offsets = [0]
    for line in source.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    return offsets


def _ensure_import(source: str, names: set[str]) -> str:
    """Add/merge ``from repro.core.config import …`` into ``source``."""
    lines = source.splitlines(keepends=True)
    prefix = "from repro.core.config import "
    for index, line in enumerate(lines):
        if line.startswith(prefix) and "(" not in line:
            existing = {n.strip() for n in line[len(prefix):].split(",")}
            merged = sorted((existing | names) - {""})
            lines[index] = prefix + ", ".join(merged) + "\n"
            return "".join(lines)
    new_line = prefix + ", ".join(sorted(names)) + "\n"
    last_import = None
    for index, line in enumerate(lines):
        if line.startswith(("import ", "from ")):
            last_import = index
    if last_import is not None:
        lines.insert(last_import + 1, new_line)
        return "".join(lines)
    # No imports at all: insert after the module docstring, if any.
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return new_line + source
    insert_at = 0
    if (
        tree.body
        and isinstance(tree.body[0], ast.Expr)
        and isinstance(tree.body[0].value, ast.Constant)
        and isinstance(tree.body[0].value.value, str)
    ):
        insert_at = tree.body[0].end_lineno or 0
    lines.insert(insert_at, new_line)
    return "".join(lines)


def apply_fixes(
    sites: list[DriftSite], read_source: dict[str, str]
) -> dict[str, str]:
    """Rewrite every site to its constant name; returns path -> new source.

    Sites are replaced bottom-up per file so earlier offsets stay valid,
    then a single merged config import is ensured per touched file.
    """
    by_file: dict[str, list[DriftSite]] = {}
    for site in sites:
        by_file.setdefault(site.path, []).append(site)
    fixed: dict[str, str] = {}
    for rel, file_sites in by_file.items():
        source = read_source[rel]
        offsets = _offset_table(source)
        for site in sorted(
            file_sites, key=lambda s: (s.line, s.col), reverse=True
        ):
            start = offsets[site.line - 1] + site.col
            end = offsets[site.end_line - 1] + site.end_col
            source = source[:start] + site.constant + source[end:]
        fixed[rel] = _ensure_import(
            source, {site.constant for site in file_sites}
        )
    return fixed
