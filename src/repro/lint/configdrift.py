"""C rules: paper-constant drift detection (C601).

``core/config.py`` is the single source of truth for the paper's magic
numbers (50 ms frame, IS size 5, 40-frame proxy period, ±60° vision cone,
1 Hz tiers…).  A literal ``0.05`` or ``40`` re-stated elsewhere *looks*
harmless until one experiment changes the config and the re-stated copy
silently keeps the old value — the two halves of the protocol then run
different papers.  C601 flags a numeric literal whose *name* (parameter,
dataclass field, or keyword argument) matches a known paper constant and
whose *value* equals that constant; the fix is to write the imported name
in place of the literal.

Name+value matching keeps the rule precise: ``fall_damage_per_speed =
0.05`` shares the value but not the meaning of ``FRAME_SECONDS`` and is
not flagged; ``frame_seconds = 0.10`` is a deliberate override and is not
flagged either.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path
from typing import Iterator

from repro.lint.violations import Violation

__all__ = ["CONSTANT_ALIASES", "extract_constants", "run_configdrift_rules"]

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


def _bindings(tree: ast.Module) -> Iterator[tuple[str, ast.expr]]:
    """``(name, value)`` of every parameter default, dataclass field
    default and keyword argument in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            yield from zip(
                (arg.arg for arg in positional[len(positional) - len(args.defaults):]),
                args.defaults,
            )
            for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
                if kw_default is not None:
                    yield arg.arg, kw_default
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and item.value is not None
                    and isinstance(item.target, ast.Name)
                ):
                    yield item.target.id, item.value
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is not None:
                    yield keyword.arg, keyword.value


def run_configdrift_rules(
    files: dict[str, ast.Module],
    sources: dict[str, list[str]],
    config_path: Path,
) -> list[Violation]:
    """C601 over every parsed in-scope file; ``sources`` completes the
    whole-program rule signature (the rule reads only the trees)."""
    constants = extract_constants(config_path)
    violations: list[Violation] = []
    for rel in sorted(files):
        if rel == CONFIG_REL or not rel.startswith(_SCOPE_PREFIXES):
            continue
        for alias, value_node in _bindings(files[rel]):
            constant = CONSTANT_ALIASES.get(alias)
            if constant is None or constant not in constants:
                continue
            value = _literal_value(value_node)
            if value is None or not _matches(value, constants[constant]):
                continue
            violations.append(
                Violation(
                    rule="C601",
                    path=rel,
                    line=value_node.lineno,
                    message=(
                        f"literal {ast.unparse(value_node)} duplicates "
                        f"{constant} (core/config.py) for '{alias}'; import "
                        "the constant instead"
                    ),
                )
            )
    return violations
