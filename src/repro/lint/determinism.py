"""D-family rules: nondeterminism that breaks replay verification.

All rules are per-file AST scans over the deterministic packages
(``DETERMINISTIC_PACKAGES`` in ``lint/violations.py``).  Host clocks are
not a rule here: a clock read needs a ``time`` / ``datetime`` import, and
``tests/test_one_clock.py`` fails on one anywhere under ``src/repro`` but
the lint and mc CLIs (which time themselves) and ``obs/emit.py``.
"""

from __future__ import annotations

import ast

from repro.lint.violations import Violation

__all__ = [
    "FILE_IO_ALLOWLIST",
    "check_module_random",
    "check_float_equality",
    "check_file_io",
    "run_determinism_rules",
]

#: Files allowed to touch the filesystem despite living in deterministic
#: scope: the explicit persistence boundaries.  Everything else in scope
#: must stay pure so a replayed run cannot observe host filesystem state.
#: Additions here are a reviewed decision, not an inline ignore.
FILE_IO_ALLOWLIST = frozenset(
    {
        "src/repro/game/trace.py",  # trace JSONL save/load
        "src/repro/replay/tape.py",  # .tape read/write
        "src/repro/replay/cli.py",  # tape CLI output + divergence reports
    }
)

#: Method names whose call is a filesystem read/write wherever it appears
#: (Path methods and the io.open family share them).
_FILE_IO_ATTRS = {
    "open",
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
    "unlink",
    "mkdir",
    "rename",
}

#: random.Random / random.SystemRandom are explicit-state classes; every
#: other public name on the module draws from the hidden global state.
_RANDOM_CLASS_NAMES = {"Random", "SystemRandom"}


def check_module_random(path: str, tree: ast.AST, source_lines: list[str]) -> list[Violation]:
    """D102: `import random` / `from random import <module-state fn>`."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    violations.append(
                        Violation(
                            rule="D102",
                            path=path,
                            line=node.lineno,
                            message=(
                                "`import random` exposes the module's hidden "
                                "global state; use `from random import Random` "
                                "and inject a seeded instance"
                            ),
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module != "random" or node.level:
                continue
            for alias in node.names:
                if alias.name not in _RANDOM_CLASS_NAMES:
                    violations.append(
                        Violation(
                            rule="D102",
                            path=path,
                            line=node.lineno,
                            message=(
                                f"`from random import {alias.name}` draws from "
                                "module-global state; import Random and seed "
                                "an instance instead"
                            ),
                        )
                    )
    return violations


def check_float_equality(path: str, tree: ast.AST, source_lines: list[str]) -> list[Violation]:
    """D103: == / != against a non-zero float literal."""

    def is_nonzero_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value != 0.0
        )

    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if is_nonzero_float_literal(left) or is_nonzero_float_literal(right):
                violations.append(
                    Violation(
                        rule="D103",
                        path=path,
                        line=node.lineno,
                        message=(
                            "exact equality against a float literal depends on "
                            "rounding noise; compare with an epsilon or "
                            "math.isclose (== 0.0 guards are exempt)"
                        ),
                    )
                )
    return violations


def check_file_io(path: str, tree: ast.AST, source_lines: list[str]) -> list[Violation]:
    """D104: filesystem access outside the allowlisted persistence files.

    Protocol code that reads or writes the host filesystem makes a replay
    depend on machine state the tape cannot capture.  Persistence lives
    only in the files named in :data:`FILE_IO_ALLOWLIST` — extending that
    list is an explicit, reviewed decision (no inline ignores).
    """
    if path in FILE_IO_ALLOWLIST:
        return []
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name: str | None = None
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            name = "open"
        elif isinstance(node.func, ast.Attribute) and node.func.attr in _FILE_IO_ATTRS:
            name = node.func.attr
        if name is None:
            continue
        violations.append(
            Violation(
                rule="D104",
                path=path,
                line=node.lineno,
                message=(
                    f"file I/O `{name}()` in deterministic code; persistence "
                    "belongs in an allowlisted boundary module (see "
                    "repro.lint.determinism.FILE_IO_ALLOWLIST)"
                ),
            )
        )
    return violations


def run_determinism_rules(
    path: str, tree: ast.AST, source_lines: list[str]
) -> list[Violation]:
    """All D-family checks for one already-parsed file."""
    violations: list[Violation] = []
    violations.extend(check_module_random(path, tree, source_lines))
    violations.extend(check_float_equality(path, tree, source_lines))
    violations.extend(check_file_io(path, tree, source_lines))
    return violations
