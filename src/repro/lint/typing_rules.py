"""T-family rules: annotation completeness (the substrate of the mypy gate).

T301 is the structural half of the typing story: every function must
annotate every parameter and its return type so that ``mypy --strict``
(staged per-module in pyproject.toml) has something to check.  The rule is
purely syntactic — it does not judge whether the annotations are *right*;
that is mypy's job in CI.
"""

from __future__ import annotations

import ast

from repro.lint.violations import Violation

__all__ = ["run_typing_rules", "check_annotations"]

#: first parameters that never need annotations
_IMPLICIT_FIRST = {"self", "cls"}


def _missing_parts(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    ordered = args.posonlyargs + args.args
    missing: list[str] = []
    for index, arg in enumerate(ordered):
        if index == 0 and arg.arg in _IMPLICIT_FIRST:
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    missing.extend(a.arg for a in args.kwonlyargs if a.annotation is None)
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append("*" + args.vararg.arg)
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append("**" + args.kwarg.arg)
    if func.returns is None:
        missing.append("return")
    return missing


def check_annotations(path: str, tree: ast.AST, source_lines: list[str]) -> list[Violation]:
    """T301: parameters or return type without annotations."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        missing = _missing_parts(node)
        if not missing:
            continue
        violations.append(
            Violation(
                rule="T301",
                path=path,
                line=node.lineno,
                message=(
                    f"`{node.name}` missing annotations: " + ", ".join(missing)
                ),
            )
        )
    return violations


def run_typing_rules(path: str, tree: ast.AST, source_lines: list[str]) -> list[Violation]:
    """All T-family checks for one already-parsed file."""
    return check_annotations(path, tree, source_lines)
