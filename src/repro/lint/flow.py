"""F402: reduced-resolution messages carry reduced state.

Watchmen's core security property is *information asymmetry*: full-state
(IS-tier) data may only reach peers the vision-based subscription check
admitted, and everyone else gets reduced-resolution data (dead-reckoned
guidance, 1 Hz position-only snapshots).  A refactor that stuffs an exact
snapshot into a guidance/position message re-opens exactly the
information-exposure cheats of the paper's Table I — silently, because the
code still runs.

* **F402** — a reduced-resolution message (``PositionUpdate`` /
  ``GuidanceMessage``) is built with a payload that did not pass through a
  resolution-reducing helper, leaking exact state to low-trust tiers.

Who receives a ``StateUpdate`` is not a source rule: the relay audience is
part of every golden tape, so a dropped interest gate fails the corpus
replay.
"""

from __future__ import annotations

import ast

from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.violations import Violation

__all__ = ["run_flow_rules", "REDUCTION_HELPERS"]

#: The transmit primitives a message can physically leave a node through,
#: plus the node's fan-out wrappers over them (message first, like
#: ``_transmit``): a relay or broadcast *is* a send to the R/S/M rules.
TRANSMIT_NAMES = frozenset(
    {
        "_transmit", "_transmit_unfiltered", "_send_many", "send_many", "send",
        "_relay", "_broadcast",
    }
)

#: Reduced-resolution message type -> the payload field that must be reduced.
REDUCED_MESSAGES = {"PositionUpdate": "snapshot", "GuidanceMessage": "prediction"}

#: Helpers that lower resolution before data leaves the IS tier.
REDUCTION_HELPERS = frozenset({"position_only", "predict_linear"})

#: Modules F402 inspects (the protocol + game surface; the wire codec and
#: the message definitions themselves construct messages generically).
_SCOPE_PREFIXES = ("repro.core.", "repro.game.")
_SCOPE_EXCLUDED = ("repro.core.wire", "repro.core.messages", "repro.core.config")


def _in_scope(info: FunctionInfo) -> bool:
    if info.module in _SCOPE_EXCLUDED:
        return False
    return info.module.startswith(_SCOPE_PREFIXES) or info.module in (
        "repro.core",
        "repro.game",
    )


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def run_flow_rules(
    graph: CallGraph, sources: dict[str, list[str]]
) -> list[Violation]:
    """Run F402 over every in-scope function.

    ``sources`` (repo-relative path -> source lines) completes the
    whole-program rule signature; F402 reads only the graph.
    """
    violations: list[Violation] = []
    reduction_qnames = frozenset(
        qname
        for qname, info in graph.functions.items()
        if info.name in REDUCTION_HELPERS
    )
    for qname, info in sorted(graph.functions.items()):
        if _in_scope(info):
            violations.extend(_check_function_f402(graph, info, reduction_qnames))
    return violations


def _is_reduced_expr(
    graph: CallGraph,
    info: FunctionInfo,
    expr: ast.expr,
    reduced_vars: set[str],
    reduction_qnames: frozenset[str],
) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in reduced_vars
    if not isinstance(expr, ast.Call):
        return False
    name = _callee_name(expr.func)
    if name in REDUCTION_HELPERS:
        return True
    # A call into a function that itself (transitively) applies a
    # reduction helper — e.g. self._guidance_prediction -> predict_linear.
    for candidate in graph.resolve_call(info.module, info.class_name, expr):
        if candidate in reduction_qnames or graph.transitively_reaches(
            candidate, reduction_qnames
        ):
            return True
    return False


def _check_function_f402(
    graph: CallGraph,
    info: FunctionInfo,
    reduction_qnames: frozenset[str],
) -> list[Violation]:
    violations: list[Violation] = []
    reduced_vars: set[str] = set()
    # Pass 1: names bound to reduced expressions (flow-insensitive).
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _is_reduced_expr(
                graph, info, node.value, reduced_vars, reduction_qnames
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        reduced_vars.add(target.id)
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        ctor = _callee_name(node.func)
        payload_field = REDUCED_MESSAGES.get(ctor or "")
        if payload_field is None:
            continue
        payload = next(
            (kw.value for kw in node.keywords if kw.arg == payload_field), None
        )
        if payload is None:
            continue  # positional/absent: out of this rule's precision
        if _is_reduced_expr(graph, info, payload, reduced_vars, reduction_qnames):
            continue
        violations.append(
            Violation(
                rule="F402",
                path=info.path,
                line=node.lineno,
                message=(
                    f"{ctor}.{payload_field} built in {info.qname} without a "
                    "resolution-reducing helper "
                    f"({', '.join(sorted(REDUCTION_HELPERS))}) — exact state "
                    "would leak to a reduced-resolution tier"
                ),
            )
        )
    return violations
