"""F rules: information-flow checks over the call graph.

Watchmen's core security property is *information asymmetry*: full-state
(IS-tier) data may only reach peers the vision-based subscription check
admitted, and everyone else gets reduced-resolution data (dead-reckoned
guidance, 1 Hz position-only snapshots).  A refactor that sends a
``StateUpdate`` to an unchecked audience, or stuffs an exact snapshot into
a guidance/position message, re-opens exactly the information-exposure
cheats of the paper's Table I — silently, because the code still runs.

* **F401** — a full-state message reaches a transmit primitive inside a
  function that neither consults a subscription/interest gate itself nor
  is dominated by one (i.e. it is reachable from the analyzed tree's API
  surface without passing through any gate-calling function).
* **F402** — a reduced-resolution message (``PositionUpdate`` /
  ``GuidanceMessage``) is built with a payload that did not pass through a
  dead-reckoning / quantization helper, leaking exact state to low-trust
  tiers.
"""

from __future__ import annotations

import ast

from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.violations import Violation

__all__ = ["run_flow_rules", "FULL_STATE_TYPES", "REDUCTION_HELPERS"]

#: Message types carrying full (IS-tier) state.
FULL_STATE_TYPES = frozenset({"StateUpdate", "FullUpdate"})

#: The transmit primitives a message can physically leave a node through,
#: plus the node's fan-out wrappers over them (message first, like
#: ``_transmit``): a relay or broadcast *is* a send to the F/S/M rules.
TRANSMIT_NAMES = frozenset(
    {
        "_transmit", "_transmit_unfiltered", "_send_many", "send_many", "send",
        "_relay", "_broadcast",
    }
)

#: Reduced-resolution message type -> the payload field that must be reduced.
REDUCED_MESSAGES = {"PositionUpdate": "snapshot", "GuidanceMessage": "prediction"}

#: Helpers that lower resolution before data leaves the IS tier.
REDUCTION_HELPERS = frozenset(
    {"position_only", "predict_linear", "quantize", "quantized"}
)

#: Modules whose functions count as subscription/interest gates.
_GATE_MODULE_PREFIXES = ("repro.core.subscriptions.", "repro.game.interest.")
_GATE_CLASS_PREFIX = "repro.core.proxy.ProxySchedule."

#: Modules the F rules inspect (the protocol + game surface; the wire codec
#: and the message definitions themselves construct messages generically).
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


def _annotation_name(annotation: ast.expr | None) -> str | None:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.rsplit(".", 1)[-1]
    return None


def _full_state_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if _annotation_name(arg.annotation) in FULL_STATE_TYPES:
            names.add(arg.arg)
    return names


def _gate_qnames(graph: CallGraph) -> frozenset[str]:
    return frozenset(
        qname
        for qname in graph.functions
        if qname.startswith(_GATE_MODULE_PREFIXES)
        or qname.startswith(_GATE_CLASS_PREFIX)
    )


#: Raw primitives (``src, destinations, frame``) carry the payload in
#: the third slot; the filtered ``_transmit`` wrappers lead with it.
_RAW_PRIMITIVES = frozenset({"_send_many", "send_many", "send"})


def _message_argument(call: ast.Call, callee: str) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg == "message":
            return keyword.value
    index = 2 if callee in _RAW_PRIMITIVES else 0
    if len(call.args) > index:
        return call.args[index]
    return None


def run_flow_rules(
    graph: CallGraph, sources: dict[str, list[str]]
) -> list[Violation]:
    """Run F401/F402 over every in-scope function.

    ``sources`` (repo-relative path -> source lines) completes the
    whole-program rule signature; the F rules read only the graph.
    """
    violations: list[Violation] = []
    gates = _gate_qnames(graph)
    gated = frozenset(
        qname for qname in graph.functions if graph.callees(qname) & gates
    )
    # Dominance approximation: anything NOT reachable from the API surface
    # while avoiding gate-calling functions is only ever entered through a
    # gate, so an ungated send inside it is still audience-checked upstream.
    exposed = graph.reachable_avoiding(graph.roots(), blocked=gated)

    reduction_qnames = frozenset(
        qname
        for qname, info in graph.functions.items()
        if info.name in REDUCTION_HELPERS
    )

    for qname, info in sorted(graph.functions.items()):
        if not _in_scope(info):
            continue
        violations.extend(_check_function_f401(graph, info, gated, exposed))
        violations.extend(_check_function_f402(graph, info, reduction_qnames))
    return violations


def _check_function_f401(
    graph: CallGraph,
    info: FunctionInfo,
    gated: frozenset[str],
    exposed: frozenset[str],
) -> list[Violation]:
    full_state_vars = _full_state_params(info.node)
    violations: list[Violation] = []
    # Pass 1 (flow-insensitive, over-approximate): every name ever bound to
    # a full-state constructor counts, regardless of statement order.
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            ctor = _callee_name(node.value.func)
            if ctor in FULL_STATE_TYPES:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        full_state_vars.add(target.id)
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        callee = _callee_name(node.func)
        if callee not in TRANSMIT_NAMES:
            continue
        message = _message_argument(node, callee)
        if message is None:
            continue
        is_full_state = False
        if isinstance(message, ast.Call):
            is_full_state = _callee_name(message.func) in FULL_STATE_TYPES
        elif isinstance(message, ast.Name):
            is_full_state = message.id in full_state_vars
        if not is_full_state:
            continue
        if info.qname in gated:
            continue  # the sending function consults a subscription gate
        if info.qname not in exposed:
            continue  # only reachable through gate-calling callers
        violations.append(
            Violation(
                rule="F401",
                path=info.path,
                line=node.lineno,
                message=(
                    f"full-state message sent by {info.qname} without a "
                    "subscription/interest-set check on the path "
                    "(core/subscriptions.py or game/interest.py)"
                ),
            )
        )
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
                    "dead-reckoning/quantization helper "
                    f"({', '.join(sorted(REDUCTION_HELPERS))}) — exact state "
                    "would leak to a reduced-resolution tier"
                ),
            )
        )
    return violations
