"""R rules: proxy-routing and envelope-authentication checks.

Section III-B of the paper: "all traffic of a player is sent through its
proxies" — the proxy both hides network identities and is the vantage
point every verification check hangs off.  A code path that hands a
payload straight to the transport bypasses signing-side verification and
re-opens network-level cheats (suppression, timestamp games) that the
proxy exists to catch.

* **R501** — a direct transport-sink call (``Transport.send_many``-shaped:
  attribute named ``send_many``/``_send_many``/``send`` taking the
  3-argument ``(src, dsts, frame)`` shape) from ``core/node.py`` or
  ``game/*`` outside the one sanctioned egress point
  (``WatchmenNode._transmit_unfiltered``) and with no call edge into the
  proxy layer (``core/proxy.py``).
* **R502** — a dispatch handler that addresses a reply using a sender id
  read from the *payload* (``message.sender_id`` — attacker-controlled,
  spoofable) instead of the authenticated envelope source the dispatcher
  passes in (the ``src`` parameter, which the transport stamped and the
  signature check vouched for).
"""

from __future__ import annotations

import ast

from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.flow import TRANSMIT_NAMES
from repro.lint.violations import Violation

__all__ = ["run_routing_rules", "SANCTIONED_EGRESS"]

#: Attribute names that look like the raw transport sink.
_SINK_ATTRS = frozenset({"send_many", "_send_many", "send"})

#: The (src, dsts, frame) transport signature arity.
_SINK_ARITY = 3

#: The one function allowed to touch the raw transport: every message
#: funnels through it after signing + behaviour filtering, and its callers
#: route via the proxy schedule.
SANCTIONED_EGRESS = frozenset({"repro.core.node.WatchmenNode._transmit_unfiltered"})

_PROXY_MODULE_PREFIX = "repro.core.proxy."

_HANDLER_EXACT = frozenset({"on_message", "_dispatch_message"})
_HANDLER_PREFIXES = ("_on_", "_handle_")


def _in_r501_scope(info: FunctionInfo) -> bool:
    return info.module == "repro.core.node" or info.module.startswith("repro.game.")


def _is_handler(info: FunctionInfo) -> bool:
    if info.module != "repro.core.node" and not info.module.startswith(
        ("repro.core.", "repro.game.")
    ):
        return False
    return info.name in _HANDLER_EXACT or info.name.startswith(_HANDLER_PREFIXES)


def run_routing_rules(
    graph: CallGraph, sources: dict[str, list[str]]
) -> list[Violation]:
    """Run R501/R502 over every function.

    ``sources`` completes the whole-program rule signature; the R rules
    read only the graph.
    """
    violations: list[Violation] = []
    for qname, info in sorted(graph.functions.items()):
        if _in_r501_scope(info):
            violations.extend(_check_r501(graph, info))
        if _is_handler(info):
            violations.extend(_check_r502(info))
    return violations


def _check_r501(graph: CallGraph, info: FunctionInfo) -> list[Violation]:
    if info.qname in SANCTIONED_EGRESS:
        return []
    # Only exact edges count as evidence: a by-name guess to a same-named
    # method that happens to live in proxy.py must not vouch for routing.
    routes_via_proxy = any(
        callee.startswith(_PROXY_MODULE_PREFIX)
        for callee in graph.exact_callees(info.qname)
    )
    violations: list[Violation] = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _SINK_ATTRS:
            continue
        if len(node.args) + len(node.keywords) != _SINK_ARITY:
            continue  # not the (src, dsts, frame) transport shape
        if routes_via_proxy:
            continue
        violations.append(
            Violation(
                rule="R501",
                path=info.path,
                line=node.lineno,
                message=(
                    f"direct transport send in {info.qname} bypasses the "
                    "proxy layer — all outgoing traffic must flow through "
                    "core/proxy.py (route via WatchmenNode._transmit)"
                ),
            )
        )
    return violations


def _payload_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Every non-self parameter: any of them may carry a spoofable payload."""
    args = node.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    names.discard("self")
    names.discard("cls")
    return names


def _destination_arguments(call: ast.Call) -> list[ast.expr]:
    """The destination expressions of a (list-valued) transmit call: the
    elements of a literal list/tuple, or the lone expression."""
    destinations: ast.expr | None = None
    for keyword in call.keywords:
        if keyword.arg in ("destinations", "destination", "dst"):
            destinations = keyword.value
    if destinations is None and len(call.args) >= 2:
        destinations = call.args[1]
    if isinstance(destinations, (ast.List, ast.Tuple)):
        return list(destinations.elts)
    return [] if destinations is None else [destinations]


def _check_r502(info: FunctionInfo) -> list[Violation]:
    params = _payload_params(info.node)
    violations: list[Violation] = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        name = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else node.func.id
            if isinstance(node.func, ast.Name)
            else None
        )
        if name not in TRANSMIT_NAMES:
            continue
        for destination in _destination_arguments(node):
            if not (
                isinstance(destination, ast.Attribute)
                and destination.attr == "sender_id"
                and isinstance(destination.value, ast.Name)
                and destination.value.id in params
            ):
                continue
            violations.append(
                Violation(
                    rule="R502",
                    path=info.path,
                    line=node.lineno,
                    message=(
                        f"handler {info.qname} replies to "
                        f"{destination.value.id}.sender_id from the payload; "
                        "use the authenticated envelope source (the "
                        "dispatcher's src parameter) — payload sender ids "
                        "are attacker-controlled"
                    ),
                )
            )
    return violations
