"""S rules: trust-boundary taint analysis over the call graph.

The Watchmen invariant the S family guards (paper §III): nothing a peer
sent may influence authoritative state, membership, kill accounting or
reputation until its envelope has been verified — and key material must
never flow toward a send.  F402 and R501/R502 check single functions
syntactically; the S rules track the *data* interprocedurally, so moving
dispatch one function away from verification (the exact refactor the
binary-codec and async-transport roadmap items will perform) no longer
slips through.

* **S701** — an unsanitized network payload (a ``GameMessage`` entering a
  receive entry point, or a wire-decode result — the live path: a node
  opens every received buffer with ``open_frame``) reaches an authoritative
  sink: a state-store write (``known``/``roster``), a membership/
  reputation/subscription mutation, or a ``_on_*``/``_handle_*`` dispatch
  handler — on some path with no ``_verify_envelope``/signature check.
* **S702** — secret material (signing keys, registry seeds) reaches a
  send/encode call or a message constructor.
* **S703** — exact full-resolution state reaches a reduced-resolution
  payload field (the dataflow generalization of F402).

Mechanics: :mod:`repro.lint.summaries` interprets one function at a time
(gen/kill over assignments, attribute chains, tuple unpacking, call
arguments/returns); this module seeds the trust-boundary sources, then
runs a worklist fixpoint pushing argument taint along **exact** call
edges (by-name edges are evidence-tier and propagate nothing, the R501
convention) and pulling return taint back.  Every finding carries the
full interprocedural witness path.

Sanitizers are recognized by qname (the built-in registry below) or by a
``# repro-taint: sanitizer`` marker comment on the ``def`` line — the
reviewed way to teach the analysis about a new verification primitive.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass

from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.flow import REDUCED_MESSAGES, REDUCTION_HELPERS, TRANSMIT_NAMES
from repro.lint.summaries import (
    EXACT,
    PAYLOAD,
    SECRET,
    SinkHit,
    TagSet,
    TaintModel,
    TaintTag,
    analyze_function,
)
from repro.lint.violations import Violation

__all__ = [
    "SANITIZER_QNAMES",
    "SANITIZER_MARKER",
    "RECEIVE_ENTRY_NAMES",
    "TaintStats",
    "build_model",
    "run_taint_rules",
]

#: Built-in verification primitives whose (exact-tier) call kills payload
#: taint on its arguments.  Extend in source with the marker comment, not
#: here: ``def verify_thing(...):  # repro-taint: sanitizer``.
SANITIZER_QNAMES = frozenset(
    {
        "repro.core.node.WatchmenNode._verify_envelope",
        "repro.crypto.signatures.HmacSigner.verify",
        "repro.core.proxy.ProxySchedule.verify_route",
        "repro.core.proxy.ProxySchedule.verify_proxy",
        "repro.crypto.prng.draw_uint",
        "repro.crypto.prng.VerifiablePrng.below_at",
    }
)

#: Marker comment that promotes a function to sanitizer status when it
#: appears on the ``def`` line (see docs/STATIC_ANALYSIS.md).
SANITIZER_MARKER = "repro-taint: sanitizer"

#: Function names that accept traffic off the wire; their message-typed
#: parameters are the payload trust boundary.
RECEIVE_ENTRY_NAMES = frozenset({"on_message", "receive", "deliver", "handle_datagram"})

_SECRET_ATTRS = frozenset({"secret", "master_seed", "_key", "_keys"})
_SECRET_CALLS = frozenset({"key_for"})
#: Calls whose result is a message straight off the wire: the codec's
#: decoder and the frame memo a node opens received buffers through.
_PAYLOAD_CALLS = frozenset({"decode_bytes", "open_frame"})
#: Encode primitives: handing a secret to the wire codec is a send.
_ENCODE_CALLS = frozenset({"encode_bytes", "encode_signable", "encode_message"})
_EXACT_ATTRS = frozenset({"snapshot", "last_snapshot"})
_EXACT_STORES = frozenset({"known"})
_EXACT_PARAM_TYPES = frozenset({"AvatarSnapshot"})
_DECLASSIFIERS = frozenset({"sign"})
_AUTH_CALLS = frozenset(
    {
        "heard_from",
        "note_own_proposal",
        "record_proposal",
        "apply_removals",
        "add_interest",
        "add_vision",
        "import_sets",
        "submit_rating",
        "report",
        "record_frame",
    }
)
_AUTH_STORES = frozenset({"known", "roster"})
_HANDLER_PREFIXES = ("_on_", "_handle_")
_SECRET_EXEMPT_PREFIXES = ("repro.crypto",)

#: Findings are reported for the protocol + game surface, mirroring the F
#: rules; propagation still crosses the whole tree.
_SCOPE_PREFIXES = ("repro.core.", "repro.game.")
_SCOPE_EXCLUDED = ("repro.core.wire", "repro.core.messages", "repro.core.config")

#: Worklist visits per function before the fixpoint bails out; generous —
#: real convergence is 2–3 visits per function on this tree.
_VISITS_PER_FUNCTION = 20


@dataclass(frozen=True, slots=True)
class TaintStats:
    """Fixpoint effort counters, surfaced in the ``lint_wall`` bench row."""

    functions_analyzed: int
    fixpoint_iterations: int


def _annotation_name(annotation: ast.expr | None) -> str | None:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.rsplit(".", 1)[-1]
    return None


def _marker_sanitizers(
    graph: CallGraph, sources: dict[str, list[str]]
) -> frozenset[str]:
    """Functions marked as sanitizers in source.

    The marker counts on the ``def`` line itself or on a comment line
    directly above it (long signatures leave no room on the def line).
    """
    marked: set[str] = set()
    for qname, info in graph.functions.items():
        lines = sources.get(info.path)
        if lines is None or not 1 <= info.lineno <= len(lines):
            continue
        candidates = [lines[info.lineno - 1]]
        if info.lineno >= 2 and lines[info.lineno - 2].lstrip().startswith("#"):
            candidates.append(lines[info.lineno - 2])
        if any(SANITIZER_MARKER in line for line in candidates):
            marked.add(qname)
    return frozenset(marked)


def build_model(graph: CallGraph, sources: dict[str, list[str]]) -> TaintModel:
    """The concrete source/sanitizer/sink tables for this tree."""
    sanitizers = SANITIZER_QNAMES | _marker_sanitizers(graph, sources)
    reducer_qnames = frozenset(
        qname
        for qname, info in graph.functions.items()
        if info.name in REDUCTION_HELPERS
    )
    message_ctors = graph.classes_in("repro.core.messages")
    return TaintModel(
        sanitizers=sanitizers,
        reducers=REDUCTION_HELPERS,
        declassifiers=_DECLASSIFIERS,
        secret_attrs=_SECRET_ATTRS,
        secret_calls=_SECRET_CALLS,
        payload_calls=_PAYLOAD_CALLS,
        exact_attrs=_EXACT_ATTRS,
        exact_stores=_EXACT_STORES,
        exact_param_types=_EXACT_PARAM_TYPES,
        send_names=TRANSMIT_NAMES | _ENCODE_CALLS,
        message_ctors=message_ctors,
        reduced_ctor_fields=dict(REDUCED_MESSAGES),
        auth_calls=_AUTH_CALLS,
        auth_stores=_AUTH_STORES,
        handler_prefixes=_HANDLER_PREFIXES,
        secret_exempt_prefixes=_SECRET_EXEMPT_PREFIXES,
        exempt=sanitizers | reducer_qnames,
    )


def _seed_entries(
    graph: CallGraph, model: TaintModel
) -> dict[str, dict[str, TagSet]]:
    """Trust-boundary parameters: payload at receive entries, exact state.

    ``payload`` seeds only functions *named* like receive entry points —
    handlers get their taint interprocedurally (through an unsanitized
    dispatch chain), which is exactly the property S701 checks.  ``exact``
    seeds every ``AvatarSnapshot``-typed parameter: exactness is a fact
    about the value, not about who passed it.
    """
    payload_types = frozenset({"GameMessage"}) | model.message_ctors
    entries: dict[str, dict[str, TagSet]] = {}
    for qname, info in graph.functions.items():
        if qname in model.exempt:
            continue
        params: dict[str, TagSet] = {}
        spec = info.node.args
        for arg in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs):
            annotation = _annotation_name(arg.annotation)
            if info.name in RECEIVE_ENTRY_NAMES and annotation in payload_types:
                params[arg.arg] = frozenset(
                    {
                        TaintTag(
                            kind=PAYLOAD,
                            origin=qname,
                            origin_line=arg.lineno,
                            origin_note=(
                                f"network payload parameter '{arg.arg}'"
                            ),
                        )
                    }
                )
            elif annotation in model.exact_param_types:
                params[arg.arg] = frozenset(
                    {
                        TaintTag(
                            kind=EXACT,
                            origin=qname,
                            origin_line=arg.lineno,
                            origin_note=f"exact-state parameter '{arg.arg}'",
                        )
                    }
                )
        if params:
            entries[qname] = params
    return entries


def _merge_tags(existing: TagSet, incoming: TagSet) -> tuple[TagSet, bool]:
    """Union by tag identity; the first-arriving chain is kept (shortest)."""
    have = {tag.identity() for tag in existing}
    fresh = frozenset(tag for tag in incoming if tag.identity() not in have)
    if not fresh:
        return existing, False
    return existing | fresh, True


def _in_scope(module: str) -> bool:
    if module in _SCOPE_EXCLUDED:
        return False
    return module.startswith(_SCOPE_PREFIXES) or module in ("repro.core", "repro.game")


def _short(qname: str) -> str:
    return qname[len("repro."):] if qname.startswith("repro.") else qname


_RULE_BLURBS = {
    "S701": "unsanitized network payload reaches an authoritative sink "
    "(no signature/envelope verification on this path)",
    "S702": "secret key material flows to a wire-visible sink",
    "S703": "exact full-resolution state flows into a reduced-resolution payload",
}


def _witness(hit: SinkHit, info: FunctionInfo) -> str:
    """Human-readable interprocedural path: source, hops, sink."""
    tag = hit.tag
    steps = [f"{tag.origin_note} in {_short(tag.origin)}:{tag.origin_line}"]
    steps.extend(
        f"passed on by {_short(caller)}:{line}" for caller, line in tag.chain
    )
    steps.append(f"{hit.sink_note} in {_short(info.qname)}:{hit.line}")
    return " -> ".join(steps)


def _render(
    graph: CallGraph,
    sinks_by_function: dict[str, list[SinkHit]],
    model: TaintModel,
) -> list[Violation]:
    best: dict[tuple[str, str, int], tuple[tuple[int, str, int], SinkHit, FunctionInfo]] = {}
    for qname, hits in sinks_by_function.items():
        info = graph.functions[qname]
        for hit in hits:
            if hit.rule in ("S701", "S703") and not _in_scope(info.module):
                continue
            if hit.rule == "S702" and not model.secret_active(info.module):
                continue
            key = (hit.rule, info.path, hit.line)
            rank = (len(hit.tag.chain), hit.tag.origin, hit.tag.origin_line)
            current = best.get(key)
            if current is None or rank < current[0]:
                best[key] = (rank, hit, info)
    return [
        Violation(
            rule=rule,
            path=path,
            line=line,
            message=f"{_RULE_BLURBS[rule]}; taint path: {_witness(hit, info)}",
        )
        for (rule, path, line), (_, hit, info) in sorted(best.items())
    ]


def run_taint_rules(
    graph: CallGraph, sources: dict[str, list[str]]
) -> tuple[list[Violation], TaintStats]:
    """Run S701/S702/S703 to fixpoint over the whole program.

    ``sources`` maps repo-relative path -> source lines (the sanitizer
    marker scan).
    """
    model = build_model(graph, sources)
    entries = _seed_entries(graph, model)
    returns: dict[str, TagSet] = {}
    empty: TagSet = frozenset()

    def return_tags_of(qname: str) -> TagSet:
        return returns.get(qname, empty)

    pending = deque(sorted(graph.functions))
    queued = set(pending)
    sinks_by_function: dict[str, list[SinkHit]] = {}
    analyzed: set[str] = set()
    iterations = 0
    cap = _VISITS_PER_FUNCTION * max(1, len(graph.functions))

    while pending and iterations < cap:
        qname = pending.popleft()
        queued.discard(qname)
        if qname in model.exempt:
            continue
        info = graph.functions[qname]
        iterations += 1
        analyzed.add(qname)
        result = analyze_function(
            graph, model, info, entries.get(qname, {}), return_tags_of
        )
        sinks_by_function[qname] = result.sinks

        for call_out in result.calls_out:
            if call_out.callee in model.exempt:
                continue
            target_entry = entries.setdefault(call_out.callee, {})
            changed = False
            for param, tags in call_out.param_tags:
                merged, grew = _merge_tags(target_entry.get(param, empty), tags)
                if grew:
                    target_entry[param] = merged
                    changed = True
            if changed and call_out.callee not in queued:
                pending.append(call_out.callee)
                queued.add(call_out.callee)

        merged_returns, grew = _merge_tags(
            returns.get(qname, empty), frozenset(result.return_tags)
        )
        if grew:
            returns[qname] = merged_returns
            for caller in sorted(graph.callers(qname)):
                if caller not in queued and caller not in model.exempt:
                    pending.append(caller)
                    queued.add(caller)

    violations = _render(graph, sinks_by_function, model)
    return violations, TaintStats(
        functions_analyzed=len(analyzed), fixpoint_iterations=iterations
    )
