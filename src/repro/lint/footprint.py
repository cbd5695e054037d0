"""M rules: message-footprint extraction for the protocol race detector.

The Watchmen protocol is driven entirely by message handlers — the
``_on_*`` / ``_handle_*`` methods dispatch reaches after envelope
verification.  The M family extracts each handler's **footprint**:

* which ``MESSAGE_TYPES`` it *consumes* (the message-typed parameter);
* which types it *emits* (transitively, along exact call edges only —
  constructor calls, plus relays of the consumed message through a
  transmit primitive);
* which *authoritative stores* it writes (``membership``, subscriber
  ``table``, ``reputation``, ``known``, ``recency``, ``projectiles``).

Three rules fall out of the table:

* **M801** — a registered message type has no reachable handler: the
  registry admits a type the dispatch layer silently drops.
* **M802** — a handler emits a type that is *progress-bearing* (its own
  handler writes membership / subscription-table / reputation state) yet
  absent from ``ACKABLE_TYPES``: losing one fire-and-forget datagram
  would stall the protocol, the exact class of bug the ack/retry layer
  exists to prevent.
* **M803** — two handlers write the same authoritative store and the
  pair carries no commutativity annotation: their delivery order is
  observable, so the interleaving model checker (:mod:`repro.mc`) must
  explore both orders.  A reviewed ``# repro-mc: commutes[store]``
  marker on both ``def`` lines (or the comment line directly above, the
  ``repro-taint: sanitizer`` convention) records that the writes are
  order-insensitive — last-writer-wins keyed by a frame stamp, or
  idempotent — *or* that the order-sensitivity is explicitly covered by
  an ``repro.mc`` scenario.

The table itself is the static half of the race detector: it is emitted
as JSON (``repro lint --footprints``) and seeds the dynamic layer's
partial-order reduction — two deliveries to the same node commute only
when their handlers' write-sets share no unannotated store.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.flow import TRANSMIT_NAMES
from repro.lint.taint import RECEIVE_ENTRY_NAMES
from repro.lint.violations import Violation

__all__ = [
    "COMMUTES_MARKER",
    "HANDLER_PREFIXES",
    "PROGRESS_STORES",
    "STORE_ATTRS",
    "STORE_OF_CALL",
    "HandlerFootprint",
    "FootprintTable",
    "extract_footprints",
    "run_footprint_rules",
]

#: Marker asserting reviewed order-insensitivity of a handler's writes to
#: one store: ``# repro-mc: commutes[known]`` (comma-separated for more).
COMMUTES_MARKER = "repro-mc: commutes"

_COMMUTES_PATTERN = re.compile(r"repro-mc:\s*commutes\[(?P<stores>[A-Za-z_ ,]+)\]")

HANDLER_PREFIXES = ("_on_", "_handle_")

#: ``self.<attr>.<method>(...)`` receivers that are authoritative stores
#: (used to disambiguate generic mutator names like ``record``).
STORE_ATTRS = frozenset(
    {"membership", "table", "recency", "projectiles", "reputation"}
)

#: Mutator method names that imply a store write wherever they appear in
#: a handler's exact closure (the S-family authoritative-sink vocabulary).
#: Reads (``current_roster``, ``interest_subscribers``, …) do not count:
#: only writes make delivery order observable.  ``heard_from`` is
#: deliberately absent: it is a monotone max-merge on the last-heard
#: frame (plus a rescind of pending suspicion), so any delivery order
#: converges to the same state — counting it would make every handler a
#: ``membership`` writer and drown the race signal in false pairs.
STORE_OF_CALL = {
    "note_own_proposal": "membership",
    "record_proposal": "membership",
    "apply_removals": "membership",
    "add_interest": "table",
    "add_vision": "table",
    "import_sets": "table",
    "submit_rating": "reputation",
}

#: Generic mutator names resolved through their receiver attribute:
#: ``self.recency.record(...)`` writes ``recency``; a bare ``record(...)``
#: on an untracked receiver is ignored.
_RECEIVER_WRITES = frozenset({"record"})

#: Subscripted/assigned ``self.<name>`` attributes that are stores.
_ATTRIBUTE_STORES = frozenset({"known", "roster"})

#: Stores whose writes advance the protocol (evictions, subscriptions,
#: accountability).  ``known``/``recency``/``projectiles`` refresh with
#: the next periodic update, so losing one write is self-healing.
PROGRESS_STORES = frozenset({"membership", "table", "reputation"})


@dataclass(slots=True)
class HandlerFootprint:
    """One handler's message footprint (see the module docstring)."""

    qname: str
    path: str
    line: int
    consumes: tuple[str, ...]
    emits: tuple[str, ...] = ()
    writes: dict[str, int] = field(default_factory=dict)  # store -> first line
    commutes: tuple[str, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "qname": self.qname,
            "path": self.path,
            "line": self.line,
            "consumes": list(self.consumes),
            "emits": list(self.emits),
            "writes": dict(sorted(self.writes.items())),
            "commutes": list(self.commutes),
        }


@dataclass(slots=True)
class FootprintTable:
    """The full handler-footprint table, JSON-exportable.

    ``by_type`` is the collapsed view the model checker consumes: for a
    message type, the union of its handlers' write-sets, and the subset
    of those stores that *every* writing handler annotated commutative.
    """

    message_types: tuple[str, ...]
    ackable_types: tuple[str, ...]
    handlers: dict[str, HandlerFootprint]

    def by_type(self) -> dict[str, dict[str, list[str]]]:
        collapsed: dict[str, dict[str, list[str]]] = {}
        for name in self.message_types:
            writes: set[str] = set()
            non_commuting: set[str] = set()
            for fp in self.handlers.values():
                if name not in fp.consumes:
                    continue
                for store in fp.writes:
                    writes.add(store)
                    if store not in fp.commutes:
                        non_commuting.add(store)
            collapsed[name] = {
                "writes": sorted(writes),
                "commutes": sorted(writes - non_commuting),
            }
        return collapsed

    def to_json(self) -> dict[str, Any]:
        return {
            "version": 1,
            "message_types": list(self.message_types),
            "ackable_types": list(self.ackable_types),
            "handlers": {
                qname: fp.to_json() for qname, fp in sorted(self.handlers.items())
            },
            "by_type": self.by_type(),
        }


def _annotation_name(annotation: ast.expr | None) -> str | None:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.rsplit(".", 1)[-1]
    return None


def _dict_str_keys(tree: ast.Module, name: str) -> tuple[str, ...] | None:
    """String keys of a module-level ``NAME = {...}`` / annotated assign."""
    for node in tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if (
            isinstance(target, ast.Name)
            and target.id == name
            and isinstance(value, ast.Dict)
        ):
            keys = []
            for key in value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.append(key.value)
            return tuple(keys)
    return None


def _tuple_names(tree: ast.Module, name: str) -> tuple[str, ...] | None:
    """Element names of a module-level ``NAME = (A, B, ...)`` assignment."""
    for node in tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if (
            isinstance(target, ast.Name)
            and target.id == name
            and isinstance(value, (ast.Tuple, ast.List))
        ):
            names = []
            for element in value.elts:
                if isinstance(element, ast.Name):
                    names.append(element.id)
                elif isinstance(element, ast.Attribute):
                    names.append(element.attr)
            return tuple(names)
    return None


def _registries(
    trees_by_rel: dict[str, ast.Module],
) -> tuple[tuple[str, ...], tuple[str, ...], str, int]:
    """(message type names, ackable names, registry path, registry line)."""
    message_types: tuple[str, ...] = ()
    ackable: tuple[str, ...] = ()
    registry_path = ""
    registry_line = 1
    for rel in sorted(trees_by_rel):
        tree = trees_by_rel[rel]
        found = _dict_str_keys(tree, "MESSAGE_TYPES")
        if found is not None and not message_types:
            message_types = found
            registry_path = rel
            for node in ast.walk(tree):
                if (
                    isinstance(node, (ast.Assign, ast.AnnAssign))
                    and any(
                        isinstance(t, ast.Name) and t.id == "MESSAGE_TYPES"
                        for t in (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                    )
                ):
                    registry_line = node.lineno
        found_ackable = _tuple_names(tree, "ACKABLE_TYPES")
        if found_ackable is not None and not ackable:
            ackable = found_ackable
    return message_types, ackable, registry_path, registry_line


def _marker_commutes(info: FunctionInfo, sources: dict[str, list[str]]) -> tuple[str, ...]:
    """Stores annotated commutative on the def line or the comment block above."""
    lines = sources.get(info.path)
    if lines is None or not 1 <= info.lineno <= len(lines):
        return ()
    candidates = [lines[info.lineno - 1]]
    index = info.lineno - 2
    while index >= 0 and lines[index].lstrip().startswith("#"):
        candidates.append(lines[index])
        index -= 1
    stores: list[str] = []
    for line in candidates:
        match = _COMMUTES_PATTERN.search(line)
        if match is not None:
            stores.extend(
                s.strip() for s in match.group("stores").split(",") if s.strip()
            )
    return tuple(dict.fromkeys(stores))


def _dispatch_boundary(name: str) -> bool:
    """Functions the closure walk must not descend into.

    A handler's footprint is *its own* synchronous work.  A node never
    sends itself anything, so a send ends at the transport and no handler
    reaches a receive entry point or another handler on the current tree
    (the retry ladder's in-place handler run starts from ``on_frame``,
    not from a handler); the cut changes no footprint today.  It keeps a
    future handler-to-handler call from folding the dispatch ladder into
    every handler, which would make all footprints identical and the
    M803/POR independence relation vacuous.
    """
    return name in RECEIVE_ENTRY_NAMES or name.startswith(HANDLER_PREFIXES)


def _exact_closure(graph: CallGraph, start: str) -> list[str]:
    """``start`` plus everything reachable along exact edges, cut at
    dispatch boundaries (see :func:`_dispatch_boundary`)."""
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for callee in sorted(graph.exact_callees(current)):
            if callee in seen or callee not in graph.functions:
                continue
            if _dispatch_boundary(graph.functions[callee].name):
                continue
            seen.add(callee)
            order.append(callee)
            queue.append(callee)
    return order


def _callee_chain(func: ast.expr) -> tuple[str | None, str | None]:
    """(receiver attribute, method name) of an attribute call, if any."""
    if not isinstance(func, ast.Attribute):
        return None, None
    method = func.attr
    receiver = func.value
    if isinstance(receiver, ast.Attribute):
        return receiver.attr, method
    if isinstance(receiver, ast.Name):
        return receiver.id, method
    return None, method


def _scan_function(
    info: FunctionInfo,
    message_types: frozenset[str],
) -> tuple[dict[str, int], set[str], set[str]]:
    """(store writes with first line, constructed types, forwarded types).

    A *forward* is a transmit call whose first argument is a parameter
    annotated with a message type — the function relays a message it
    received.  Tracking the forwarded type precisely (instead of assuming
    any transmit may re-emit the consumed type) matters to the model
    checker: a handler that merely *responds* with a different type (the
    removal-proposal defense bursts PositionUpdates) must not be treated
    as able to cascade new captures of its own type.  Forwards through a
    local rebinding are missed; constructed-type tracking covers rebuilt
    messages, and relays in this codebase pass the parameter directly.
    """
    writes: dict[str, int] = {}
    constructed: set[str] = set()
    forwards: set[str] = set()
    param_types: dict[str, str] = {}
    spec = info.node.args
    for arg in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs):
        annotation = _annotation_name(arg.annotation)
        if annotation in message_types:
            param_types[arg.arg] = annotation

    def note(store: str, line: int) -> None:
        if store not in writes:
            writes[store] = line

    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            receiver, method = _callee_chain(node.func)
            callee = (
                node.func.id if isinstance(node.func, ast.Name) else method
            )
            if callee in message_types:
                constructed.add(callee)
            if callee in TRANSMIT_NAMES and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name) and first.id in param_types:
                    forwards.add(param_types[first.id])
            if method in STORE_OF_CALL:
                note(STORE_OF_CALL[method], node.lineno)
            elif (
                method in _RECEIVER_WRITES
                and receiver in STORE_ATTRS
            ):
                note(receiver, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                base = target
                if isinstance(base, ast.Subscript):
                    base = base.value
                if (
                    isinstance(base, ast.Attribute)
                    and base.attr in _ATTRIBUTE_STORES
                ):
                    note(base.attr, node.lineno)
    return writes, constructed, forwards


def _handler_consumes(
    info: FunctionInfo, message_types: frozenset[str]
) -> tuple[str, ...]:
    spec = info.node.args
    consumed = []
    for arg in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs):
        annotation = _annotation_name(arg.annotation)
        if annotation in message_types:
            consumed.append(annotation)
    return tuple(dict.fromkeys(consumed))


def extract_footprints(
    graph: CallGraph,
    sources: dict[str, list[str]],
    trees_by_rel: dict[str, ast.Module],
) -> FootprintTable:
    """Build the handler-footprint table for one analyzed tree."""
    message_types, ackable, _, _ = _registries(trees_by_rel)
    type_set = frozenset(message_types)
    handlers: dict[str, HandlerFootprint] = {}
    for qname in sorted(graph.functions):
        info = graph.functions[qname]
        if not info.name.startswith(HANDLER_PREFIXES):
            continue
        consumes = _handler_consumes(info, type_set)
        if not consumes:
            continue
        writes: dict[str, int] = {}
        emits: set[str] = set()
        for reached in _exact_closure(graph, qname):
            fn_writes, constructed, fn_forwards = _scan_function(
                graph.functions[reached], type_set
            )
            for store, line in fn_writes.items():
                writes.setdefault(store, line if reached == qname else info.lineno)
            emits.update(constructed)
            emits.update(fn_forwards)
        handlers[qname] = HandlerFootprint(
            qname=qname,
            path=info.path,
            line=info.lineno,
            consumes=consumes,
            emits=tuple(sorted(emits)),
            writes=writes,
            commutes=_marker_commutes(info, sources),
        )
    return FootprintTable(
        message_types=message_types,
        ackable_types=ackable,
        handlers=handlers,
    )


def _reachable_handlers(graph: CallGraph) -> frozenset[str]:
    """Handlers reachable from a receive entry point along exact edges.

    When the analyzed tree declares no receive entry at all (synthetic
    fixtures), every handler counts as reachable — M801 then only checks
    registry/handler agreement.
    """
    entries = [
        qname
        for qname, info in graph.functions.items()
        if info.name in RECEIVE_ENTRY_NAMES
    ]
    if not entries:
        return frozenset(graph.functions)
    seen: set[str] = set(entries)
    queue = deque(entries)
    while queue:
        current = queue.popleft()
        for callee in graph.exact_callees(current):
            if callee not in seen and callee in graph.functions:
                seen.add(callee)
                queue.append(callee)
    return frozenset(seen)


def run_footprint_rules(
    graph: CallGraph,
    sources: dict[str, list[str]],
    trees_by_rel: dict[str, ast.Module],
) -> tuple[list[Violation], FootprintTable]:
    """Run M801/M802/M803 and return the footprint table alongside."""
    table = extract_footprints(graph, sources, trees_by_rel)
    violations: list[Violation] = []
    if not table.message_types:
        return violations, table
    message_types, ackable, registry_path, registry_line = _registries(trees_by_rel)
    reachable = _reachable_handlers(graph)

    # M801: a registered type no reachable handler consumes.
    handled: set[str] = set()
    for qname, fp in table.handlers.items():
        if qname in reachable:
            handled.update(fp.consumes)
    for name in message_types:
        if name not in handled:
            violations.append(
                Violation(
                    rule="M801",
                    path=registry_path,
                    line=registry_line,
                    message=(
                        f"message type `{name}` is registered in MESSAGE_TYPES "
                        "but no reachable _on_*/_handle_* handler consumes it "
                        "— the dispatch layer silently drops it"
                    ),
                )
            )

    # M802: a handler emits a progress-bearing type outside ACKABLE_TYPES.
    progress_types = {
        name
        for name, fp_view in table.by_type().items()
        if any(store in PROGRESS_STORES for store in fp_view["writes"])
    }
    ackable_set = set(ackable)
    for qname in sorted(table.handlers):
        fp = table.handlers[qname]
        for emitted in fp.emits:
            if emitted in progress_types and emitted not in ackable_set:
                violations.append(
                    Violation(
                        rule="M802",
                        path=fp.path,
                        line=fp.line,
                        message=(
                            f"handler emits `{emitted}`, whose consumer writes "
                            "authoritative protocol state, but the type is not "
                            "in ACKABLE_TYPES — one lost datagram stalls the "
                            "protocol with no retry"
                        ),
                    )
                )

    # M803: an unannotated pair of handlers racing on one store.
    writers_by_store: dict[str, list[HandlerFootprint]] = {}
    for qname in sorted(table.handlers):
        fp = table.handlers[qname]
        for store in fp.writes:
            writers_by_store.setdefault(store, []).append(fp)
    for store in sorted(writers_by_store):
        writers = writers_by_store[store]
        for i, first in enumerate(writers):
            for second in writers[i + 1:]:
                if store in first.commutes and store in second.commutes:
                    continue
                unannotated = [
                    fp.qname
                    for fp in (first, second)
                    if store not in fp.commutes
                ]
                violations.append(
                    Violation(
                        rule="M803",
                        path=first.path,
                        line=first.line,
                        message=(
                            f"handlers `{first.qname.rsplit('.', 1)[-1]}` and "
                            f"`{second.qname.rsplit('.', 1)[-1]}` both write "
                            f"authoritative store `{store}` with no "
                            f"commutativity annotation on "
                            f"{', '.join(n.rsplit('.', 1)[-1] for n in unannotated)} "
                            f"— delivery order is observable; annotate "
                            f"`# {COMMUTES_MARKER}[{store}]` after review or "
                            "cover the interleaving with an repro.mc scenario"
                        ),
                    )
                )
    return violations, table
