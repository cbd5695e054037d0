"""Per-function taint dataflow: gen/kill summaries for the S rules.

One :func:`analyze_function` call interprets a single function body against
an abstract environment mapping local names to sets of :class:`TaintTag`.
The interpreter is deliberately simple — the shape that stays debuggable
in a dependency-free linter:

* statements are processed in source order (nested blocks linearized by
  line number), repeated until the environment stabilizes (small pass
  cap), so a sanitizer call kills taint for everything textually after it
  and loop-carried assignments still converge;
* expressions *generate* taint (sources), *propagate* it (assignments,
  attribute chains, tuple unpacking, container literals, call arguments
  and results) or *kill* it (sanitizer/reducer/declassifier calls);
* a final reporting pass records sink hits, interprocedural call-outs
  (which arguments carry which tags into which exact callee) and the
  function's return tags.

Kind-specific propagation rules, chosen to match what the rules mean:

* ``payload`` and ``secret`` survive attribute access (``update.sender_id``
  is as attacker-controlled as ``update``); ``exact`` does not — reading a
  component (``snapshot.position``) is exactly the resolution reduction
  S703 wants to allow.  This is the documented "no container-element
  sensitivity" trade-off.
* Sanitizer calls kill ``payload`` on their ``Name`` arguments, but only
  when the call resolves on the *exact* tier — a by-name match to some
  other ``verify`` must not vouch (the R501 convention).
* Reducers (``position_only`` …) and declassifiers (``sign``) clean their
  *result* only; the input stays tainted.

The interprocedural fixpoint lives in :mod:`repro.lint.taint`; this module
never looks past one function except to read a callee's current return
tags through the ``return_tags_of`` callback.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

from repro.lint.callgraph import CallGraph, FunctionInfo, bind_arguments

__all__ = [
    "PAYLOAD",
    "SECRET",
    "EXACT",
    "TaintTag",
    "TaintModel",
    "CallOut",
    "SinkHit",
    "FunctionDataflow",
    "analyze_function",
]

PAYLOAD = "payload"
SECRET = "secret"
EXACT = "exact"

#: Statement passes before the reporting pass; loop-carried taint needs 2,
#: the third catches pathological orderings without unbounded work.
_MAX_PASSES = 3

#: Witness chains longer than this stop growing (recursion guard); the
#: tag still propagates, only the recorded path is truncated.
_MAX_CHAIN = 12

TagSet = frozenset["TaintTag"]
_EMPTY: TagSet = frozenset()


@dataclass(frozen=True, slots=True)
class TaintTag:
    """One taint fact: what kind, where it entered, and the path so far."""

    kind: str
    origin: str  # qname of the function where the source was introduced
    origin_line: int
    origin_note: str  # human phrasing, e.g. "parameter 'message'"
    #: interprocedural hops: (caller qname, call-site line) from origin on
    chain: tuple[tuple[str, int], ...] = ()

    def identity(self) -> tuple[str, str, int]:
        """Fixpoint identity — chains are bookkeeping, not new facts."""
        return (self.kind, self.origin, self.origin_line)

    def hopped(self, caller: str, line: int) -> "TaintTag":
        if len(self.chain) >= _MAX_CHAIN:
            return self
        return replace(self, chain=(*self.chain, (caller, line)))


@dataclass(frozen=True, slots=True)
class TaintModel:
    """The source/sanitizer/sink tables one taint run analyzes against.

    Everything is plain data so tests can build synthetic models; the real
    one (built from the rule constants plus ``# repro-taint: sanitizer``
    markers in the tree) comes from :func:`repro.lint.taint.build_model`.
    """

    #: exact qnames whose call kills PAYLOAD on its arguments
    sanitizers: frozenset[str]
    #: bare callee names whose result is EXACT-clean (resolution reducers)
    reducers: frozenset[str]
    #: bare callee names whose result is SECRET-clean (e.g. ``sign``)
    declassifiers: frozenset[str]
    #: attribute names whose read yields SECRET (key/seed material)
    secret_attrs: frozenset[str]
    #: bare callee names whose result yields SECRET (e.g. ``key_for``)
    secret_calls: frozenset[str]
    #: bare callee names whose result yields PAYLOAD (wire decode)
    payload_calls: frozenset[str]
    #: attribute names whose read yields EXACT (full-state snapshots)
    exact_attrs: frozenset[str]
    #: container names whose element read (``[...]``/``.get``) yields EXACT
    exact_stores: frozenset[str]
    #: annotation type names that seed EXACT parameters
    exact_param_types: frozenset[str]
    #: bare callee names that transmit/encode (S702 sink)
    send_names: frozenset[str]
    #: message constructor names (S702 sink: secret into a payload field)
    message_ctors: frozenset[str]
    #: reduced-resolution ctor -> payload field that must not be EXACT
    reduced_ctor_fields: Mapping[str, str]
    #: bare callee names that mutate authoritative state (S701 sink)
    auth_calls: frozenset[str]
    #: attribute names of authoritative stores (S701 sink on writes)
    auth_stores: frozenset[str]
    #: name prefixes of dispatch handlers (S701 sink on tainted entry args)
    handler_prefixes: tuple[str, ...]
    #: module prefixes where SECRET sources/sinks are exempt (the crypto
    #: layer legitimately touches key material)
    secret_exempt_prefixes: tuple[str, ...]
    #: qnames never analyzed (sanitizers and reducers examine raw input
    #: by design; flagging their bodies would be noise)
    exempt: frozenset[str]

    def secret_active(self, module: str) -> bool:
        return not module.startswith(self.secret_exempt_prefixes)


@dataclass(frozen=True, slots=True)
class CallOut:
    """Tainted arguments bound into one exact callee at one call site."""

    callee: str
    line: int
    #: callee parameter name -> tags (chains already extended by the hop)
    param_tags: tuple[tuple[str, TagSet], ...]


@dataclass(frozen=True, slots=True)
class SinkHit:
    """One tainted value reaching one sink expression."""

    rule: str
    line: int
    tag: TaintTag
    sink_note: str


@dataclass(slots=True)
class FunctionDataflow:
    """Everything one function's analysis feeds back to the fixpoint."""

    return_tags: set[TaintTag] = field(default_factory=set)
    calls_out: list[CallOut] = field(default_factory=list)
    sinks: list[SinkHit] = field(default_factory=list)


def _terminal_name(expr: ast.expr) -> str | None:
    """``self.membership`` -> ``membership``; ``known`` -> ``known``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _without(tags: TagSet, kind: str) -> TagSet:
    return frozenset(tag for tag in tags if tag.kind != kind)


def _only(tags: TagSet, kind: str) -> TagSet:
    return frozenset(tag for tag in tags if tag.kind == kind)


class _Interpreter:
    """One function body, one environment, N passes plus a reporting pass."""

    def __init__(
        self,
        graph: CallGraph,
        model: TaintModel,
        info: FunctionInfo,
        entry: Mapping[str, TagSet],
        return_tags_of: Callable[[str], TagSet],
    ) -> None:
        self.graph = graph
        self.model = model
        self.info = info
        self.env: dict[str, TagSet] = {name: tags for name, tags in entry.items() if tags}
        self.return_tags_of = return_tags_of
        self.reporting = False
        self.result = FunctionDataflow()
        self._seen_sinks: set[tuple[str, int, tuple[str, str, int]]] = set()

    # -- driver ------------------------------------------------------------

    def run(self) -> FunctionDataflow:
        statements = self._linearized_statements()
        for _ in range(_MAX_PASSES):
            before = dict(self.env)
            for stmt in statements:
                self._transfer(stmt)
            if self.env == before:
                break
        self.reporting = True
        for stmt in statements:
            self._transfer(stmt)
        return self.result

    def _linearized_statements(self) -> list[ast.stmt]:
        """Body statements in source order, nested defs' bodies excluded."""
        skip: set[int] = set()
        for node in ast.walk(self.info.node):
            if node is self.info.node:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                skip.update(id(inner) for inner in ast.walk(node))
        statements = [
            node
            for node in ast.walk(self.info.node)
            if isinstance(node, ast.stmt)
            and node is not self.info.node
            and id(node) not in skip
        ]
        statements.sort(key=lambda node: (node.lineno, node.col_offset))
        return statements

    # -- statements --------------------------------------------------------

    def _transfer(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Return):
            tags = self._eval(stmt.value) if stmt.value is not None else _EMPTY
            if self.reporting:
                self.result.return_tags.update(tags)
        elif isinstance(stmt, ast.Assign):
            tags = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, tags, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            tags = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = self.env.get(stmt.target.id, _EMPTY) | tags
                self._set(stmt.target.id, merged)
            else:
                self._check_store_sink(stmt.target, tags)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign(stmt.target, self._eval(stmt.iter), None)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tags = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, tags, None)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)

    def _assign(
        self, target: ast.expr, tags: TagSet, value: ast.expr | None
    ) -> None:
        if isinstance(target, ast.Name):
            self._set(target.id, tags)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, tags, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements: Iterable[tuple[ast.expr, TagSet]]
            if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
                target.elts
            ):
                elements = [
                    (t, self._eval(v)) for t, v in zip(target.elts, value.elts)
                ]
            else:
                elements = [(t, tags) for t in target.elts]
            for element, element_tags in elements:
                self._assign(element, element_tags, None)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            self._check_store_sink(target, tags)

    def _set(self, name: str, tags: TagSet) -> None:
        if tags:
            self.env[name] = tags
        else:
            self.env.pop(name, None)

    def _check_store_sink(self, target: ast.expr, tags: TagSet) -> None:
        """Writes into authoritative stores are S701 sinks for payload."""
        if not self.reporting:
            return
        store: str | None = None
        extra: TagSet = _EMPTY
        if isinstance(target, ast.Subscript):
            store = _terminal_name(target.value)
            extra = self._eval(target.slice)  # a payload-chosen key mutates too
        elif isinstance(target, ast.Attribute):
            store = target.attr
        if store in self.model.auth_stores:
            for tag in _only(tags | extra, PAYLOAD):
                self._sink(
                    "S701",
                    target.lineno,
                    tag,
                    f"write into authoritative store '{store}'",
                )

    # -- expressions -------------------------------------------------------

    def _eval(self, expr: ast.expr | None) -> TagSet:
        if expr is None or isinstance(expr, ast.Constant):
            return _EMPTY
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.BinOp):
            combined = self._eval(expr.left) | self._eval(expr.right)
            return _without(combined, EXACT)  # arithmetic is already a reduction
        if isinstance(expr, ast.UnaryOp):
            return _without(self._eval(expr.operand), EXACT)
        if isinstance(expr, ast.BoolOp):
            tags: TagSet = _EMPTY
            for value in expr.values:
                tags |= self._eval(value)
            return tags
        if isinstance(expr, ast.Compare):
            self._eval(expr.left)
            for comparator in expr.comparators:
                self._eval(comparator)
            return _EMPTY  # booleans: implicit flows are out of scope
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return self._eval(expr.body) | self._eval(expr.orelse)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            tags = _EMPTY
            for element in expr.elts:
                tags |= self._eval(element)
            return tags
        if isinstance(expr, ast.Dict):
            tags = _EMPTY
            for key in expr.keys:
                if key is not None:
                    tags |= self._eval(key)
            for value in expr.values:
                tags |= self._eval(value)
            return tags
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, ast.JoinedStr):
            tags = _EMPTY
            for value in expr.values:
                tags |= self._eval(value)
            return _without(tags, EXACT)
        if isinstance(expr, ast.FormattedValue):
            return _without(self._eval(expr.value), EXACT)
        if isinstance(expr, ast.NamedExpr):
            tags = self._eval(expr.value)
            self._assign(expr.target, tags, expr.value)
            return tags
        if isinstance(expr, ast.Await):
            return self._eval(expr.value)
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            # what a generator yields is what its caller's loop receives
            tags = self._eval(expr.value)
            if self.reporting:
                self.result.return_tags.update(tags)
            return _EMPTY
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return self._eval_comprehension(expr)
        if isinstance(expr, ast.Lambda):
            return _EMPTY  # deferred body: out of the summary's scope
        if isinstance(expr, ast.Slice):
            self._eval(expr.lower)
            self._eval(expr.upper)
            self._eval(expr.step)
            return _EMPTY
        return _EMPTY

    def _eval_attribute(self, expr: ast.Attribute) -> TagSet:
        base = self._eval(expr.value)
        tags = _without(base, EXACT)  # component access reduces resolution
        if expr.attr in self.model.secret_attrs and self.model.secret_active(
            self.info.module
        ):
            tags |= frozenset(
                {
                    TaintTag(
                        kind=SECRET,
                        origin=self.info.qname,
                        origin_line=expr.lineno,
                        origin_note=f"read of secret attribute '.{expr.attr}'",
                    )
                }
            )
        if expr.attr in self.model.exact_attrs:
            tags |= frozenset(
                {
                    TaintTag(
                        kind=EXACT,
                        origin=self.info.qname,
                        origin_line=expr.lineno,
                        origin_note=f"exact-state read '.{expr.attr}'",
                    )
                }
            )
        return tags

    def _eval_subscript(self, expr: ast.Subscript) -> TagSet:
        tags = self._eval(expr.value)
        self._eval(expr.slice)  # for call effects inside the index
        if _terminal_name(expr.value) in self.model.exact_stores:
            tags |= frozenset(
                {
                    TaintTag(
                        kind=EXACT,
                        origin=self.info.qname,
                        origin_line=expr.lineno,
                        origin_note=(
                            f"exact-state read from "
                            f"'{_terminal_name(expr.value)}[...]'"
                        ),
                    )
                }
            )
        return tags

    def _eval_comprehension(
        self,
        expr: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp,
    ) -> TagSet:
        for comp in expr.generators:
            iter_tags = self._eval(comp.iter)
            self._assign(comp.target, iter_tags, None)
            for condition in comp.ifs:
                self._eval(condition)
        if isinstance(expr, ast.DictComp):
            return self._eval(expr.key) | self._eval(expr.value)
        return self._eval(expr.elt)

    # -- calls: the interesting case ---------------------------------------

    def _eval_call(self, call: ast.Call) -> TagSet:
        model = self.model
        name = _callee_name(call.func)
        receiver = (
            self._eval(call.func.value)
            if isinstance(call.func, ast.Attribute)
            else _EMPTY
        )
        argument_exprs = [*call.args, *(kw.value for kw in call.keywords)]
        argument_tags = [self._eval(arg) for arg in argument_exprs]
        combined = receiver
        for tags in argument_tags:
            combined |= tags

        exact, _by_name = self.graph.resolve_call_tiers(
            self.info.module, self.info.class_name, call
        )

        # Sanitizer: kills PAYLOAD on Name arguments for everything after
        # this statement.  Exact-tier resolution only — a by-name match to
        # some other `verify` must not vouch (R501 convention).
        if exact & model.sanitizers:
            for arg in call.args:
                if isinstance(arg, ast.Name) and arg.id in self.env:
                    self._set(arg.id, _without(self.env[arg.id], PAYLOAD))
            return _EMPTY

        if name in model.payload_calls:
            return combined | frozenset(
                {
                    TaintTag(
                        kind=PAYLOAD,
                        origin=self.info.qname,
                        origin_line=call.lineno,
                        origin_note=f"wire decode result of {name}()",
                    )
                }
            )
        if name in model.secret_calls and model.secret_active(self.info.module):
            return combined | frozenset(
                {
                    TaintTag(
                        kind=SECRET,
                        origin=self.info.qname,
                        origin_line=call.lineno,
                        origin_note=f"key material from {name}()",
                    )
                }
            )
        if (
            name == "get"
            and isinstance(call.func, ast.Attribute)
            and _terminal_name(call.func.value) in model.exact_stores
        ):
            return combined | frozenset(
                {
                    TaintTag(
                        kind=EXACT,
                        origin=self.info.qname,
                        origin_line=call.lineno,
                        origin_note=(
                            f"exact-state read from "
                            f"'{_terminal_name(call.func.value)}.get()'"
                        ),
                    )
                }
            )

        if name in model.reducers:
            return _without(combined, EXACT)
        if name in model.declassifiers:
            return _without(combined, SECRET)

        self._check_call_sinks(call, name, argument_exprs, argument_tags)

        # Interprocedural: exact edges into analyzed functions propagate
        # argument taint in (recorded as call-outs for the fixpoint) and
        # return taint out.  Everything else — by-name guesses, class
        # constructors, stdlib — conservatively forwards argument taint.
        result: TagSet = _EMPTY
        analyzed_all = bool(exact)
        for target in sorted(exact):
            callee = self.graph.functions.get(target)
            if callee is None or target in model.exempt:
                analyzed_all = False
                continue
            result |= self.return_tags_of(target)
            if self.reporting:
                bound = bind_arguments(callee, call)
                param_tags = tuple(
                    (param, hopped)
                    for param, arg_expr in sorted(bound.items())
                    if (
                        hopped := frozenset(
                            tag.hopped(self.info.qname, call.lineno)
                            for tag in self._eval(arg_expr)
                        )
                    )
                )
                if param_tags:
                    self.result.calls_out.append(
                        CallOut(callee=target, line=call.lineno, param_tags=param_tags)
                    )
        if not analyzed_all:
            result |= combined
        return result

    def _check_call_sinks(
        self,
        call: ast.Call,
        name: str | None,
        argument_exprs: list[ast.expr],
        argument_tags: list[TagSet],
    ) -> None:
        if not self.reporting or name is None:
            return
        model = self.model
        flat: TagSet = _EMPTY
        for tags in argument_tags:
            flat |= tags
        if name in model.send_names or name in model.message_ctors:
            sink_kind = "transmit/encode call" if name in model.send_names else (
                "message constructor"
            )
            for tag in _only(flat, SECRET):
                if model.secret_active(self.info.module):
                    self._sink(
                        "S702", call.lineno, tag, f"{sink_kind} {name}()"
                    )
        if name.startswith(model.handler_prefixes):
            for tag in _only(flat, PAYLOAD):
                self._sink(
                    "S701", call.lineno, tag, f"dispatch into handler {name}()"
                )
        if name in model.auth_calls:
            for tag in _only(flat, PAYLOAD):
                self._sink(
                    "S701",
                    call.lineno,
                    tag,
                    f"authoritative-state mutation {name}()",
                )
        field_name = model.reduced_ctor_fields.get(name)
        if field_name is not None:
            for keyword in call.keywords:
                if keyword.arg == field_name:
                    for tag in _only(self._eval(keyword.value), EXACT):
                        self._sink(
                            "S703",
                            call.lineno,
                            tag,
                            f"reduced-resolution field {name}.{field_name}",
                        )

    def _sink(self, rule: str, line: int, tag: TaintTag, note: str) -> None:
        key = (rule, line, tag.identity())
        if key in self._seen_sinks:
            return
        self._seen_sinks.add(key)
        self.result.sinks.append(SinkHit(rule=rule, line=line, tag=tag, sink_note=note))


def analyze_function(
    graph: CallGraph,
    model: TaintModel,
    info: FunctionInfo,
    entry: Mapping[str, TagSet],
    return_tags_of: Callable[[str], TagSet],
) -> FunctionDataflow:
    """Interpret one function body; see the module docstring for semantics."""
    return _Interpreter(graph, model, info, entry, return_tags_of).run()
