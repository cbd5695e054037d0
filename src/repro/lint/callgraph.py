"""Module-qualified call graph over ``src/repro`` for whole-program rules.

The F (information-flow) and R (routing) families need to answer questions
no per-file pass can: *does this payload helper reach a resolution
reducer?* / *does this send pass through the proxy layer?*  This module
builds the supporting structure from already-parsed ASTs:

* every module-level function and class method becomes a node, keyed by
  its qualified name (``repro.core.node.WatchmenNode._transmit``);
* every ``ast.Call`` inside a function body becomes one or more edges.

Call resolution is deliberately conservative, in three tiers:

1. **Exact** — bare names resolve through the module's own definitions and
   its ``import``/``from … import`` table; ``self.method(...)`` resolves
   through the enclosing class; ``self.attr.method(...)`` resolves when
   ``__init__`` (or a class-level annotation) pins ``attr`` to a known
   class — e.g. ``self.signer = signer`` with ``signer: HmacSigner``.
2. **By name** (CHA-lite) — an attribute call ``obj.frobnicate(...)``
   whose receiver type is unknown resolves to *every* known function named
   ``frobnicate``.  This over-approximates (extra edges, never missing
   ones), which is the lenient direction for "is there a reducer on this
   path" questions.
3. **Unresolved** — calls into the stdlib or other unknowns produce no
   edge.

Known blind spots (see docs/STATIC_ANALYSIS.md): dynamic dispatch through
``getattr``/dicts of callables, monkeypatching at runtime, and callables
passed as values (``send_many=self.network.send_many``) are invisible to
the graph.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "FunctionInfo",
    "ParsedModule",
    "CallGraph",
    "CallSite",
    "bind_arguments",
    "build_call_graph",
    "module_name_for",
]


@dataclass(frozen=True, slots=True)
class ParsedModule:
    """One source module handed to the graph builder."""

    module: str  # dotted name, e.g. "repro.core.node"
    path: str  # repo-relative posix path
    tree: ast.Module


@dataclass(frozen=True, slots=True)
class FunctionInfo:
    """One call-graph node: a module-level function or a class method."""

    qname: str
    module: str
    name: str
    class_name: str | None
    path: str
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(frozen=True, slots=True)
class CallSite:
    """One ``ast.Call`` inside a function body, with its resolved targets.

    ``exact`` carries tier-1 resolutions (evidence-grade); ``by_name``
    carries the CHA-lite same-name guesses.  The original ``ast.Call`` is
    retained so consumers (the taint pass, return-value edges) can bind
    arguments and read the result position.
    """

    caller: str
    line: int
    call: ast.Call
    exact: frozenset[str]
    by_name: frozenset[str]


@dataclass(slots=True)
class _ModuleScope:
    """Per-module name-resolution context collected in phase 1."""

    module: str
    #: local name -> dotted target ("from x import y" and "import x as z")
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level function names defined here
    functions: set[str] = field(default_factory=set)
    #: class name -> its method names
    classes: dict[str, set[str]] = field(default_factory=dict)
    #: class name -> {self attribute -> dotted class qname of its type}
    self_attr_types: dict[str, dict[str, str]] = field(default_factory=dict)


def module_name_for(rel_path: str) -> str | None:
    """``src/repro/core/node.py`` -> ``repro.core.node`` (None if outside)."""
    parts = rel_path.split("/")
    if len(parts) < 2 or parts[0] != "src" or not parts[-1].endswith(".py"):
        return None
    dotted = parts[1:]
    dotted[-1] = dotted[-1][: -len(".py")]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) if dotted else None


def _record_imports(scope: _ModuleScope, tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                scope.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports are not used in this tree
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                scope.imports[local] = f"{node.module}.{alias.name}"


class CallGraph:
    """Functions + resolved call edges, with the traversals the rules need."""

    def __init__(
        self,
        functions: dict[str, FunctionInfo],
        callees: dict[str, frozenset[str]],
        exact_callees: dict[str, frozenset[str]] | None = None,
    ) -> None:
        self.functions = functions
        self._callees = callees
        self._exact_callees = exact_callees or {}
        self._callers: dict[str, set[str]] = {}
        for caller, targets in callees.items():
            for target in targets:
                self._callers.setdefault(target, set()).add(caller)
        self._by_name: dict[str, set[str]] = {}
        for qname, info in functions.items():
            self._by_name.setdefault(info.name, set()).add(qname)
        self._scopes: dict[str, _ModuleScope] = {}
        self._call_sites: dict[str, tuple[CallSite, ...]] = {}

    # -- queries -----------------------------------------------------------

    def callees(self, qname: str) -> frozenset[str]:
        return self._callees.get(qname, frozenset())

    def exact_callees(self, qname: str) -> frozenset[str]:
        """Only tier-1 (import/local/self) edges — no by-name guesses.

        Use this when an edge serves as *evidence* that a path property
        holds (e.g. R501's "routes through the proxy layer"): a by-name
        edge to a same-named method elsewhere must not vouch for anything.
        """
        return self._exact_callees.get(qname, frozenset())

    def callers(self, qname: str) -> frozenset[str]:
        return frozenset(self._callers.get(qname, set()))

    def named(self, name: str) -> frozenset[str]:
        """Every known function with this bare name (any module/class)."""
        return frozenset(self._by_name.get(name, set()))

    def classes_in(self, module: str) -> frozenset[str]:
        """Class names defined at the top level of one analyzed module."""
        scope = self._scopes.get(module)
        return frozenset(scope.classes) if scope is not None else frozenset()

    def call_sites(self, qname: str) -> tuple[CallSite, ...]:
        """Every ``ast.Call`` in the function body, with per-site targets.

        Unlike :meth:`callees`/:meth:`exact_callees` (which flatten a body
        to edge *sets*), call sites keep the AST node, so consumers can
        bind arguments to callee parameters and treat the call result as a
        return-value edge — what the taint pass needs.
        """
        return self._call_sites.get(qname, ())

    def transitively_reaches(self, start: str, targets: frozenset[str]) -> bool:
        """Is any of ``targets`` reachable from ``start`` along call edges?"""
        seen = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for callee in self._callees.get(current, ()):
                if callee in targets:
                    return True
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return False

    # -- call-site resolution (shared with the rule modules) ---------------

    def resolve_call(
        self, module: str, class_name: str | None, call: ast.Call
    ) -> frozenset[str]:
        """Candidate callee qnames for one ``ast.Call`` (may be empty)."""
        scope = self._scopes.get(module)
        if scope is None:
            return frozenset()
        exact, fallback = self._resolve(scope, class_name, call.func)
        return exact | fallback

    def resolve_call_tiers(
        self, module: str, class_name: str | None, call: ast.Call
    ) -> tuple[frozenset[str], frozenset[str]]:
        """(exact, by-name) targets for one ``ast.Call``, kept separate.

        The taint pass propagates only along the exact tier (the R501
        convention: a same-name guess must not carry evidence), so it
        needs the split that :meth:`resolve_call` flattens.
        """
        scope = self._scopes.get(module)
        if scope is None:
            return frozenset(), frozenset()
        return self._resolve(scope, class_name, call.func)

    def _resolve(
        self, scope: _ModuleScope, class_name: str | None, func: ast.expr
    ) -> tuple[frozenset[str], frozenset[str]]:
        """(exact targets, by-name guesses) for one callee expression."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in scope.functions:
                return frozenset({f"{scope.module}.{name}"}), frozenset()
            target = scope.imports.get(name)
            if target is not None:
                if target in self.functions:
                    return frozenset({target}), frozenset()
                # Class constructor or a function outside the tree: keep
                # the raw target (rules match on prefixes) plus same-name
                # functions as a fallback.
                return frozenset({target}), self.named(name)
            return frozenset(), self.named(name)
        if isinstance(func, ast.Attribute):
            attr = func.attr
            value = func.value
            if isinstance(value, ast.Name):
                if value.id == "self" and class_name is not None:
                    methods = scope.classes.get(class_name, set())
                    if attr in methods:
                        return (
                            frozenset({f"{scope.module}.{class_name}.{attr}"}),
                            frozenset(),
                        )
                target = scope.imports.get(value.id)
                if target is not None:
                    qname = f"{target}.{attr}"
                    if qname in self.functions:
                        return frozenset({qname}), frozenset()
                    return frozenset({qname}), self.named(attr)
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
                and class_name is not None
            ):
                # self.<attr>.<method>(...) where __init__/class annotations
                # pin <attr> to a known class: an evidence-grade edge.
                attr_types = scope.self_attr_types.get(class_name, {})
                type_qname = attr_types.get(value.attr)
                if type_qname is not None:
                    qname = f"{type_qname}.{attr}"
                    if qname in self.functions:
                        return frozenset({qname}), frozenset()
            return frozenset(), self.named(attr)
        return frozenset(), frozenset()


def _annotation_type_name(annotation: ast.expr | None) -> str | None:
    """The class name an annotation pins, unwrapping ``X | None``/strings."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.rsplit(".", 1)[-1]
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        for side in (annotation.left, annotation.right):
            if isinstance(side, ast.Constant) and side.value is None:
                continue
            name = _annotation_type_name(side)
            if name is not None:
                return name
    return None


def _resolve_type_name(scope: _ModuleScope, name: str | None) -> str | None:
    """Type name -> dotted class qname via local classes, then imports."""
    if name is None:
        return None
    if name in scope.classes:
        return f"{scope.module}.{name}"
    return scope.imports.get(name)


def _collect_self_attr_types(scope: _ModuleScope, tree: ast.Module) -> None:
    """Phase-1.5: pin ``self.<attr>`` types per class where code declares them.

    Three declaration forms count: a class-body ``AnnAssign`` (dataclass
    field), ``self.x: T = ...`` anywhere in a method, and the ``__init__``
    idioms ``self.x = <annotated param>`` / ``self.x = KnownClass(...)``.
    """
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        attrs = scope.self_attr_types.setdefault(node.name, {})
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                resolved = _resolve_type_name(
                    scope, _annotation_type_name(item.annotation)
                )
                if resolved is not None:
                    attrs[item.target.id] = resolved
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            param_types: dict[str, str | None] = {
                arg.arg: _annotation_type_name(arg.annotation)
                for arg in (
                    *method.args.posonlyargs,
                    *method.args.args,
                    *method.args.kwonlyargs,
                )
            }
            for stmt in ast.walk(method):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annotation: ast.expr | None = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value, annotation = stmt.target, stmt.value, stmt.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                resolved = _resolve_type_name(scope, _annotation_type_name(annotation))
                if resolved is None and isinstance(value, ast.Name):
                    resolved = _resolve_type_name(scope, param_types.get(value.id))
                if (
                    resolved is None
                    and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                ):
                    resolved = _resolve_type_name(scope, value.func.id)
                if resolved is not None:
                    attrs.setdefault(target.attr, resolved)


def bind_arguments(callee: FunctionInfo, call: ast.Call) -> dict[str, ast.expr]:
    """Map a call site's arguments onto the callee's parameter names.

    Positional args fill the callee's positional parameters in order
    (``self``/``cls`` skipped for methods); keywords match by name.
    ``*args``/``**kwargs`` forwarding is out of scope — binding stops at
    the first ``Starred`` argument, the conservative direction for taint
    (a dropped binding can only under-propagate a by-star call, and those
    do not occur on the protocol paths the S rules guard).
    """
    spec = callee.node.args
    params = [arg.arg for arg in (*spec.posonlyargs, *spec.args)]
    if callee.class_name is not None and params and params[0] in ("self", "cls"):
        params = params[1:]
    bound: dict[str, ast.expr] = {}
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(params):
            bound[params[index]] = arg
    keyword_names = set(params) | {arg.arg for arg in spec.kwonlyargs}
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in keyword_names:
            bound[keyword.arg] = keyword.value
    return bound


def _collect_functions(
    parsed: ParsedModule, scope: _ModuleScope
) -> list[FunctionInfo]:
    infos: list[FunctionInfo] = []
    for node in parsed.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.functions.add(node.name)
            infos.append(
                FunctionInfo(
                    qname=f"{parsed.module}.{node.name}",
                    module=parsed.module,
                    name=node.name,
                    class_name=None,
                    path=parsed.path,
                    lineno=node.lineno,
                    node=node,
                )
            )
        elif isinstance(node, ast.ClassDef):
            methods = scope.classes.setdefault(node.name, set())
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(item.name)
                    infos.append(
                        FunctionInfo(
                            qname=f"{parsed.module}.{node.name}.{item.name}",
                            module=parsed.module,
                            name=item.name,
                            class_name=node.name,
                            path=parsed.path,
                            lineno=item.lineno,
                            node=item,
                        )
                    )
    return infos


def build_call_graph(modules: Iterable[ParsedModule]) -> CallGraph:
    """Two-phase construction: collect every definition, then resolve calls."""
    scopes: dict[str, _ModuleScope] = {}
    functions: dict[str, FunctionInfo] = {}
    per_module: list[tuple[ParsedModule, list[FunctionInfo]]] = []

    for parsed in modules:
        scope = _ModuleScope(module=parsed.module)
        _record_imports(scope, parsed.tree)
        infos = _collect_functions(parsed, scope)
        scopes[parsed.module] = scope
        for info in infos:
            functions[info.qname] = info
        per_module.append((parsed, infos))

    for parsed, _ in per_module:
        _collect_self_attr_types(scopes[parsed.module], parsed.tree)

    graph = CallGraph(functions, {})
    graph._scopes = scopes

    callees: dict[str, frozenset[str]] = {}
    exact_callees: dict[str, frozenset[str]] = {}
    call_sites: dict[str, tuple[CallSite, ...]] = {}
    for parsed, infos in per_module:
        scope = scopes[parsed.module]
        for info in infos:
            exact_targets: set[str] = set()
            all_targets: set[str] = set()
            sites: list[CallSite] = []
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    exact, fallback = graph._resolve(
                        scope, info.class_name, node.func
                    )
                    exact_targets.update(exact)
                    all_targets.update(exact)
                    all_targets.update(fallback)
                    sites.append(
                        CallSite(
                            caller=info.qname,
                            line=node.lineno,
                            call=node,
                            exact=exact,
                            by_name=fallback,
                        )
                    )
            exact_targets.discard(info.qname)  # self-recursion adds nothing
            all_targets.discard(info.qname)
            if all_targets:
                callees[info.qname] = frozenset(all_targets)
            if exact_targets:
                exact_callees[info.qname] = frozenset(exact_targets)
            if sites:
                call_sites[info.qname] = tuple(
                    sorted(sites, key=lambda site: (site.line, site.call.col_offset))
                )

    # Rebuild with the real edge set (CallGraph precomputes callers).
    result = CallGraph(functions, callees, exact_callees)
    result._scopes = scopes
    result._call_sites = call_sites
    return result
