"""P-family rules: the GameMessage union cross-referenced against its world.

A message type is only *done* when three artifacts agree:

1. its dataclass is ``frozen=True, slots=True``            (P201)
2. ``WatchmenNode._dispatch_message`` has a branch for it  (P202)
3. ``core/wire.py`` registers it in ``MESSAGE_TYPES``      (P203)

P205 additionally cross-checks the reliable-delivery registry: every
name in ``ACKABLE_TYPES`` must be a union member, and ``AckMessage``
must be in the union but never in the registry (an ack that is itself
ackable would ack forever).  The rule is skipped entirely when the
module declares no ``ACKABLE_TYPES``.

P206 keeps the binary framing honest: ``wire.MESSAGE_TAGS`` must name
exactly the types ``MESSAGE_TYPES`` registers, with one unique integer
tag in 0..255 per name (the codec emits the tag as a single byte, and
committed tapes store it — drift or reuse orphans recorded traffic).
Skipped when the wire module declares no ``MESSAGE_TAGS``.

These are whole-repo checks, not per-file scans: the engine hands this
module the parsed ASTs of ``core/messages.py``, ``core/node.py`` and
``core/wire.py`` (paths are configurable so rule tests can run against
synthetic fixture trees).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.lint.violations import Violation

__all__ = ["ProtocolSources", "run_protocol_rules", "union_member_names"]


@dataclass(frozen=True, slots=True)
class ProtocolSources:
    """The three files the conformance rules cross-reference."""

    messages_path: Path
    node_path: Path
    wire_path: Path

    def exists(self) -> bool:
        return (
            self.messages_path.is_file()
            and self.node_path.is_file()
            and self.wire_path.is_file()
        )


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def union_member_names(messages_tree: ast.Module, union_name: str = "GameMessage") -> list[str]:
    """Member class names of ``GameMessage = Union[...]`` (or A | B | ...)."""
    for node in messages_tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(
            isinstance(t, ast.Name) and t.id == union_name for t in targets
        ):
            continue
        assert value is not None
        return _union_members(value)
    return []


def _union_members(value: ast.expr) -> list[str]:
    # Union[A, B, ...] form
    if isinstance(value, ast.Subscript):
        inner = value.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return [e.id for e in elements if isinstance(e, ast.Name)]
    # A | B | C form
    names: list[str] = []

    def walk_or(node: ast.expr) -> None:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            walk_or(node.left)
            walk_or(node.right)
        elif isinstance(node, ast.Name):
            names.append(node.id)

    walk_or(value)
    return names


def _imported_module_of(messages_tree: ast.Module, name: str) -> str | None:
    """Which module a name was imported from (``from X import name``)."""
    for node in messages_tree.body:
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return node.module
    return None


def _module_to_path(module: str, src_root: Path) -> Path | None:
    """``repro.core.membership`` -> ``<src_root>/repro/core/membership.py``."""
    candidate = src_root.joinpath(*module.split(".")).with_suffix(".py")
    return candidate if candidate.is_file() else None


def _find_classdef(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _dataclass_flags(classdef: ast.ClassDef) -> tuple[bool, bool, bool]:
    """(is_dataclass, frozen, slots) from the decorator list."""
    for decorator in classdef.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call else decorator
        dotted = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if dotted != "dataclass":
            continue
        frozen = slots = False
        if call is not None:
            for keyword in call.keywords:
                if keyword.arg == "frozen" and isinstance(keyword.value, ast.Constant):
                    frozen = keyword.value.value is True
                if keyword.arg == "slots" and isinstance(keyword.value, ast.Constant):
                    slots = keyword.value.value is True
        return True, frozen, slots
    return False, False, False


def _isinstance_targets(func: ast.FunctionDef, subject: str) -> set[str]:
    """Class names X appearing as isinstance(<subject>, X) inside ``func``."""
    names: set[str] = set()
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        arg0 = node.args[0]
        if not (isinstance(arg0, ast.Name) and arg0.id == subject):
            continue
        arg1 = node.args[1]
        elements = arg1.elts if isinstance(arg1, ast.Tuple) else [arg1]
        names.update(e.id for e in elements if isinstance(e, ast.Name))
    return names


def _find_function(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    """A (possibly method) function def anywhere in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _registry_names(wire_tree: ast.Module, registry_name: str = "MESSAGE_TYPES") -> set[str]:
    """Type names registered in wire.py's MESSAGE_TYPES dict literal."""
    for node in wire_tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(
            isinstance(t, ast.Name) and t.id == registry_name for t in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            return set()
        names: set[str] = set()
        for key, val in zip(value.keys, value.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                names.add(key.value)
            elif isinstance(val, ast.Name):
                names.add(val.id)
        return names
    return set()


def _dict_literal_assignment(
    tree: ast.Module, name: str
) -> tuple[list[tuple[ast.expr, ast.expr]], int] | None:
    """(key, value) expression pairs of ``name = {...}``, plus its line.

    Returns None when no such assignment exists (the rule that reads it
    must then skip — fixture trees predate the table), and an empty pair
    list when the assignment is not a dict literal.
    """
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(isinstance(t, ast.Name) and t.id == name for t in targets):
            continue
        assert value is not None
        if not isinstance(value, ast.Dict):
            return [], node.lineno
        return [
            (key, val)
            for key, val in zip(value.keys, value.values)
            if key is not None
        ], node.lineno
    return None


def _tuple_assignment(
    tree: ast.Module, name: str
) -> tuple[list[str], int] | None:
    """Names in a module-level ``name = (A, B, ...)`` tuple, plus its line.

    Returns None when no such assignment exists (the rule that reads it
    must then skip — older fixture trees predate the registry).
    """
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(isinstance(t, ast.Name) and t.id == name for t in targets):
            continue
        assert value is not None
        if not isinstance(value, ast.Tuple):
            return [], node.lineno
        return (
            [e.id for e in value.elts if isinstance(e, ast.Name)],
            node.lineno,
        )
    return None


def run_protocol_rules(sources: ProtocolSources, src_root: Path) -> list[Violation]:
    """All P-family checks across the messages/node/wire triple."""
    messages_tree = _parse(sources.messages_path)
    node_tree = _parse(sources.node_path)
    wire_tree = _parse(sources.wire_path)

    members = union_member_names(messages_tree)
    violations: list[Violation] = []
    rel_messages = sources.messages_path.as_posix()

    if not members:
        violations.append(
            Violation(
                rule="P202",
                path=rel_messages,
                line=1,
                message="no GameMessage union found in messages module",
            )
        )
        return violations

    # P201 — frozen/slots on every member's dataclass, wherever defined.
    for member in members:
        classdef = _find_classdef(messages_tree, member)
        defined_in = sources.messages_path
        tree = messages_tree
        if classdef is None:
            module = _imported_module_of(messages_tree, member)
            path = _module_to_path(module, src_root) if module else None
            if path is not None:
                tree = _parse(path)
                classdef = _find_classdef(tree, member)
                defined_in = path
        if classdef is None:
            violations.append(
                Violation(
                    rule="P201",
                    path=rel_messages,
                    line=1,
                    message=f"cannot locate class definition of union member `{member}`",
                )
            )
            continue
        is_dc, frozen, slots = _dataclass_flags(classdef)
        if not (is_dc and frozen and slots):
            missing = (
                "not a dataclass"
                if not is_dc
                else "missing "
                + ", ".join(
                    flag
                    for flag, present in (("frozen=True", frozen), ("slots=True", slots))
                    if not present
                )
            )
            violations.append(
                Violation(
                    rule="P201",
                    path=defined_in.as_posix(),
                    line=classdef.lineno,
                    message=f"message `{member}` {missing}; wire messages must be immutable",
                )
            )

    # P202 — a dispatch branch per member.
    dispatch = _find_function(node_tree, "_dispatch_message")
    if dispatch is None:
        violations.append(
            Violation(
                rule="P202",
                path=sources.node_path.as_posix(),
                line=1,
                message="node module has no _dispatch_message function",
            )
        )
    else:
        handled = _isinstance_targets(dispatch, subject="message")
        for member in members:
            if member not in handled:
                violations.append(
                    Violation(
                        rule="P202",
                        path=sources.node_path.as_posix(),
                        line=dispatch.lineno,
                        message=(
                            f"message `{member}` has no isinstance branch in "
                            "_dispatch_message; it would be silently dropped"
                        ),
                    )
                )

    # P203 — a codec registration per member.
    registered = _registry_names(wire_tree)
    for member in members:
        if member not in registered:
            violations.append(
                Violation(
                    rule="P203",
                    path=sources.wire_path.as_posix(),
                    line=1,
                    message=(
                        f"message `{member}` is not registered in wire.MESSAGE_TYPES; "
                        "encode/decode round-trip is impossible"
                    ),
                )
            )

    # P206 — the binary tag table tracks the codec registry in lockstep.
    rel_wire = sources.wire_path.as_posix()
    tags = _dict_literal_assignment(wire_tree, "MESSAGE_TAGS")
    if tags is not None and registered:
        pairs, lineno = tags
        tagged: dict[str, ast.expr] = {}
        for key, val in pairs:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                tagged[key.value] = val
        for name in sorted(registered - set(tagged)):
            violations.append(
                Violation(
                    rule="P206",
                    path=rel_wire,
                    line=lineno,
                    message=(
                        f"registered message `{name}` has no entry in "
                        "MESSAGE_TAGS; the binary codec cannot frame it"
                    ),
                )
            )
        for name in sorted(set(tagged) - registered):
            violations.append(
                Violation(
                    rule="P206",
                    path=rel_wire,
                    line=lineno,
                    message=(
                        f"MESSAGE_TAGS entry `{name}` is not registered in "
                        "MESSAGE_TYPES; a dead tag invites accidental reuse"
                    ),
                )
            )
        seen_tags: dict[int, str] = {}
        for name, val in tagged.items():
            if not (
                isinstance(val, ast.Constant)
                and type(val.value) is int
                and 0 <= val.value <= 255
            ):
                violations.append(
                    Violation(
                        rule="P206",
                        path=rel_wire,
                        line=val.lineno,
                        message=(
                            f"tag for `{name}` must be an integer literal in "
                            "0..255; the codec emits it as a single byte"
                        ),
                    )
                )
                continue
            holder = seen_tags.setdefault(val.value, name)
            if holder != name:
                violations.append(
                    Violation(
                        rule="P206",
                        path=rel_wire,
                        line=val.lineno,
                        message=(
                            f"tag {val.value} is assigned to both `{holder}` "
                            f"and `{name}`; decode would be ambiguous"
                        ),
                    )
                )

    # P205 — the reliable-delivery registry agrees with the union.
    ackable = _tuple_assignment(messages_tree, "ACKABLE_TYPES")
    if ackable is not None:
        names, lineno = ackable
        for name in names:
            if name == "AckMessage":
                violations.append(
                    Violation(
                        rule="P205",
                        path=rel_messages,
                        line=lineno,
                        message=(
                            "AckMessage must not be in ACKABLE_TYPES: "
                            "acking an ack would loop forever"
                        ),
                    )
                )
            elif name not in members:
                violations.append(
                    Violation(
                        rule="P205",
                        path=rel_messages,
                        line=lineno,
                        message=(
                            f"ACKABLE_TYPES entry `{name}` is not a "
                            "GameMessage union member; it can never be "
                            "dispatched, let alone acked"
                        ),
                    )
                )
        if "AckMessage" not in members:
            violations.append(
                Violation(
                    rule="P205",
                    path=rel_messages,
                    line=lineno,
                    message=(
                        "module declares ACKABLE_TYPES but AckMessage is "
                        "not in the GameMessage union; the reliability "
                        "layer's own control message would be undeliverable"
                    ),
                )
            )

    return violations
