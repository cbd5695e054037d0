"""What runs is what ships: every public function, class and method under
``src/repro`` is named by something that is not a test — ``src/``, a bench, an
example, perfbench or a script; its own ``def`` line, ``__all__`` strings and
package re-exports do not count.  The scan is by name: it misses a dead method
whose name something live shares, but what it flags is certainly unreached.

The same rule one level down: a defaulted parameter nobody passes is a constant,
and a constant the detector reads has one address — the calibration section of
``core/config.py``, row for row the table of docs/PROTOCOL.md §5."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "benchmarks", "examples", "perfbench", "scripts")
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCS, ast.ClassDef)

#: Unreached on purpose: the reason says what keeps each.
KEPT = {
    "send": "perfbench/tracer.py BOUNDARIES resolves DatagramNetwork.send by name; a single send is send_many of one",
    "encoded_size": "perfbench/tracer.py BOUNDARIES resolves it by name (benchmark-labelled PR)",
}
#: Unreached and owed to the rule: each goes with the floor tests that check
#: only it, a few per PR (ROADMAP item 5).  May only shrink.
OWED: dict[str, str] = {}


def _public_names() -> set[str]:
    names = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else ()
            names |= {
                d.name for d in (node, *members)
                if isinstance(d, DEFS) and not d.name.startswith("_")
            }
    return names


def _named_outside_tests() -> set[str]:
    named = set()
    for path in (p for top in CALLERS for p in (REPO_ROOT / top).rglob("*.py")):
        text = path.read_text()
        own = set()  # (line, name) of each def; (line, None) across a re-export
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DEFS):
                own.add((node.lineno, node.name))
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                own |= {(n, None) for n in range(node.lineno, node.end_lineno + 1)}
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            line = token.start[0]
            if token.type == tokenize.NAME and not own & {(line, token.string), (line, None)}:
                named.add(token.string)
    return named


def test_every_public_name_is_reached_by_something_that_is_not_a_test():
    unreached = _public_names() - _named_outside_tests()
    assert unreached == set(KEPT) | set(OWED), "delete it, or delete its stale entry"
    assert len(KEPT) <= 2


# -- a knob nobody turns is a constant ----------------------------------------

#: Where an option would be an operating point rather than an experiment axis.
OPTION_PACKAGES = ("core", "analysis", "net", "crypto")
#: Never passed on purpose: the reason says what keeps each.  May only shrink.
OWED_PARAMETERS = {
    "presence_heatmap(player_ids)": "Figure 1 per player; test_analysis_trace_experiments::test_player_filter",
}


def _defaulted(function: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """``(positional index, name)`` per defaulted parameter; index None if keyword-only."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    named = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return named + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def _options() -> list[tuple[str, str, int | None, str]]:
    """``(callee name, label, index, parameter)`` for every defaulted parameter of a
    public function, method or constructor in OPTION_PACKAGES.  A plain dataclass's
    defaulted public fields are its constructor's parameters unless something under
    ``src/`` assigns the attribute (state: ``ClientState.update_count``) or the
    class is frozen (a record: a wire message, a result row, or one of the two
    config classes ``test_core_config_constants`` already holds to this rule)."""
    written = {
        target.attr
        for path in (REPO_ROOT / "src").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in ast.walk(node)
        if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
    }
    found = []
    for package in OPTION_PACKAGES:
        for path in sorted((REPO_ROOT / "src" / "repro" / package).rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if not isinstance(node, DEFS) or node.name.startswith("_"):
                    continue
                if isinstance(node, FUNCS):
                    found += [(node.name, node.name, i, p) for i, p in _defaulted(node)]
                    continue
                methods = [m for m in node.body if isinstance(m, FUNCS)]
                for method in methods:
                    if method.name == "__init__":
                        found += [(node.name, node.name, i, p) for i, p in _defaulted(method)]
                    elif not method.name.startswith("_"):
                        label = f"{node.name}.{method.name}"
                        found += [(method.name, label, i, p) for i, p in _defaulted(method)]
                decorators = " ".join(ast.unparse(d) for d in node.decorator_list)
                if "dataclass" not in decorators or "frozen=True" in decorators:
                    continue
                if any(m.name == "__init__" for m in methods):
                    continue
                fields = [
                    f for f in node.body
                    if isinstance(f, ast.AnnAssign) and "ClassVar" not in ast.unparse(f.annotation)
                ]
                for index, item in enumerate(fields):
                    name = item.target.id
                    plain = item.value is not None and "field(" not in ast.unparse(item.value)
                    if plain and not name.startswith("_") and name not in written:
                        found.append((node.name, node.name, index, name))
    return found


def _never_passed() -> set[str]:
    keywords: dict[str, set[str]] = {}
    arity: dict[str, int] = {}
    anything = set()  # called with *args / **kwargs: every parameter may be passed
    for path in (p for top in CALLERS for p in (REPO_ROOT / top).rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                anything.add(name)
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
            arity[name] = max(arity.get(name, 0), len(call.args))
    return {
        f"{label}({parameter})"
        for callee, label, index, parameter in _options()
        if callee not in anything
        and parameter not in keywords.get(callee, ())
        and not (index is not None and arity.get(callee, 0) > index)
    }


def test_every_defaulted_parameter_is_passed_by_something_that_is_not_a_test():
    never = _never_passed()
    assert never == set(OWED_PARAMETERS), "make it a constant, or delete its stale entry"
    assert len(OWED_PARAMETERS) <= 8


# -- the calibration table ----------------------------------------------------

CONFIG = REPO_ROOT / "src" / "repro" / "core" / "config.py"
PROTOCOL = REPO_ROOT / "docs" / "PROTOCOL.md"


def _calibration_finals() -> dict[str, object]:
    """name -> value of every ``Final`` in config.py's detection-calibration section."""
    from repro.core import config

    section = CONFIG.read_text().split("# -- detection calibration", 1)[1].split("\n# -- ", 1)[0]
    names = re.findall(r"^([A-Z][A-Z0-9_]*): Final", section, re.MULTILINE)
    return {name: getattr(config, name) for name in names}


def _reads(dotted: str, constant: str) -> bool:
    """Does ``module.[Class.]function`` (under ``src/repro``, packages searched by
    module name) reference ``constant`` as a bare name?"""
    module, *path = dotted.split(".")
    [source] = (REPO_ROOT / "src" / "repro").glob(f"*/{module}.py")
    scope: ast.AST = ast.parse(source.read_text())
    for part in path:
        scope = next(d for d in scope.body if isinstance(d, DEFS) and d.name == part)
    return bool(path) and any(
        isinstance(n, ast.Name) and n.id == constant for n in ast.walk(scope)
    )


def test_the_calibration_table_is_the_calibration_section():
    finals = _calibration_finals()
    assert finals, "config.py lost its detection-calibration section"
    rows = {}
    for line in PROTOCOL.read_text().split("## 5.", 1)[1].split("\n## ", 1)[0].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 6 and re.fullmatch(r"`[A-Z][A-Z0-9_]*`", cells[0]):
            rows[cells[0].strip("`")] = cells[1:]
    assert set(rows) == set(finals), "one row per Final, one Final per row"
    for name, (value, _unit, family, read_by, provenance) in rows.items():
        assert ast.literal_eval(value.strip("`")) == finals[name], name
        assert family and provenance, name
        readers = re.findall(r"`([\w.]+)`", read_by)
        assert readers, f"{name}: nobody reads it"
        for reader in readers:
            assert _reads(reader, name), f"{name}: {reader} does not reference it"
