"""One clock: the system is timed in ``perfbench/`` and nowhere else.

``benchmarks/`` is the paper's reproduction (figures, tables, ablations,
bit and byte arithmetic, chaos SLOs) and publishes only metrics that are a
pure function of the seed; ``src/repro`` reads no host clock outside the two
tools that time themselves, and reaches the metrics registry one way; a
retained reference lives beside the test that compares against it, in
``tests/reference/``.  These guards hold the rule mechanically
(docs/PERFORMANCE.md, "One clock").
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.obs import PINNED_EPOCH, load_bench_rows

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"
SRC = REPO_ROOT / "src" / "repro"

#: Under ``src/repro``: the analyzers' CLIs time *themselves* (``lint_wall``,
#: ``mc``), and ``emit`` stamps a row a caller did not pin.  No bench may.
MAY_IMPORT_A_CLOCK = {"lint/cli.py", "mc/cli.py", "obs/emit.py"}
CLOCKS = ("time", "datetime")


def _functions(root: Path) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    return [
        (str(path.relative_to(REPO_ROOT)), node)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_src_ships_no_reference_implementation():
    """Nothing under ``src/`` exists only for tests to compare against."""
    retained = [
        f"{path}:{function.lineno} {function.name}"
        for path, function in _functions(REPO_ROOT / "src")
        if function.name.endswith(("_reference", "_naive"))
    ]
    assert retained == [], "move to tests/reference/"


def test_no_bench_takes_the_timing_fixture():
    takers = [
        f"{path}:{function.lineno} {function.name}"
        for path, function in _functions(BENCHMARKS)
        for arg in (
            *function.args.posonlyargs, *function.args.args, *function.args.kwonlyargs
        )
        if arg.arg == "benchmark"
    ]
    assert takers == [], "call the function directly; time with perfbench"


def _importers(root: Path, modules: tuple[str, ...]) -> set[str]:
    """Files under ``root`` that import one of ``modules``."""
    return {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (
            isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] in modules for alias in node.names)
        )
        or (isinstance(node, ast.ImportFrom) and node.module in modules)
    }


def test_no_bench_and_no_product_module_reads_a_clock():
    assert _importers(BENCHMARKS, CLOCKS) == set()
    assert _importers(SRC, CLOCKS) == MAY_IMPORT_A_CLOCK


def test_no_product_module_touches_the_collector():
    """The collector goes quiet because there is less to walk (verdicts are
    rows of a ``RatingLog``, docs/PERFORMANCE.md "PR 24"), never because it
    was told to: allocate less, not collect less."""
    assert _importers(SRC, ("gc",)) == set()


def test_the_registry_is_reached_one_way():
    """Objects bind ``get_registry()`` where they are built and
    ``use_registry`` around build + run collects: nothing outside ``obs/``
    takes a ``MetricsRegistry`` as a parameter."""
    takers = [
        f"{path}:{function.lineno} {function.name}({arg.arg})"
        for path, function in _functions(SRC)
        if not path.startswith("src/repro/obs/")
        for arg in (
            *function.args.posonlyargs, *function.args.args, *function.args.kwonlyargs
        )
        if arg.annotation is not None
        and "MetricsRegistry" in ast.unparse(arg.annotation)
    ]
    assert takers == [], "bind get_registry() at construction instead"


def test_a_published_row_is_a_function_of_its_inputs(tmp_path, capsys):
    """Pinned stamp, no wall field: publishing twice emits identical bytes,
    so a dirty ``BENCH_core.json`` means a reproduced number moved."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", BENCHMARKS / "conftest.py"
    )
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        conftest.publish(
            tmp_path / run, "row", "A row", "body",
            params={"seed": 7, "players": 4}, metrics={"kbps": 12.5},
        )
    capsys.readouterr()  # the printed block is for humans
    for artifact in ("row.json", "row.txt"):
        first = (tmp_path / "first" / artifact).read_bytes()
        assert first == (tmp_path / "second" / artifact).read_bytes()
    row = load_bench_rows(tmp_path / "first" / "row.json")["row"]
    assert row["timestamp"] == PINNED_EPOCH
    assert row["wall_seconds"] is None
    assert row["metrics"] == {"kbps": 12.5}
