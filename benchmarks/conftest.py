"""Shared fixtures for the paper-reproduction harness.

Every bench regenerates one of the paper's tables/figures, prints the
rows/series, and writes them under the git-ignored ``benchmarks/results/``
— a human-readable ``.txt`` block *and* a structured ``.json`` artifact
(schema ``repro.bench.v1``, see ``docs/OBSERVABILITY.md``).  At the end
of a run every published row is also aggregated into the tracked
top-level ``BENCH_core.json`` that ``repro bench-diff`` gates CI on.

Nothing here is timed: the system's clock is ``perfbench/``
(docs/PERFORMANCE.md).  A published metric is a pure function of the
seed and rows carry the pinned epoch, so two runs on one tree emit
identical bytes and a dirty ``BENCH_core.json`` means a reproduced
number moved.

Traces are session-scoped: the expensive inputs are built once.  Set
``REPRO_BENCH_SMOKE=1`` for the reduced-size smoke subset CI runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.game import generate_trace, make_longest_yard
from repro.obs import PINNED_EPOCH, bench_row, write_bench_json

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_CORE_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: Reduced sizes for CI's bench-smoke job (REPRO_BENCH_SMOKE=1).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Parameters of the session-scoped fixture traces, stamped onto every
#: artifact so archived results are attributable to their inputs.
BENCH_TRACE_PARAMS = {
    "seed": 2013,
    "players": 12 if SMOKE else 24,
    "frames": 120 if SMOKE else 400,
}
SESSION_TRACE_PARAMS = {
    "seed": 2013,
    "players": 8 if SMOKE else 12,
    "frames": 80 if SMOKE else 240,
}

#: Rows published during this run, aggregated at session end.
_PUBLISHED_ROWS: list[dict] = []


def pytest_collection_modifyitems(items):
    """Every bench test carries the ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def yard():
    return make_longest_yard()


@pytest.fixture(scope="session")
def bench_trace(yard):
    """The main evaluation trace: 24 players, 400 frames (20 s of play)."""
    return generate_trace(
        num_players=BENCH_TRACE_PARAMS["players"],
        num_frames=BENCH_TRACE_PARAMS["frames"],
        seed=BENCH_TRACE_PARAMS["seed"],
        game_map=yard,
    )


@pytest.fixture(scope="session")
def session_trace(yard):
    """A lighter trace for full-protocol (network) benches."""
    return generate_trace(
        num_players=SESSION_TRACE_PARAMS["players"],
        num_frames=SESSION_TRACE_PARAMS["frames"],
        seed=SESSION_TRACE_PARAMS["seed"],
        game_map=yard,
    )


def publish(
    results_dir: Path,
    name: str,
    title: str,
    body: str,
    params: dict | None = None,
    metrics: dict[str, float] | None = None,
) -> None:
    """Print a result block and write it under ``results_dir``.

    ``params`` should name the run's inputs (seed, player count, frame
    count); each block and JSON artifact is stamped with them so results
    stay attributable to their inputs.  ``metrics`` (flat name -> number,
    each a function of those inputs alone) additionally lands in
    ``results/<name>.json`` and in the aggregated ``BENCH_core.json`` for
    the bench-diff CI gate.
    """
    params = dict(params or {})
    stamp = " ".join(f"{key}={value}" for key, value in sorted(params.items()))
    header = f"== {title} ==\n-- run: {stamp or 'unparameterised'} --\n"
    block = f"{header}{body}\n"
    print("\n" + block)
    (results_dir / f"{name}.txt").write_text(block, encoding="utf-8")

    row = bench_row(
        bench=name, params=params, metrics=metrics, timestamp=PINNED_EPOCH
    )
    write_bench_json(results_dir / f"{name}.json", row, generated=PINNED_EPOCH)
    _PUBLISHED_ROWS.append(row)


def pytest_sessionfinish(session, exitstatus):
    """Aggregate every published row into the top-level BENCH_core.json."""
    del session, exitstatus
    if _PUBLISHED_ROWS:
        write_bench_json(
            BENCH_CORE_PATH, list(_PUBLISHED_ROWS), generated=PINNED_EPOCH
        )
