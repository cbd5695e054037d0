"""Tier-1 sees the benchmark's frozen surface.

``perfbench/`` reaches into ``src/repro`` by name — the tracer's
``BOUNDARIES`` table, the attributes ``child.py`` reads off a session — and
``pyproject.toml`` collects ``tests/`` only, so a deletion that breaks one
of those names would pass tier-1 and fail the benchmark run.  These cases
hold the surface without touching anything under ``perfbench/``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.tracer import BOUNDARIES
from perfbench.workloads import WORKLOADS, Run
from repro.replay import TapeRecorder

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "module_name, name",
    [(boundary.module, name) for boundary in BOUNDARIES for name in boundary.names],
)
def test_every_boundary_resolves_the_way_the_tracer_resolves_it(module_name, name):
    module = importlib.import_module(module_name)
    if "." not in name:
        assert callable(getattr(module, name))
        return
    class_name, method = name.split(".")
    cls = getattr(module, class_name)
    if method != "*":  # ``Class.*`` wraps whatever public methods there are
        assert callable(vars(cls)[method])


@pytest.mark.parametrize("workload", [workload.name for workload in WORKLOADS])
def test_a_shrunk_traced_child_runs_clean(workload):
    """Traced, so the tracer installs every boundary and ``child.py`` reads
    every attribute it reports from; in a subprocess, because installing
    monkeypatches process-wide."""
    child = subprocess.run(
        [
            sys.executable, "-m", "perfbench.child", "--workload", workload,
            "--seed", "7", "--players", "6", "--frames", "40", "--trace", "1",
        ],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[0])
    assert result["traced"] is True
    assert result["failures"] == []


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_a_full_size_workload_passes_its_own_check(workload, seed, tmp_path):
    """The benchmark's children fail on an honest ban, a stale delivery path,
    a survivor's wrong roster or a diverging tape; the shrunk self-test above
    runs those checks at one seed only.  This builds each workload at full
    size the way ``perfbench.child`` does, untraced, over five seeds."""
    scenario = workload.scenario(seed)
    game_map = scenario.make_map()
    trace = scenario.make_trace(game_map)
    faults = scenario.make_faults(trace.player_ids())
    session = scenario.make_session(trace, faults=faults, game_map=game_map)
    run = Run(scenario, session, tmp_path, lambda phase: None)
    if workload.taped:
        run.recorder = TapeRecorder(session, scenario, faults=faults).attach()
    report = workload.timed_phase(run)
    assert workload.check(run, report) == []
