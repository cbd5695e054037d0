"""``scripts/bench_pairs.py`` fails loudly: a simulated metric that differs
on a seed, or a child that failed its check, is exit status 1, not a line
of output a reader may miss.  ``driver_run`` and ``export_ref`` are stubbed,
so nothing here spawns perfbench or times anything."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture()
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "export_ref", lambda ref, into: None)
    return module


def stub_runs(module, monkeypatch, *, upload=lambda tree, seed: 10.0, failed=0):
    """Every ``perfbench/run.py`` run reports the same timings and, per (tree, seed),
    ``upload`` as ``upload_kbps_mean``; the working tree's runs report
    ``failed`` failed children."""

    def driver_run(tree, workload, seed, seconds):
        values = {metric: 1.0 for metric in module.TIMED + module.SIMULATED}
        values["upload_kbps_mean"] = upload(tree, seed)
        failures = failed if tree == module.ROOT else 0
        return {
            "correct": not failures, "failed": failures, "attempted": 3,
            "metrics": {metric: {"value": v} for metric, v in values.items()},
        }

    monkeypatch.setattr(module, "driver_run", driver_run)


def main(module):
    return module.main(["--base", "HEAD", "--workload", "paper48", "--pairs", "3"])


def test_identical_simulated_metrics_and_clean_children_exit_0(
    bench_pairs, monkeypatch, capsys
):
    stub_runs(bench_pairs, monkeypatch)
    assert main(bench_pairs) == 0
    assert "identical on every seed" in capsys.readouterr().out


def test_a_simulated_metric_that_differs_on_one_seed_exits_1(
    bench_pairs, monkeypatch, capsys
):
    def upload(tree, seed):
        return 11.0 if tree == bench_pairs.ROOT and seed == 501 else 10.0

    stub_runs(bench_pairs, monkeypatch, upload=upload)
    assert main(bench_pairs) == 1
    assert "(501, upload_kbps_mean)" in capsys.readouterr().out


def test_a_child_that_failed_its_check_exits_1(bench_pairs, monkeypatch, capsys):
    stub_runs(bench_pairs, monkeypatch, failed=1)
    assert main(bench_pairs) == 1
    assert "change: 3 of 9 children failed their check" in capsys.readouterr().out
