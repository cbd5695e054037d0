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


def test_a_workload_list_exports_once_and_summarises_each(
    bench_pairs, monkeypatch, capsys
):
    exports, calls = [], []
    monkeypatch.setattr(bench_pairs, "export_ref", lambda ref, into: exports.append(ref))
    stub_runs(bench_pairs, monkeypatch)
    stubbed = bench_pairs.driver_run

    def driver_run(tree, workload, seed, seconds):
        calls.append((workload, seed, "change" if tree == bench_pairs.ROOT else "base"))
        return stubbed(tree, workload, seed, seconds)

    monkeypatch.setattr(bench_pairs, "driver_run", driver_run)
    assert bench_pairs.main([
        "--base", "HEAD", "--workload", "paper48, crowd96", "--pairs", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert exports == ["HEAD"]
    assert calls == [
        ("paper48", 500, "base"), ("paper48", 500, "change"),
        ("paper48", 501, "change"), ("paper48", 501, "base"),
        ("crowd96", 500, "base"), ("crowd96", 500, "change"),
        ("crowd96", 501, "change"), ("crowd96", 501, "base"),
    ]
    assert "paper48: 2 pairs, base HEAD" in out
    assert "crowd96: 2 pairs, base HEAD" in out
    assert out.count("identical on every seed") == 2


def test_one_differing_workload_in_a_list_exits_1(bench_pairs, monkeypatch, capsys):
    def driver_run(tree, workload, seed, seconds):
        values = {metric: 1.0 for metric in bench_pairs.TIMED + bench_pairs.SIMULATED}
        if workload == "crowd96" and tree == bench_pairs.ROOT:
            values["failed_fraction"] = 0.5
        return {
            "correct": True, "failed": 0, "attempted": 3,
            "metrics": {metric: {"value": v} for metric, v in values.items()},
        }

    monkeypatch.setattr(bench_pairs, "driver_run", driver_run)
    assert bench_pairs.main([
        "--base", "HEAD", "--workload", "paper48,crowd96,taped24_cheats", "--pairs", "1",
    ]) == 1
    out = capsys.readouterr().out
    assert "paper48: ok" in out
    assert "crowd96: simulated metrics DIFFER" in out
    assert "taped24_cheats: ok" in out


def stub_failing_seeds(module, monkeypatch, *, one_sided: bool) -> None:
    """Seed 501 fails the same check on both trees (identical simulated
    metrics); if ``one_sided``, seed 502 fails on the working tree only."""

    def driver_run(tree, workload, seed, seconds):
        lines = []
        if seed == 501:
            lines = ["FAILED seed 501: stale_fraction 0.0205 > 0.02"]
        elif seed == 502 and one_sided and tree == module.ROOT:
            lines = ["FAILED seed 502: honest players banned: [3]"]
        values = {metric: 1.0 for metric in module.TIMED + module.SIMULATED}
        return {
            "correct": not lines, "failed": len(lines), "attempted": 3,
            "metrics": {metric: {"value": v} for metric, v in values.items()},
            "failure_lines": lines,
        }

    monkeypatch.setattr(module, "driver_run", driver_run)


def test_failed_seeds_are_named_alike_or_one_sided(bench_pairs, monkeypatch, capsys):
    """Each run's ``FAILED`` lines print under it, and the summary keeps a
    check both trees fail alike apart from one failed on one side only."""
    stub_failing_seeds(bench_pairs, monkeypatch, one_sided=True)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "paper48", "--pairs", "4"]) == 1
    out = capsys.readouterr().out.splitlines()

    def line_after(prefix):
        return out[out.index(next(line for line in out if line.startswith(prefix))) + 1]

    for side in ("base", "change"):
        assert line_after(f"paper48 seed 501 {side}") == (
            "    FAILED seed 501: stale_fraction 0.0205 > 0.02"
        )
    assert line_after("paper48 seed 502 change") == (
        "    FAILED seed 502: honest players banned: [3]"
    )
    assert "failed on both trees with identical simulated metrics (seeds): 501" in out
    assert "failed on one side only (seed side): 502 change" in out


def test_a_check_failed_alike_on_both_trees_still_exits_1(
    bench_pairs, monkeypatch, capsys
):
    stub_failing_seeds(bench_pairs, monkeypatch, one_sided=False)
    assert bench_pairs.main([
        "--base", "HEAD", "--workload", "paper48,crowd96", "--pairs", "3",
    ]) == 1
    out = capsys.readouterr().out
    assert "failed on one side only" not in out
    assert "paper48: children FAILED their check on both trees alike" in out
    assert "crowd96: children FAILED their check on both trees alike" in out


@pytest.mark.parametrize("workloads", ["paper48,,crowd96", "paper48,paper48", ","])
def test_a_malformed_workload_list_is_a_usage_error(bench_pairs, workloads):
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--base", "HEAD", "--workload", workloads])
    assert exit_.value.code == 2
