"""perfbench's own tests: ``PYTHONPATH=src python -m pytest perfbench -q``.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only).  Every
workload runs as a 6-player x 40-frame shrink — except the crash workload,
which cannot finish a crash-stop removal in fewer frames than
``Workload.min_frames``.
"""

from __future__ import annotations

import gzip
import json
import re
from pathlib import Path

import pytest

from repro.obs import diff_rows, load_bench_rows

from perfbench import run, spec
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SHRINK = ["--seed", "7", "--players", "6", "--frames", "40"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def driver(capsys: pytest.CaptureFixture[str], *extra: str) -> tuple[int, dict]:
    """One shrunk driver run: (exit code, the JSON on stdout's last line)."""
    code = run.main([*SHRINK, "--seconds", "0", *extra])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_is_the_spec_and_meets_the_contract() -> None:
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [
        row["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for row in committed[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(
        UNIT.fullmatch(row["unit"])
        for key in ("end_to_end", "per_layer") for row in committed[key]
    )
    assert all(0 < row["bound"] <= 0.25 for row in committed["end_to_end"])
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"]
               for row in committed["workloads"])
    setup = [row for row in committed["end_to_end"] if row["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(row["bound"] for row in committed["end_to_end"])}
    ]


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_shrunk_workload_emits_exactly_the_declared_metrics(
    workload: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code, untraced = driver(capsys, "--workload", workload, "--trace", "0")
    assert code == 0 and untraced["correct"] and untraced["failed"] == 0
    assert list(untraced["metrics"]) == [name for name, _, _ in spec.END_TO_END]
    # --trace 1 also asserts, inside the run, that tracing left every
    # simulated metric (and the tape fingerprint) bit-equal
    code, traced = driver(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and traced["correct"]
    assert set(traced["metrics"]) == {name for name, _, _ in spec.PER_LAYER}
    for metrics in (untraced["metrics"], traced["metrics"]):
        for name, entry in metrics.items():
            assert entry["unit"] == spec.UNITS[name]
            assert isinstance(entry["value"], (int, float))
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())


def test_spans_nest_and_self_times_partition_the_timed_phase() -> None:
    workload = WORKLOADS[-1]  # the taped one: post-run phases and two sessions
    result = run.spawn_child(workload, 7, (6, 40), trace=True)
    assert not result["failures"]
    attributed = sum(result["layer_self_s"].values())
    unattributed = result["layers"]["process.unattributed_fraction"] * result["timed_s"]
    assert attributed + unattributed == pytest.approx(result["timed_s"], rel=1e-9)
    assert 0 <= unattributed < 0.2 * result["timed_s"]

    trace_path = run.RESULTS / f"{workload.name}.trace.json.gz"
    with gzip.open(trace_path, "rt", encoding="utf-8") as handle:
        trace = json.load(handle)
    spans = {span["id"]: span for span in trace["sampled_spans"]}
    assert any(span["parent"] is not None for span in spans.values())
    children: dict[int, list[dict]] = {}
    for span in spans.values():
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
            children.setdefault(span["parent"], []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: span["start_ns"])
        for before, after in zip(siblings, siblings[1:]):
            assert before["end_ns"] <= after["start_ns"]
    sampled_frames = {span["frame"] for span in spans.values() if span["parent"] is not None}
    assert sampled_frames <= {0, 10, 20, 30}
    assert [row["frame"] for row in trace["frames"]] == list(range(40))


def test_tracer_self_time_entries_and_parents_with_a_fake_clock() -> None:
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "a.inner", "a")
    sibling = tracer.wrap(lambda: inner(), "a.sibling", "a")
    outer = tracer.wrap(lambda: (inner(), sibling()), "b.outer", "b")
    tracer.sampling = True
    outer()
    # clock: outer 0..70, inner 10..20, sibling 30..60 around inner 40..50
    assert tracer.span("b.outer") == {
        "calls": 1, "entries": 1, "work": 0, "total_s": 70e-9, "self_s": 30e-9
    }
    assert tracer.span("a.inner")["calls"] == 2
    assert tracer.span("a.inner")["entries"] == 1  # the second came from layer a
    assert tracer.span("a.sibling")["self_s"] == 20e-9
    assert tracer.layer_self_ns() == {"core.protocol": 0, "a": 40, "b": 30}
    records = tracer.span_records()
    assert [(r["name"], r["parent"]) for r in records] == [
        ("a.inner", 3), ("a.inner", 2), ("a.sibling", 3), ("b.outer", None)
    ]


def test_broken_check_exits_nonzero_with_failed_fraction_one(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, result = driver(
        capsys, "--workload", "paper48", "--trace", "0", "--break-check"
    )
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 3
    assert result["metrics"]["failed_fraction"]["value"] == 1.0


def test_suite_writes_bench_rows_that_bench_diff_reads(
    capsys: pytest.CaptureFixture[str],
) -> None:
    before = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    assert run.main([*SHRINK, "--repeats", "2"]) == 0
    printed = capsys.readouterr().out
    for name, unit, _ in spec.END_TO_END + spec.PER_LAYER:
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         printed, re.MULTILINE), name
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == before
    rows = load_bench_rows(run.RESULTS / "bench_rows.json")
    assert set(rows) == {f"perfbench.{w.name}" for w in WORKLOADS}
    for row in rows.values():
        assert set(row["metrics"]) == {name for name, _, _ in spec.END_TO_END}
    regressions, others = diff_rows(rows, rows)
    assert not regressions and len(others) == len(spec.END_TO_END) * len(WORKLOADS)
    raw = json.loads((run.RESULTS / "paper48.json").read_text(encoding="utf-8"))
    assert len(raw["untraced_runs"]) >= 2  # every run made is reported
