"""perfbench: the full-protocol session benchmark.

Two ways in, one measurement path:

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One driver run.  Launches fresh child processes (``perfbench.child``)
    on one workload until their timed phases add up to ``S`` seconds (at
    least three), checks every child's outputs, and prints one JSON object
    on the last line of stdout: the end-to-end metrics with ``--trace 0``,
    the per-layer metrics of one traced child with ``--trace 1``.

``PYTHONPATH=src python -m perfbench.run [--seed 7] [--repeats 3] [--workload NAME]``
    The whole suite: every workload, ``--repeats`` untraced children each,
    interleaved round-robin so machine drift spreads evenly, then one
    traced child per workload.  Prints every metric by name with its unit,
    writes ``perfbench/results/`` (raw runs, traces, ``repro.bench.v1``
    rows) and rewrites ``BENCHMARK.json`` from :mod:`perfbench.spec`.

Exit code 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from repro.obs import bench_row, write_bench_json  # noqa: E402
from repro.obs.stats import nearest_rank  # noqa: E402

from perfbench import spec  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, by_name  # noqa: E402

RESULTS = ROOT / "perfbench" / "results"

#: a child whose timed phase took this much more wall than CPU was
#: descheduled by the host; it is reported, marked, and re-run once
DESCHEDULED_WALL_OVER_CPU = 1.05

#: a driver run launches at least this many untraced children
MIN_REPEATS = 3

CHILD_TIMEOUT_S = 170


class ChildError(RuntimeError):
    """A child process died without printing a result."""


def spawn_child(
    workload: Workload,
    seed: int,
    size: tuple[int | None, int | None],
    trace: bool = False,
    break_check: bool = False,
) -> dict[str, Any]:
    """Run one child to completion and return the result it printed."""
    players, frames = size
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload.name,
        "--seed", str(seed),
        "--trace", str(int(trace)),
    ]
    if players is not None:
        command += ["--players", str(players)]
    if frames is not None:
        command += ["--frames", str(frames)]
    if trace:
        command += ["--trace-out", str(RESULTS / f"{workload.name}.trace.json.gz")]
    if break_check:
        command.append("--break-check")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
        # str hashing is the only per-process randomness left; pin it so
        # repeats of one seed do the same dict probing
        PYTHONHASHSEED="0",
    )
    command += ["--spawned-at", repr(time.perf_counter())]
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildError(
            f"{workload.name} child exited {done.returncode} without a result:\n"
            f"{done.stderr.strip()}"
        ) from None
    result["descheduled"] = (
        result["timed_s"] > DESCHEDULED_WALL_OVER_CPU * result["cpu_s"]
    )
    result["superseded"] = False
    return result


def run_slot(
    workload: Workload, seed: int, size: tuple[int | None, int | None],
    break_check: bool = False,
) -> list[dict[str, Any]]:
    """One untraced repeat: a child, plus its one re-run if descheduled."""
    first = spawn_child(workload, seed, size, break_check=break_check)
    if not first["descheduled"]:
        return [first]
    first["superseded"] = True
    return [first, spawn_child(workload, seed, size, break_check=break_check)]


def kept_runs(runs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The runs aggregates are taken from: all but the superseded ones."""
    return [run for run in runs if not run["superseded"]]


def quiet_times(run: dict[str, Any]) -> tuple[list[float], list[float]]:
    """One untraced run's frame and post-run phase times, each divided by
    the machine slowdown measured next to it (:mod:`perfbench.calibrate`)."""
    frames = [
        seconds / slowdown
        for seconds, slowdown in zip(run["frame_s"], run["frame_slowdown"])
    ]
    phases = [
        run["phase_s"][name] / slowdown
        for name, slowdown in run["phase_slowdown"].items()
    ]
    return frames, phases


def end_to_end(runs: list[dict[str, Any]]) -> dict[str, float]:
    """The end-to-end metrics from the untraced runs of one seed.

    Every repeat does bit-identical work, frame for frame, so what differs
    between repeats of one frame is the machine, not the program: each
    frame (and each post-run phase) is taken at its median across repeats,
    and the percentiles are then taken across frames.
    """
    per_run = [quiet_times(run) for run in runs]
    frames = [
        statistics.median(column)
        for column in zip(*(frames for frames, _ in per_run))
    ]
    phases = [
        statistics.median(column)
        for column in zip(*(phases for _, phases in per_run))
    ]
    return {
        "wall_per_sim_s": (sum(frames) + sum(phases)) / runs[0]["sim_s"],
        "frame_ms_p50": statistics.median(frames) * 1e3,
        "frame_ms_p95": nearest_rank(frames, 0.95) * 1e3,
        "setup_s": statistics.median(
            run["setup_s"] / run["setup_slowdown"] for run in runs
        ),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        **runs[0]["simulated"],
    }


def failures_of(runs: list[dict[str, Any]]) -> list[str]:
    """Check failures of every run, plus cross-run determinism."""
    failures = [
        f"{run['workload']}: {failure}" for run in runs for failure in run["failures"]
    ]
    first = runs[0]
    for run in runs[1:]:
        if run["simulated"] != first["simulated"]:
            failures.append(
                f"{run['workload']}: simulated metrics differ between "
                f"{'traced and untraced' if run['traced'] != first['traced'] else 'repeats'}"
                f" of seed {run['seed']}"
            )
        if run["tape_sha256"] != first["tape_sha256"]:
            failures.append(
                f"{run['workload']}: tape fingerprint differs between runs "
                f"of seed {run['seed']}"
            )
    return failures


def measured_s(run: dict[str, Any]) -> float:
    """An untraced run's timed phase without its kernel samples."""
    return sum(run["frame_s"]) + sum(
        run["phase_s"][name] for name in run["phase_slowdown"]
    )


def per_layer(
    traced: dict[str, Any], untraced: list[dict[str, Any]]
) -> dict[str, float]:
    """The traced child's layer metrics plus those that need untraced runs."""
    return {
        **traced["layers"],
        "process.cpu_per_sim_s": statistics.median(
            run["cpu_per_sim_s"] for run in untraced
        ),
        "process.trace_overhead_ratio": traced["timed_s"] / statistics.median(
            measured_s(run) for run in untraced
        ),
        "process.machine_slowdown": statistics.median(
            statistics.median(run["frame_slowdown"]) for run in untraced
        ),
    }


def with_units(metrics: dict[str, float]) -> dict[str, dict[str, Any]]:
    return {
        name: {"value": value, "unit": spec.UNITS[name]}
        for name, value in metrics.items()
    }


# ---- one driver run -----------------------------------------------------------


def driver_run(args: argparse.Namespace) -> int:
    workload = by_name(args.workload)
    size = (args.players, args.frames)
    runs: list[dict[str, Any]] = []
    if args.trace:
        # one untraced child for the overhead ratio, one traced child
        runs += run_slot(workload, args.seed, size, args.break_check)
        untraced = kept_runs(runs)
        traced = spawn_child(workload, args.seed, size, trace=True,
                             break_check=args.break_check)
        failures = failures_of(runs + [traced])
        metrics = per_layer(traced, untraced)
        runs.append(traced)
    else:
        slots, accumulated = 0, 0.0
        while slots < MIN_REPEATS or accumulated < args.seconds:
            slot = run_slot(workload, args.seed, size, args.break_check)
            runs += slot
            accumulated += measured_s(slot[-1])
            slots += 1
        failures = failures_of(runs)
        metrics = end_to_end(kept_runs(runs))
        if failures:
            metrics["failed_fraction"] = 1.0
    print_runs(runs)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    # a cross-run determinism failure indicts every run of the seed
    failed = sum(bool(run["failures"]) for run in runs) or (
        len(runs) if failures else 0
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": failed,
        "metrics": with_units(metrics),
    }))
    return 1 if failures else 0


# ---- the whole suite ----------------------------------------------------------


def suite(args: argparse.Namespace) -> int:
    workloads = [by_name(args.workload)] if args.workload else list(WORKLOADS)
    size = (args.players, args.frames)
    runs: dict[str, list[dict[str, Any]]] = {w.name: [] for w in workloads}
    for _ in range(args.repeats):
        for workload in workloads:
            runs[workload.name] += run_slot(
                workload, args.seed, size, args.break_check
            )
    RESULTS.mkdir(exist_ok=True)
    all_failures: list[str] = []
    rows = []
    for workload in workloads:
        untraced = kept_runs(runs[workload.name])
        traced = spawn_child(workload, args.seed, size, trace=True,
                             break_check=args.break_check)
        failures = failures_of(runs[workload.name] + [traced])
        metrics = end_to_end(untraced)
        if failures:
            metrics["failed_fraction"] = 1.0
        layers = per_layer(traced, untraced)
        all_failures += failures
        report(workload, args.seed, runs[workload.name] + [traced], metrics,
               layers, failures)
        (RESULTS / f"{workload.name}.json").write_text(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "end_to_end": with_units(metrics),
            "per_layer": with_units(layers),
            "failures": failures,
            "untraced_runs": runs[workload.name],
            "traced_run": traced,
        }, indent=1) + "\n", encoding="utf-8")
        rows.append(bench_row(
            f"perfbench.{workload.name}",
            params={
                "seed": args.seed, "players": traced["players"],
                "frames": traced["frames"], "repeats": len(untraced),
            },
            metrics=metrics,
            wall_seconds=statistics.median(measured_s(run) for run in untraced),
        ))
    write_bench_json(RESULTS / "bench_rows.json", rows)
    spec.write_benchmark_json(ROOT)
    for failure in all_failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if all_failures else 0


def print_runs(runs: list[dict[str, Any]]) -> None:
    """One line per child run made; none is dropped silently."""
    for run in runs:
        note = "  traced" if run["traced"] else ""
        note += "  descheduled" if run["descheduled"] else ""
        note += ", re-run" if run["superseded"] else ""
        print(
            f"   run: timed {run['timed_s']:.3f} s  cpu {run['cpu_s']:.3f} s  "
            f"setup {run['setup_s']:.3f} s{note}"
        )


def report(
    workload: Workload,
    seed: int,
    runs: list[dict[str, Any]],
    metrics: dict[str, float],
    layers: dict[str, float],
    failures: list[str],
) -> None:
    """Print one workload's metrics by name, with units, and every run made."""
    first = runs[0]
    print(
        f"\n== {workload.name}  seed {seed}  {first['players']} players x "
        f"{first['frames']} frames  {'FAILED' if failures else 'ok'}"
    )
    print(f"   {workload.why}")
    print_runs(runs)
    repeats = sum(not (run["traced"] or run["superseded"]) for run in runs)
    print(
        f"   end to end ({repeats} repeats, {repeats * first['frames']} "
        f"frame samples):"
    )
    for name, value in metrics.items():
        print(f"     {name:34s} {value:14.6g} {spec.UNITS[name]}")
    print("   per layer (one traced run):")
    for name, value in layers.items():
        print(f"     {name:40s} {value:14.6g} {spec.UNITS[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver run: timed seconds to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver run: 0 end-to-end metrics, 1 per-layer")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite: untraced children per workload")
    parser.add_argument("--players", type=int, default=None,
                        help="shrink every workload to this many players")
    parser.add_argument("--frames", type=int, default=None,
                        help="shrink every workload to this many frames")
    parser.add_argument("--break-check", action="store_true",
                        help="fail every correctness check on purpose (self-test)")
    args = parser.parse_args(argv)
    if args.trace is None and args.seconds is None:
        return suite(args)
    if args.workload is None:
        parser.error("a driver run needs --workload")
    args.trace = args.trace or 0
    args.seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    return driver_run(args)


if __name__ == "__main__":
    sys.exit(main())
