#!/usr/bin/env python3
"""Alternating base/change driver pairs on one or more perfbench workloads.

    python scripts/bench_pairs.py --base HEAD~1 --workload crowd96 --pairs 10
    python scripts/bench_pairs.py --base HEAD~1 --workload paper48,crowd96

Exports ``--base`` (any git ref) once into a temporary directory with ``git
archive`` (nothing is written to ``.git``; the copy is removed on exit),
then for each workload in the order given and seeds ``first-seed ..
first-seed + pairs - 1`` runs

    perfbench/run.py --workload W --seed N --seconds S --trace 0

once in the base copy and once in the working tree, the side that goes
first alternating from pair to pair so slow drift of the machine lands on
both.  Prints every run made, then — per host-time metric — each side's
median and quartiles, how many pairs the change won (ties count for
neither), and the median gap against the base's own inter-quartile range:
the acceptance rule of the choosing-metrics guide, section 8 (at least ten
pairs, win nine tenths of them *and* move the median by more than the
base's IQR).  The simulated metrics depend on the seed alone, so it also says, per
seed, whether they came out identical on both sides.

One summary table is printed per workload.  A run whose children failed
their correctness check has the driver's ``FAILED …`` lines printed under
it, and the summary names the seeds that failed on both trees with
identical simulated metrics (a check the two trees fail alike) apart from
those that failed on one side only.  Exits 1 when, on any workload, a
simulated metric differs on any seed or any child failed its correctness
check, on either side; 0 otherwise, whatever the timings say.

Runs the benchmark as a subprocess exactly as the driver does; imports
nothing from ``perfbench/`` and edits nothing there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: host-time metrics: compared by pairs (lower is better for all of them)
TIMED = ("wall_per_sim_s", "frame_ms_p50", "frame_ms_p95", "setup_s", "peak_rss_mb")
#: functions of the seed alone: must be identical per seed
SIMULATED = (
    "upload_kbps_mean", "upload_kbps_max", "update_age_ms_mean", "failed_fraction",
)

RUN_TIMEOUT_S = 900
#: fewer pairs than this never read as a gain, whatever they show
MIN_PAIRS_FOR_CLAIM = 10


def export_ref(ref: str, into: Path) -> None:
    """Unpack the tree of ``ref`` under ``into`` (``git archive | tar -x``)."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        capture_output=True, check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def driver_run(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One ``perfbench/run.py`` driver run in ``tree``: its last-line JSON,
    with the ``FAILED …`` lines it wrote to stderr under ``failure_lines``."""
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result: dict[str, Any] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"{tree}: run.py exited {done.returncode} without a result\n"
            f"{done.stderr.strip()}"
        ) from None
    result["failure_lines"] = [
        line for line in done.stderr.splitlines() if line.startswith("FAILED ")
    ]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(
    metric: str, base: list[float], change: list[float]
) -> dict[str, float | int | bool]:
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    wins = sum(c < b for b, c in zip(base, change))
    losses = sum(c > b for b, c in zip(base, change))
    gap = b2 - c2
    return {
        "metric": metric,
        "base_q1": b1, "base_median": b2, "base_q3": b3,
        "change_q1": c1, "change_median": c2, "change_q3": c3,
        "wins": wins, "losses": losses, "pairs": len(base),
        "gap": gap, "gap_pct": 100.0 * gap / b2 if b2 else 0.0,
        "base_iqr": b3 - b1,
        "gain": (
            len(base) >= MIN_PAIRS_FOR_CLAIM
            and wins >= 0.9 * len(base)
            and gap > b3 - b1
        ),
    }


def measure(
    workload: str, sides: dict[str, Path], args: argparse.Namespace
) -> dict[str, Any]:
    """Every pair of one workload, its summary table, and what went wrong."""
    runs: list[dict[str, Any]] = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result = driver_run(sides[side], workload, seed, args.seconds)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({
                "seed": seed, "side": side, "first": side == order[0],
                "correct": result["correct"], "failed": result["failed"],
                "attempted": result["attempted"],
                "failure_lines": result.get("failure_lines", []), **values,
            })
            print(
                f"{workload} seed {seed} {side:6s} "
                f"wall_per_sim_s {values['wall_per_sim_s']:.3f} "
                f"p50 {values['frame_ms_p50']:.1f} ms "
                f"{'ok' if result['correct'] else 'CHECK FAILED'}",
                flush=True,
            )
            for line in runs[-1]["failure_lines"]:
                print(f"    {line}", flush=True)

    by_side = {
        side: [run for run in runs if run["side"] == side] for side in ("base", "change")
    }
    print(f"\n{workload}: {args.pairs} pairs, base {args.base}, "
          f"seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
    header = (
        f"{'metric':16s} {'base q1/med/q3':>26s} {'change q1/med/q3':>26s} "
        f"{'wins':>6s} {'gap':>9s} {'%':>7s} {'base IQR':>9s}  verdict"
    )
    print(header)
    summaries = []
    for metric in TIMED:
        row = summarise(
            metric,
            [run[metric] for run in by_side["base"]],
            [run[metric] for run in by_side["change"]],
        )
        summaries.append(row)
        verdict = "gain" if row["gain"] else "no claim"
        print(
            f"{metric:16s} "
            f"{row['base_q1']:8.3f}/{row['base_median']:8.3f}/{row['base_q3']:8.3f} "
            f"{row['change_q1']:8.3f}/{row['change_median']:8.3f}/{row['change_q3']:8.3f} "
            f"{row['wins']:3d}/{row['pairs']:<2d} {row['gap']:9.3f} {row['gap_pct']:6.1f}% "
            f"{row['base_iqr']:9.3f}  {verdict}"
        )

    differing = [
        (base["seed"], metric)
        for base, change in zip(by_side["base"], by_side["change"])
        for metric in SIMULATED
        if base[metric] != change[metric]
    ]
    if differing:
        print("simulated metrics DIFFER (seed, metric): " + ", ".join(
            f"({seed}, {metric})" for seed, metric in differing
        ))
    else:
        print("simulated metrics (" + ", ".join(SIMULATED) + "): identical on every seed")
    for side, side_runs in by_side.items():
        failed = sum(run["failed"] for run in side_runs)
        attempted = sum(run["attempted"] for run in side_runs)
        print(f"{side}: {failed} of {attempted} children failed their check")
    failed_alike, failed_one_side = failed_seeds(by_side["base"], by_side["change"])
    if failed_alike:
        print(
            "failed on both trees with identical simulated metrics (seeds): "
            + ", ".join(map(str, failed_alike))
        )
    if failed_one_side:
        print("failed on one side only (seed side): " + ", ".join(
            f"{seed} {side}" for seed, side in failed_one_side
        ))
    return {
        "workload": workload, "runs": runs, "summary": summaries,
        "simulated_differ": differing, "failed": bool(failed_alike or failed_one_side),
        "failed_alike": failed_alike, "failed_one_side": failed_one_side,
    }


def failed_seeds(
    base_runs: list[dict[str, Any]], change_runs: list[dict[str, Any]]
) -> tuple[list[int], list[tuple[int, str]]]:
    """The seeds whose children failed their check on both trees with the
    same simulated metrics, and ``(seed, side)`` for every other failure:
    one side only, or both sides with metrics that differ."""
    alike: list[int] = []
    others: list[tuple[int, str]] = []
    for base, change in zip(base_runs, change_runs):
        failed = {
            run["side"] for run in (base, change) if run["failed"] or not run["correct"]
        }
        same = all(base[metric] == change[metric] for metric in SIMULATED)
        if failed == {"base", "change"} and same:
            alike.append(base["seed"])
        else:
            others += [(base["seed"], side) for side in ("base", "change") if side in failed]
    return alike, others


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument(
        "--workload", required=True,
        help="a workload, or several separated by commas (measured in that order)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=500)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = [name.strip() for name in args.workload.split(",")]
    if not all(workloads) or len(set(workloads)) != len(workloads):
        parser.error("--workload takes distinct names separated by commas")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        base_tree = Path(scratch)
        export_ref(args.base, base_tree)
        sides = {"base": base_tree, "change": ROOT}
        results = [measure(workload, sides, args) for workload in workloads]

    if len(results) > 1:
        print()
        for result in results:
            status = (
                "simulated metrics DIFFER" if result["simulated_differ"]
                else "a child FAILED its check on one side" if result["failed_one_side"]
                else "children FAILED their check on both trees alike"
                if result["failed_alike"]
                else "ok"
            )
            print(f"{result['workload']}: {status}")
    if args.json:
        args.json.write_text(json.dumps(
            {"base": args.base, "workloads": results}, indent=2
        ) + "\n")
    return 1 if any(r["simulated_differ"] or r["failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
