#!/usr/bin/env python3
"""Alternating base/change driver pairs on one perfbench workload.

    python scripts/bench_pairs.py --base HEAD~1 --workload crowd96 --pairs 10

Exports ``--base`` (any git ref) into a temporary directory with ``git
archive`` (nothing is written to ``.git``; the copy is removed on exit),
then for seeds ``first-seed .. first-seed + pairs - 1`` runs

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

Exits 1 when a simulated metric differs on any seed or any child failed its
correctness check, on either side; 0 otherwise, whatever the timings say.

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
    """One ``perfbench/run.py`` driver run in ``tree``; its last-line JSON."""
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"{tree}: run.py exited {done.returncode} without a result\n"
            f"{done.stderr.strip()}"
        ) from None


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=500)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs: list[dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        base_tree = Path(scratch)
        export_ref(args.base, base_tree)
        sides = {"base": base_tree, "change": ROOT}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = driver_run(sides[side], args.workload, seed, args.seconds)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                runs.append({
                    "seed": seed, "side": side, "first": side == order[0],
                    "correct": result["correct"], "failed": result["failed"],
                    "attempted": result["attempted"], **values,
                })
                print(
                    f"seed {seed} {side:6s} wall_per_sim_s {values['wall_per_sim_s']:.3f} "
                    f"p50 {values['frame_ms_p50']:.1f} ms "
                    f"{'ok' if result['correct'] else 'CHECK FAILED'}",
                    flush=True,
                )

    by_side = {
        side: [run for run in runs if run["side"] == side] for side in ("base", "change")
    }
    print(f"\n{args.workload}: {args.pairs} pairs, base {args.base}, "
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
    any_failed = False
    for side, side_runs in by_side.items():
        failed = sum(run["failed"] for run in side_runs)
        attempted = sum(run["attempted"] for run in side_runs)
        any_failed |= failed > 0 or not all(run["correct"] for run in side_runs)
        print(f"{side}: {failed} of {attempted} children failed their check")

    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "base": args.base, "runs": runs,
             "summary": summaries, "simulated_differ": differing},
            indent=2,
        ) + "\n")
    return 1 if differing or any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
