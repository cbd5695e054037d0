"""Command-line interface: simulate, replay, and regenerate experiments.

The paper's workflow — record a trace, replay it under different network
and proxy configurations, run the evaluation studies — as a CLI:

    python -m repro simulate --players 16 --frames 400 --out trace.jsonl
    python -m repro replay trace.jsonl --latency king --loss 0.01
    python -m repro experiment fig4 --players 16 --frames 300
    python -m repro experiment all
    python -m repro metrics --players 12 --frames 120 --json -
    python -m repro bench-diff benchmarks/baseline.json BENCH_core.json
    python -m repro lint --explain D102
    python -m repro chaos --players 16 --frames 400 --seed 7 --out chaos.json

Every experiment prints the same rows/series the corresponding paper
figure or table reports.  ``metrics`` runs a standard session with the
observability registry enabled and prints/exports the snapshot (counts,
bandwidth and work ratios — how long it took is perfbench's to say);
``bench-diff`` is the CI regression gate over two bench JSON artifacts;
``lint`` is the determinism / protocol-conformance static analyzer
(see :mod:`repro.lint` and ``docs/STATIC_ANALYSIS.md``); ``chaos`` runs
the fault-injection scenario matrix and enforces the recovery SLOs
(see :mod:`repro.faults` and ``docs/ROBUSTNESS.md``).

Exit codes: 0 success, 1 failure (e.g. a bench-diff regression or a new
lint violation), 2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import (
    cheat_matrix_experiment,
    churn_statistics,
    exposure_experiment,
    figure6_experiment,
    figure7_experiment,
    hotspot_concentration,
    presence_heatmap,
    render_ascii,
    scalability_experiment,
    witness_experiment,
)
from repro.analysis.report import (
    render_cheat_matrix,
    render_churn,
    render_detection,
    render_exposure,
    render_scalability,
    render_update_age,
    render_witnesses,
)
from repro import __version__
from repro.core import WatchmenSession
from repro.faults.chaos import (
    byzantine_scenarios,
    chaos_gate_failures,
    default_scenarios,
    run_chaos,
)
from repro.lint.cli import add_lint_arguments, cmd_lint
from repro.mc.cli import add_mc_arguments, cmd_mc
from repro.replay.cli import add_tape_arguments, cmd_tape
from repro.game import GameTrace, generate_trace, make_corridors, make_longest_yard
from repro.net.latency import LatencyMatrix, king_like, peerwise_like, uniform_lan
from repro.net.transport import NetworkConfig
from repro.obs import (
    PINNED_EPOCH,
    MetricsRegistry,
    bench_row,
    diff_rows,
    format_diff,
    load_bench_rows,
    use_registry,
    write_bench_json,
)

__all__ = ["main", "build_parser"]

MAPS = {
    "longest-yard": make_longest_yard,
    "corridors": make_corridors,
}

EXPERIMENTS = (
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "churn",
    "scalability",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Watchmen (ICDCS 2013) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="record a deathmatch trace")
    simulate.add_argument("--players", type=int, default=16)
    simulate.add_argument("--frames", type=int, default=400)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--map", choices=sorted(MAPS), default="longest-yard")
    simulate.add_argument("--npc-fraction", type=float, default=0.0)
    simulate.add_argument("--out", required=True, help="output JSONL path")

    replay = sub.add_parser("replay", help="replay a trace through Watchmen")
    replay.add_argument("trace", help="JSONL trace file")
    replay.add_argument("--map", choices=sorted(MAPS), default="longest-yard")
    replay.add_argument(
        "--latency", choices=("king", "peerwise", "lan"), default="king"
    )
    replay.add_argument("--loss", type=float, default=0.01)
    replay.add_argument("--servers", type=int, default=0)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper figure/table"
    )
    experiment.add_argument("name", choices=EXPERIMENTS + ("all",))
    experiment.add_argument("--players", type=int, default=16)
    experiment.add_argument("--frames", type=int, default=300)
    experiment.add_argument("--seed", type=int, default=7)
    experiment.add_argument("--map", choices=sorted(MAPS), default="longest-yard")

    metrics = sub.add_parser(
        "metrics",
        help="run a standard session with the observability registry "
        "enabled and print/export the snapshot",
    )
    metrics.add_argument("--players", type=int, default=12)
    metrics.add_argument("--frames", type=int, default=120)
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument("--map", choices=sorted(MAPS), default="longest-yard")
    metrics.add_argument(
        "--latency", choices=("king", "peerwise", "lan"), default="king"
    )
    metrics.add_argument(
        "--json",
        metavar="PATH",
        help="write the registry snapshot as JSON ('-' for stdout)",
    )

    diff = sub.add_parser(
        "bench-diff",
        help="compare two bench JSON artifacts; exit 1 on regressions "
        "beyond the threshold",
    )
    diff.add_argument("old", help="baseline artifact (JSON)")
    diff.add_argument("new", help="candidate artifact (JSON)")
    diff.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative increase that counts as a regression (default 0.25)",
    )
    diff.add_argument(
        "--include-wall",
        action="store_true",
        help="also gate on wall_seconds (machine-dependent; off by default)",
    )

    lint = sub.add_parser(
        "lint",
        help="determinism / protocol-conformance / typing static analysis",
    )
    add_lint_arguments(lint)

    tape = sub.add_parser(
        "tape",
        help="record/verify/inspect/diff deterministic match tapes "
        "(exit 1 on divergence, 2 on usage problems)",
    )
    add_tape_arguments(tape)

    mc = sub.add_parser(
        "mc",
        help="bounded interleaving model checker: explore delivery "
        "schedules of small protocol scenarios; exit 1 on an invariant "
        "violation (counterexample written as a verifiable tape)",
    )
    add_mc_arguments(mc)

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection scenario matrix and enforce the "
        "recovery SLOs; exit 1 on any violation",
    )
    chaos.add_argument("--players", type=int, default=16)
    chaos.add_argument("--frames", type=int, default=400)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--matrix",
        choices=["standard", "byzantine", "all"],
        default="all",
        help="which scenario matrix to run: the pure-fault scenarios, "
        "the adversarial (Byzantine) ones, or both (default)",
    )
    chaos.add_argument(
        "--out",
        metavar="PATH",
        help="write the repro.bench.v1 artifact here ('-' for stdout); "
        "output is byte-identical across runs of the same parameters",
    )
    return parser


def _latency_for(name: str, size: int, seed: int) -> LatencyMatrix:
    if name == "king":
        return king_like(size, seed=seed)
    if name == "peerwise":
        return peerwise_like(size, seed=seed)
    return uniform_lan(size)


def cmd_simulate(args: argparse.Namespace) -> int:
    game_map = MAPS[args.map]()
    trace = generate_trace(
        num_players=args.players,
        num_frames=args.frames,
        seed=args.seed,
        npc_fraction=args.npc_fraction,
        game_map=game_map,
    )
    trace.save_jsonl(args.out)
    print(
        f"recorded {args.players} players x {args.frames} frames on "
        f"{args.map}: {len(trace.shots)} shots, {len(trace.kills)} kills "
        f"-> {args.out}"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    trace = GameTrace.load_jsonl(args.trace)
    game_map = MAPS[args.map]()
    size = len(trace.player_ids()) + args.servers
    session = WatchmenSession(
        trace,
        game_map=game_map,
        latency=_latency_for(args.latency, size, trace.seed),
        network_config=NetworkConfig(loss_rate=args.loss, seed=trace.seed),
        servers=args.servers,
    )
    report = session.run()
    print(f"players            : {report.num_players}")
    print(f"messages sent/lost : {report.messages_sent}/{report.messages_lost}")
    print(f"player upload      : mean {report.mean_upload_kbps:.0f} kbps, "
          f"max {report.max_upload_kbps:.0f} kbps")
    for server, kbps in report.server_upload_kbps.items():
        print(f"server {server} upload    : {kbps:.0f} kbps")
    print("update ages        : "
          + ", ".join(f"{a}f:{p:.1%}" for a, p in sorted(report.age_pdf().items())))
    print(f"stale (>=3 frames) : {report.stale_fraction():.2%}")
    print(f"banned             : {sorted(report.banned) or 'none'}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    game_map = MAPS[args.map]()
    trace = generate_trace(
        num_players=args.players,
        num_frames=args.frames,
        seed=args.seed,
        game_map=game_map,
    )
    names = EXPERIMENTS if args.name == "all" else (args.name,)
    for name in names:
        print(f"\n=== {name} ===")
        if name == "fig1":
            heatmap = presence_heatmap(trace, game_map, grid=20)
            print(render_ascii(heatmap))
            print(
                f"top-10%-cell presence: "
                f"{hotspot_concentration(heatmap):.0%}"
            )
        elif name == "fig4":
            sizes = [1, 2, 4, max(2, args.players // 4)]
            print(render_exposure(
                exposure_experiment(trace, game_map, sorted(set(sizes)))
            ))
        elif name == "fig5":
            sizes = sorted({1, 2, 4, max(2, args.players // 4)})
            print(render_witnesses(
                witness_experiment(trace, game_map, sizes)
            ))
        elif name == "fig6":
            print(render_detection(figure6_experiment(trace, game_map)))
        elif name == "fig7":
            print(render_update_age(figure7_experiment(trace, game_map)))
        elif name == "table1":
            print(render_cheat_matrix(cheat_matrix_experiment(trace, game_map)))
        elif name == "churn":
            print(render_churn(churn_statistics(trace, game_map)))
        elif name == "scalability":
            counts = sorted({4, 8, args.players})
            print(render_scalability(
                scalability_experiment(counts, num_frames=120,
                                       game_map=game_map)
            ))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    registry = MetricsRegistry(enabled=True)
    game_map = MAPS[args.map]()
    # Every layer binds the current registry where it is built, so the one
    # way to collect is to build and run inside ``use_registry``.
    with use_registry(registry):
        trace = generate_trace(
            num_players=args.players,
            num_frames=args.frames,
            seed=args.seed,
            game_map=game_map,
        )
        WatchmenSession(
            trace,
            game_map=game_map,
            latency=_latency_for(args.latency, args.players, args.seed),
        ).run()

    snapshot = registry.snapshot()
    if args.json:
        text = json.dumps(snapshot, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"snapshot -> {args.json}")
    if args.json != "-":
        _print_metrics_summary(snapshot)
    return 0


def _print_metrics_summary(snapshot: dict) -> None:
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    print(
        "session            : "
        f"{gauges.get('session.players', 0):.0f} players x "
        f"{gauges.get('session.frames', 0):.0f} frames "
        "(wall clock: python3 perfbench/run.py)"
    )
    print(
        "bandwidth          : "
        f"mean {gauges.get('net.upload_kbps.mean', 0.0):.0f} kbps, "
        f"max {gauges.get('net.upload_kbps.max', 0.0):.0f} kbps"
    )
    datagrams = counters.get("net.datagrams.sent", 0)
    decoded = counters.get("wire.frames.decoded", 0)
    reused = counters.get("wire.frames.reused", 0)
    if datagrams and decoded + reused:
        encodes = counters.get("node.frames_signed", 0) + counters.get(
            "wire.frames.reencoded", 0
        )
        print(
            "wire               : "
            f"encodes_per_send {encodes / datagrams:.3f}, "
            f"{reused / (decoded + reused):.1%} of received frames reused "
            f"({decoded} decoded)"
        )
    classifications = counters.get("interest.classifications", 0)
    if classifications:
        frames = counters.get("interest.observer_frames", 0)
        print(
            "interest           : "
            f"observer_frames_per_classification {frames / classifications:.3f} "
            f"({classifications} plans + verified subscriptions)"
        )
    sent = {
        name.removeprefix("net.sent.").removesuffix(".count"): value
        for name, value in counters.items()
        if name.startswith("net.sent.") and name.endswith(".count")
    }
    if sent:
        print("messages by type   : " + ", ".join(
            f"{kind}:{count}" for kind, count in sorted(sent.items())
        ))


def cmd_bench_diff(args: argparse.Namespace) -> int:
    try:
        old_rows = load_bench_rows(args.old)
        new_rows = load_bench_rows(args.new)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"bench-diff: {error}", file=sys.stderr)
        return 2
    regressions, others = diff_rows(
        old_rows,
        new_rows,
        threshold=args.threshold,
        include_wall=args.include_wall,
    )
    print(format_diff(regressions, others, threshold=args.threshold))
    return 1 if regressions else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    matrices = {
        "standard": default_scenarios(),
        "byzantine": byzantine_scenarios(),
        "all": default_scenarios() + byzantine_scenarios(),
    }
    results = run_chaos(
        players=args.players,
        frames=args.frames,
        seed=args.seed,
        scenarios=matrices[args.matrix],
    )
    rows = [
        bench_row(
            bench=f"chaos_{result['scenario']}",
            params=result["params"],
            metrics=result["metrics"],
            wall_seconds=0.0,  # pinned: artifact bytes must be reproducible
            timestamp=PINNED_EPOCH,
        )
        for result in results
    ]
    if args.out == "-":
        payload = {"schema": "repro.bench.v1", "generated": PINNED_EPOCH,
                   "rows": rows}
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.out:
        write_bench_json(args.out, rows, generated=PINNED_EPOCH)
        print(f"chaos artifact -> {args.out}")

    if args.out != "-":
        header = (
            f"{'scenario':<24} {'evict':>5} {'reproxy':>7} {'spurious':>8} "
            f"{'stale.dur':>9} {'stale.aft':>9} {'p95.delta':>9}"
        )
        print(header)
        for result in results:
            metrics = result["metrics"]
            print(
                f"{result['scenario']:<24} "
                f"{metrics['false_evictions']:>5.0f} "
                f"{metrics['frames_to_reproxy']:>7.0f} "
                f"{metrics['spurious_failovers']:>8.0f} "
                f"{metrics['stale_frac_during']:>9.3f} "
                f"{metrics['stale_frac_after']:>9.3f} "
                f"{metrics['view_error_p95'] - result['fault_free_view_error_p95']:>9.1f}"
            )
        byz_rows = [r for r in results if "byz_detection_frames" in r["metrics"]]
        if byz_rows:
            print(
                f"{'scenario':<24} {'detect':>6} {'equiv':>6} "
                f"{'convict':>7} {'hon.quar':>8} {'evicted':>7}"
            )
            for result in byz_rows:
                metrics = result["metrics"]
                print(
                    f"{result['scenario']:<24} "
                    f"{metrics['byz_detection_frames']:>6.0f} "
                    f"{metrics['equivocations_detected']:>6.0f} "
                    f"{metrics['evidence_convictions']:>7.0f} "
                    f"{metrics['honest_quarantines']:>8.0f} "
                    f"{metrics['attacker_evicted']:>7.0f}"
                )

    failures = chaos_gate_failures(results)
    for failure in failures:
        print(f"SLO VIOLATION: {failure}", file=sys.stderr)
    if not failures and args.out != "-":
        print("all recovery SLOs met")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "replay": cmd_replay,
        "experiment": cmd_experiment,
        "metrics": cmd_metrics,
        "bench-diff": cmd_bench_diff,
        "lint": cmd_lint,
        "tape": cmd_tape,
        "mc": cmd_mc,
        "chaos": cmd_chaos,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
