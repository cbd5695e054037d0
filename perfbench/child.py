"""One benchmark run, in a fresh single-threaded process.

Set-up (imports, map, ``make_trace``, ``make_faults``, ``make_session``,
recorder attach), then the workload's timed phase, then its correctness
check; prints one JSON object on the last line of stdout.  Started by
:mod:`perfbench.run`, which passes the clock reading it took just before
spawning (``--spawned-at``; ``time.perf_counter`` is one system-wide
monotonic clock) so ``setup_s`` starts at process creation.

With ``--trace 1`` the run also installs :class:`perfbench.tracer.Tracer`
around every layer's entry points and an enabled ``MetricsRegistry``, and
reports the per-layer metrics; end-to-end numbers are only ever taken
from ``--trace 0`` runs, which instead time the calibration kernel
(:mod:`perfbench.calibrate`) at every frame start and phase end so the
parent can divide out how slow the machine was at that moment.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.core.config import FRAMES_PER_SECOND
from repro.core.protocol import SessionReport, WatchmenSession
from repro.obs.registry import MetricsRegistry, set_registry
from repro.replay import TapeRecorder

from perfbench import calibrate
from perfbench.tracer import Tracer
from perfbench.workloads import Run, by_name


def simulated_metrics(report: SessionReport) -> dict[str, float]:
    """The end-to-end metrics that depend on the seed alone."""
    ages = report.age_histogram
    return {
        "upload_kbps_mean": report.mean_upload_kbps,
        "upload_kbps_max": report.max_upload_kbps,
        "update_age_ms_mean": (
            sum(age * count for age, count in ages.items()) / sum(ages.values())
            * 1000.0 / FRAMES_PER_SECOND
        ),
        "failed_fraction": report.messages_lost / report.messages_sent,
    }


def honest_suspicious_fraction(run: Run, report: SessionReport) -> float:
    """Suspicious share of the ratings about players that are neither
    cheaters nor crashed (the paper's <= 5 % honest false-positive budget)."""
    excluded = {spec.player_id for spec in run.scenario.cheats} | set(report.crashed)
    suspicious = rated = 0
    for rating in report.ratings:
        if rating.subject_id not in excluded:
            suspicious += rating.suspicious
            rated += 1
    return suspicious / rated if rated else 0.0


class GcWatch:
    """``gc.callbacks`` hook: collections and the longest pause."""

    def __init__(self) -> None:
        self.gen2_collections = 0
        self.pause_max_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_max_s = max(self.pause_max_s, time.perf_counter() - self._started)
        if info["generation"] == 2:
            self.gen2_collections += 1


def layer_metrics(
    tracer: Tracer,
    registry: MetricsRegistry,
    run: Run,
    report: SessionReport,
    phases: dict[str, float],
    gc_watch: GcWatch,
    timed_s: float,
    attributed_s: float,
    queue_depth_max: int,
) -> dict[str, float]:
    """Every per-layer metric one traced run can produce by itself."""
    counters: dict[str, int] = registry.snapshot()["counters"]  # type: ignore[assignment]
    session = run.session

    def per(amount: float, base: float) -> float:
        return amount / base if base else 0.0

    def counter(name: str) -> int:
        return counters.get(name, 0)

    def entries(*names: str) -> int:
        return sum(int(tracer.span(name)["entries"]) for name in names)

    # Ratios use process-wide bases: the registry and the tracer both see
    # every session the process runs (the taped workload runs two).
    sent = counter("net.datagrams.sent")
    delivered = counter("net.datagrams.delivered")

    simulator = tracer.span("game.simulator.generate_trace")
    interest = tracer.layer("game.interest")
    los = session.los_cache
    game_map = session.game_map
    on_message = "core.node.WatchmenNode.on_message"
    encodes = ("core.wire.encode_bytes", "core.wire.encode_signable")
    return {
        "game.simulator.self_s": simulator["self_s"],
        "game.simulator.frames_per_s": per(
            run.scenario.frames, simulator["total_s"]
        ),
        "game.interest.self_s": interest["self_s"],
        "game.interest.calls": interest["calls"],
        "game.interest.pairs": tracer.span("game.interest.compute_sets")["work"],
        "game.interest.los_cache_hit_ratio": per(los.hits, los.hits + los.misses),
        "game.interest.los_boxes_per_query": per(
            game_map.los_boxes_tested, game_map.los_queries
        ),
        "core.subscriptions.self_s": tracer.layer("core.subscriptions")["self_s"],
        "core.subscriptions.plans": tracer.span(
            "core.subscriptions.SubscriptionPlanner.plan"
        )["calls"],
        "core.proxy.self_s": tracer.layer("core.proxy")["self_s"],
        "core.proxy.lookups_per_draw": per(
            counter("proxy.schedule.lookups"), counter("proxy.schedule.draws")
        ),
        "core.wire.self_s": tracer.layer("core.wire")["self_s"],
        "core.wire.encodes_per_send": per(
            entries(*encodes, "core.wire.encoded_size"), sent
        ),
        "core.wire.decodes_per_delivery": per(
            entries("core.wire.decode_bytes"), delivered
        ),
        "core.wire.bytes_per_msg": per(counter("net.bytes.sent"), sent),
        "core.wire.encode_us_p50": tracer.duration_us(encodes, 0.5),
        "core.wire.decode_us_p50": tracer.duration_us(
            ("core.wire.decode_bytes",), 0.5
        ),
        "crypto.signatures.self_s": tracer.layer("crypto.signatures")["self_s"],
        "crypto.signatures.signs_per_send": per(
            entries("crypto.signatures.HmacSigner.sign"), sent
        ),
        "crypto.signatures.verifies_per_delivery": per(
            entries("crypto.signatures.HmacSigner.verify"), delivered
        ),
        "crypto.signatures.verify_failures": counter("node.signature_failures"),
        "net.transport.self_s": tracer.layer("net.transport")["self_s"],
        "net.transport.datagrams_sent": sent,
        "net.transport.delivered": delivered,
        "net.transport.drop_ratio": per(report.messages_lost, report.messages_sent),
        "net.transport.bytes_sent": counter("net.bytes.sent"),
        "net.transport.events_processed": session.queue.processed,
        "net.transport.queue_depth_max": queue_depth_max,
        "core.node.on_frame_self_s": tracer.span(
            "core.node.WatchmenNode.on_frame"
        )["self_s"],
        "core.node.on_message_self_s": tracer.span(on_message)["self_s"],
        "core.node.on_message_us_p50": tracer.duration_us((on_message,), 0.5),
        "core.node.on_message_us_p95": tracer.duration_us((on_message,), 0.95),
        "core.node.forwarded_per_delivery": per(
            counter("node.forwarded_messages"), delivered
        ),
        "core.node.replayed_messages": counter("node.replayed_messages"),
        "core.node.acks_per_send": per(counter("node.acks_sent"), sent),
        "core.node.ack_retries": counter("node.ack_retries"),
        "core.node.failovers": report.proxy_failovers,
        "core.node.quarantines": report.quarantines,
        "core.verification.self_s": tracer.layer("core.verification")["self_s"],
        "core.verification.checks": tracer.layer("core.verification")["entries"],
        "core.verification.suspicious_ratio": per(
            counter("node.ratings_suspicious"), counter("node.ratings_emitted")
        ),
        "core.verification.honest_suspicious_fraction": (
            honest_suspicious_fraction(run, report)
        ),
        "core.reputation.self_s": tracer.layer("core.reputation")["self_s"],
        "core.reputation.ratings": tracer.layer("core.reputation")["calls"],
        "core.membership.self_s": tracer.layer("core.membership")["self_s"],
        "core.membership.removal_proposals": counter(
            "net.sent.RemovalProposal.count"
        ),
        "core.membership.liveness_defenses": counter("node.liveness_defenses"),
        "faults.self_s": tracer.layer("faults")["self_s"],
        "replay.recorder.tap_self_s": tracer.span(
            "replay.recorder.TapeRecorder._tap"
        )["self_s"],
        "replay.recorder.finalize_s": phases.get("finalize", 0.0),
        "replay.recorder.messages": run.tape_messages,
        "replay.tape.write_s": phases.get("write", 0.0),
        "replay.tape.read_s": phases.get("read", 0.0),
        "replay.tape.file_bytes_per_msg": per(
            run.tape_file_bytes, run.tape_messages
        ),
        "replay.player.verify_s": phases.get("verify", 0.0),
        "core.protocol.setup_s": tracer.span(
            "core.protocol.WatchmenSession.__init__"
        )["total_s"],
        "core.protocol.tick_self_s": tracer.span("core.protocol.tick")["self_s"],
        "process.gc_gen2_collections": gc_watch.gen2_collections,
        "process.gc_pause_ms_max": gc_watch.pause_max_s * 1e3,
        "process.unattributed_fraction": 1.0 - attributed_s / timed_s,
    }


#: kernel samples taken at each point outside the frame loop
SAMPLES = 3


class Stopwatch:
    """The untraced run's instrument: frame and phase times, each with
    calibration-kernel samples taken beside it (and inside neither)."""

    def __init__(self) -> None:
        calibrate.kernel()  # the first call pays one-off initialisation
        self.setup_samples = self._sample()
        #: frame i is timed from resumed[i] to begun[i + 1]
        self.begun: list[float] = []
        self.resumed: list[float] = []
        self.frame_samples: list[float] = []
        #: one group after each phase of the timed phase, "run" first
        self.phase_samples: list[list[float]] = []

    @staticmethod
    def _sample() -> list[float]:
        return [calibrate.kernel() for _ in range(SAMPLES)]

    def attach(self, session: WatchmenSession) -> None:
        session.on_frame_begin = self._frame_begin

    def _frame_begin(self, frame: int) -> None:
        self.begun.append(time.perf_counter())
        self.frame_samples.append(calibrate.kernel())
        self.resumed.append(time.perf_counter())

    def start(self) -> None:
        self.setup_samples += self._sample()

    def phase_done(self, name: str) -> None:
        self.phase_samples.append(self._sample())

    def stop(self) -> None:
        pass

    def results(self, started: float, phases: dict[str, float]) -> dict[str, Any]:
        ends = [*self.begun[1:], started + phases["run"]]
        frame_s = [end - begin for begin, end in zip(self.resumed, ends)]
        frame_s[0] += self.begun[0] - started  # run()'s scheduling preamble
        groups = self.phase_samples
        return {
            "frame_s": frame_s,
            # the sample at each frame start, plus the first one after run()
            "frame_slowdown": calibrate.local_slowdowns(
                self.frame_samples + groups[0][:1], len(frame_s)
            ),
            # every post-run phase sits between two sample groups
            "phase_slowdown": {
                name: calibrate.slowdown(before + after)
                for name, before, after in zip(list(phases)[1:], groups, groups[1:])
            },
            "setup_slowdown": calibrate.slowdown(self.setup_samples),
        }


class TraceProbe:
    """The traced run's instrument: spans, an enabled registry, a GC watch."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry(enabled=True)
        set_registry(self.registry)
        self.tracer = Tracer()
        self.tracer.install()
        self.gc_watch = GcWatch()
        self.queue_depths: list[int] = []
        self.self_before: dict[str, int] = {}

    def attach(self, session: WatchmenSession) -> None:
        def frame_begin(frame: int) -> None:
            self.queue_depths.append(len(session.queue))
            self.tracer.begin_frame(frame)

        session.on_frame_begin = frame_begin
        session.on_frame_end = self.tracer.end_frame

    def start(self) -> None:
        gc.callbacks.append(self.gc_watch)
        self.self_before = self.tracer.layer_self_ns()

    def phase_done(self, name: str) -> None:
        if name == "run":
            self.tracer.end_run()

    def stop(self) -> None:
        gc.callbacks.remove(self.gc_watch)

    def results(
        self, run: Run, report: SessionReport, phases: dict[str, float],
        timed_s: float,
    ) -> dict[str, Any]:
        # the layers' self times inside the timed phase partition it, up
        # to whatever ran under no instrumented entry point
        layer_self_s = {
            layer: (value - self.self_before.get(layer, 0)) / 1e9
            for layer, value in self.tracer.layer_self_ns().items()
        }
        return {
            "layer_self_s": layer_self_s,
            "layers": layer_metrics(
                self.tracer, self.registry, run, report, phases, self.gc_watch,
                timed_s, sum(layer_self_s.values()),
                max(self.queue_depths, default=0),
            ),
        }

    def write(self, path: Path, workload: str, seed: int) -> None:
        """Everything kept in memory during the run, as one gzip JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer = self.tracer
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({
                "workload": workload,
                "seed": seed,
                "spans": {name: tracer.span(name) for name in tracer.names},
                "frames": tracer.frame_table(),
                "sampled_spans": tracer.span_records(),
                "registry": self.registry.snapshot(),
            }, handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--players", type=int, default=None)
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument(
        "--break-check", action="store_true",
        help="fail the correctness check on purpose (self-test)",
    )
    args = parser.parse_args(argv)
    clock = time.perf_counter
    spawned_at = args.spawned_at if args.spawned_at is not None else clock()

    workload = by_name(args.workload)
    probe: Stopwatch | TraceProbe = TraceProbe() if args.trace else Stopwatch()
    scenario = workload.scenario(args.seed, args.players, args.frames)
    game_map = scenario.make_map()
    trace = scenario.make_trace(game_map)
    faults = scenario.make_faults(trace.player_ids())
    session = scenario.make_session(trace, faults=faults, game_map=game_map)
    probe.attach(session)

    phases: dict[str, float] = {}
    phase_started = [0.0]

    def phase_done(name: str) -> None:
        phases[name] = clock() - phase_started[0]
        probe.phase_done(name)
        phase_started[0] = clock()

    results = Path(__file__).resolve().parent / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results) as scratch:
        run = Run(scenario, session, Path(scratch), phase_done)
        if workload.taped:
            # attach() chains the frame hook the probe installed
            run.recorder = TapeRecorder(session, scenario, faults=faults).attach()
        probe.start()
        cpu_before = time.process_time()
        started = phase_started[0] = clock()
        report = workload.timed_phase(run)
        timed_s = clock() - started
        cpu_s = time.process_time() - cpu_before
        probe.stop()

    sim_s = scenario.frames / FRAMES_PER_SECOND
    failures = workload.check(run, report)
    if args.break_check:
        failures.append("correctness check broken on purpose (--break-check)")
    simulated = simulated_metrics(report)
    if failures:
        simulated["failed_fraction"] = 1.0

    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "players": scenario.players,
        "frames": scenario.frames,
        "traced": bool(args.trace),
        "failures": failures,
        "setup_s": started - spawned_at,
        "timed_s": timed_s,
        "cpu_s": cpu_s,
        "cpu_per_sim_s": cpu_s / sim_s,
        "sim_s": sim_s,
        "phase_s": phases,
        "simulated": simulated,
        "tape_sha256": run.tape_sha256,
    }
    if isinstance(probe, Stopwatch):
        result.update(probe.results(started, phases))
    else:
        result.update(probe.results(run, report, phases, timed_s))
        if args.trace_out is not None:
            probe.write(args.trace_out, workload.name, args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
