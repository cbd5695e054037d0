"""Chaos harness: a scenario matrix with recovery SLOs.

Each scenario replays the same deterministic trace through the protocol
with one class of fault injected, then distils *recovery* metrics — the
questions an operator would ask after an incident:

- ``false_evictions`` — how many live, honest players got evicted by the
  membership quorum?  The hard SLO is **zero**: faults may degrade views
  but must never cost an innocent player his seat.
- ``frames_to_reproxy`` — the longest unbroken run of frames, from the
  fault on, in which one live player publishes only to crash-stopped
  proxies: how long a crash strands a publisher.  SLO: at most one proxy
  period.
- ``spurious_failovers`` — failovers away from a proxy that had not
  crashed: what a live proxy's silence (loss, a partition) costs in
  duplicate first-hop sends.
- ``stale_frac_during`` / ``stale_frac_after`` — fraction of (observer,
  subject) pairs whose rendered view is older than
  :data:`~repro.core.config.STALE_VIEW_AGE_FRAMES` (two missed 1 Hz
  heartbeats), averaged over the fault window and over the run's final
  proxy period.  ``after`` should return to ~0: the damage must heal.
- ``view_error_p95`` — p95 rendered-view error of the faulted run
  (shared nearest-rank percentile).  Each result also carries the same
  seed's fault-free p95 as ``fault_free_view_error_p95``, so a reader can
  print the fault's cost without a fault-free improvement reading as a
  regression of every faulted row.

All runs are deterministic: same (players, frames, seed) ⇒ byte-identical
metrics, which is what lets CI gate on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.core.config import (
    FRAMES_PER_SECOND,
    PROXY_PERIOD_FRAMES,
    STALE_VIEW_AGE_FRAMES,
    WatchmenConfig,
)
from repro.core.protocol import SessionReport, WatchmenSession
from repro.faults.byzantine import (
    ByzantineFault,
    EquivocationFault,
    FloodFault,
    SelectiveForwardFault,
    TamperFault,
)
from repro.faults.schedule import (
    CrashFault,
    CrashProxyFault,
    DuplicateFault,
    FaultSchedule,
    LatencySpikeFault,
    PartitionFault,
)
from repro.game.simulator import generate_trace
from repro.game.trace import GameTrace
from repro.net.transport import NetworkConfig

__all__ = [
    "ChaosScenario",
    "ChaosOutcome",
    "default_scenarios",
    "byzantine_scenarios",
    "build_schedule",
    "byzantine_metrics",
    "run_chaos",
    "chaos_gate_failures",
]

#: Stride (frames) between view-error samples in chaos runs.
VIEW_ERROR_STRIDE = 5


@dataclass(frozen=True)
class ChaosScenario:
    """One declarative entry of the scenario matrix."""

    name: str
    summary: str
    crash_fraction: float = 0.0
    proxy_kill: bool = False
    partition_seconds: float = 0.0
    burst_loss: bool = False
    duplication_rate: float = 0.0
    latency_spike_ms: float = 0.0
    #: The ``WatchmenConfig.profile`` rung the scenario runs on.
    profile: str = "hardened"
    #: Adversarial (Byzantine) fault kind, or "" for pure-fault scenarios:
    #: equivocation | tamper | flood | selective_forward.
    byzantine: str = ""


def default_scenarios() -> tuple[ChaosScenario, ...]:
    """The CI matrix (ISSUE: crash, proxy kill, partition, burst loss)."""
    return (
        ChaosScenario(
            "crash_10pct",
            "crash-stop 10% of the players mid-epoch",
            crash_fraction=0.10,
        ),
        ChaosScenario(
            "proxy_kill_midepoch",
            "kill player 0's proxy mid-epoch (and his next one)",
            proxy_kill=True,
        ),
        ChaosScenario(
            "partition_2s_heal",
            "half/half partition for 2 s, then heal",
            partition_seconds=2.0,
        ),
        ChaosScenario(
            "burst_loss_5pct",
            "Gilbert-Elliott bursty loss (~5% stationary)",
            burst_loss=True,
        ),
        ChaosScenario(
            "flaky_links",
            "latency spikes plus 10% duplication",
            duplication_rate=0.10,
            latency_spike_ms=150.0,
        ),
        ChaosScenario(
            "proxy_kill_no_failover",
            "contrast: the same proxy kill with failover disabled",
            proxy_kill=True,
            profile="paper",
        ),
    )


def byzantine_scenarios() -> tuple[ChaosScenario, ...]:
    """The adversarial matrix: each attack kind plus a blind contrast.

    Every hardened scenario must detect its attack (SLO: within the
    detection bound) without quarantining a single honest sender; the
    ``_blind`` contrast runs the same equivocation on the ``paper`` rung
    and must show the attack *landing* — no detection, no conviction,
    the attacker keeps his seat.
    """
    return (
        ChaosScenario(
            "byz_equivocation",
            "one player sends conflicting signed updates per sequence",
            byzantine="equivocation",
        ),
        ChaosScenario(
            "byz_equivocation_blind",
            "contrast: the same equivocation with hardening disabled",
            byzantine="equivocation",
            profile="paper",
        ),
        ChaosScenario(
            "byz_tamper_relay",
            "a relaying hop mutates the signed updates it forwards",
            byzantine="tamper",
        ),
        ChaosScenario(
            "byz_flood",
            "one player floods three victims with well-formed updates",
            byzantine="flood",
        ),
        ChaosScenario(
            "byz_starve",
            "a proxy selectively drops everything bound for one victim",
            byzantine="selective_forward",
        ),
    )


def fault_frame_for(frames: int) -> int:
    """Mid-epoch injection point roughly a third into the run."""
    if frames < 3 * PROXY_PERIOD_FRAMES:
        raise ValueError("chaos runs need at least three proxy periods")
    epoch_start = max(
        PROXY_PERIOD_FRAMES,
        (frames // 3) // PROXY_PERIOD_FRAMES * PROXY_PERIOD_FRAMES,
    )
    return epoch_start + PROXY_PERIOD_FRAMES // 2


def build_schedule(
    scenario: ChaosScenario, roster: list[int], frames: int, seed: int
) -> tuple[FaultSchedule, int]:
    """Materialise one scenario's faults for a concrete roster and length."""
    frame = fault_frame_for(frames)
    ordered = sorted(roster)
    crashes: list[CrashFault] = []
    proxy_crashes: list[CrashProxyFault] = []
    partitions: list[PartitionFault] = []
    spikes: list[LatencySpikeFault] = []
    duplications: list[DuplicateFault] = []
    if scenario.crash_fraction > 0.0:
        count = max(1, int(len(ordered) * scenario.crash_fraction))
        rng = Random(seed * 9973 + 17)  # victim choice; independent lane
        crashes = [
            CrashFault(node_id=victim, frame=frame)
            for victim in sorted(rng.sample(ordered, count))
        ]
    if scenario.proxy_kill:
        # Kill the target player's proxy for this epoch AND the next one:
        # without failover that black-holes his traffic for up to ~1.5
        # epochs, which is exactly the outage the failover layer bounds.
        target = ordered[0]
        proxy_crashes = [
            CrashProxyFault(player_id=target, frame=frame),
            CrashProxyFault(player_id=target, frame=frame + PROXY_PERIOD_FRAMES),
        ]
    if scenario.partition_seconds > 0.0:
        window = int(scenario.partition_seconds * FRAMES_PER_SECOND)
        half = len(ordered) // 2
        partitions = [
            PartitionFault(
                group_a=frozenset(ordered[:half]),
                group_b=frozenset(ordered[half:]),
                start_frame=frame,
                end_frame=frame + window,
            )
        ]
    if scenario.latency_spike_ms > 0.0:
        spikes = [
            LatencySpikeFault(
                src=ordered[0],
                dst=ordered[1],
                start_frame=frame,
                end_frame=frame + PROXY_PERIOD_FRAMES,
                extra_ms=scenario.latency_spike_ms,
            )
        ]
    if scenario.duplication_rate > 0.0:
        duplications = [
            DuplicateFault(
                rate=scenario.duplication_rate,
                start_frame=frame,
                end_frame=frame + 2 * PROXY_PERIOD_FRAMES,
            )
        ]
    byzantine: list[ByzantineFault] = []
    if scenario.byzantine:
        # Attacker is ordered[1]: distinct from the proxy-kill target
        # (ordered[0]), who doubles as the selective-forwarding victim.
        attacker = ordered[1]
        if scenario.byzantine == "equivocation":
            byzantine = [
                EquivocationFault(
                    node_id=attacker,
                    start_frame=frame,
                    end_frame=frame + 2 * PROXY_PERIOD_FRAMES,
                )
            ]
        elif scenario.byzantine == "tamper":
            byzantine = [
                TamperFault(
                    node_id=attacker,
                    start_frame=frame,
                    end_frame=frame + 2 * PROXY_PERIOD_FRAMES,
                )
            ]
        elif scenario.byzantine == "flood":
            byzantine = [
                FloodFault(
                    node_id=attacker,
                    victims=frozenset(ordered[2:5]),
                    start_frame=frame,
                    end_frame=frame + PROXY_PERIOD_FRAMES,
                )
            ]
        elif scenario.byzantine == "selective_forward":
            byzantine = [
                SelectiveForwardFault(
                    node_id=attacker,
                    victims=frozenset({ordered[0]}),
                    start_frame=frame,
                    end_frame=frame + 3 * PROXY_PERIOD_FRAMES,
                )
            ]
        else:
            raise ValueError(
                f"unknown byzantine fault kind {scenario.byzantine!r}"
            )
    schedule = FaultSchedule(
        crashes=tuple(crashes),
        proxy_crashes=tuple(proxy_crashes),
        partitions=tuple(partitions),
        latency_spikes=tuple(spikes),
        duplications=tuple(duplications),
        byzantine=tuple(byzantine),
        seed=seed,
    )
    return schedule, frame


class _FrameProbe:
    """Frame-end reads of the live players: the fraction of view pairs
    staler than the heartbeat bound, and the players whose every first
    hop has crash-stopped (they publish into the void)."""

    def __init__(self, session: WatchmenSession, stale_age: int) -> None:
        self.session = session
        self.stale_age = stale_age
        self.samples: list[tuple[int, float]] = []
        self.stranded: list[tuple[int, int]] = []  # (frame, player)

    def __call__(self, frame: int) -> None:
        session = self.session
        live = [
            player
            for player in session.trace.player_ids()
            if player not in session.crashed
        ]
        epoch = session.config.epoch_of_frame(frame)
        self.stranded.extend(
            (frame, player)
            for player in live
            if all(
                hop in session.crashed
                for hop in session.nodes[player].first_hops.publish_proxies(frame, epoch)
            )
        )
        total = 0
        stale = 0
        for observer in live:
            known = session.nodes[observer].known
            for subject in live:
                if subject == observer:
                    continue
                total += 1
                snapshot = known.get(subject)
                if snapshot is None or frame - snapshot.frame > self.stale_age:
                    stale += 1
        if total:
            self.samples.append((frame, stale / total))


@dataclass
class ChaosOutcome:
    """One scenario's run artefacts (report + staleness timeline)."""

    scenario: ChaosScenario
    report: SessionReport
    session: WatchmenSession
    staleness: list[tuple[int, float]]
    #: (frame, live player) wherever the player published only to crashed proxies
    stranded: list[tuple[int, int]]
    fault_frame: int


def _run_once(
    trace: GameTrace,
    schedule: FaultSchedule | None,
    *,
    profile: str,
    burst_loss: bool,
) -> tuple[SessionReport, WatchmenSession, _FrameProbe]:
    config = WatchmenConfig(profile=profile)
    if burst_loss:
        network_config = NetworkConfig(
            seed=trace.seed, loss_model="gilbert-elliott"
        )
    else:
        network_config = NetworkConfig(seed=trace.seed)
    session = WatchmenSession(
        trace,
        config=config,
        network_config=network_config,
        faults=schedule,
        view_error_stride=VIEW_ERROR_STRIDE,
    )
    probe = _FrameProbe(session, STALE_VIEW_AGE_FRAMES)
    session.on_frame_end = probe
    report = session.run()
    return report, session, probe


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def recovery_metrics(outcome: ChaosOutcome, frames: int) -> dict[str, float]:
    """Distil one scenario run into the SLO metrics (all costs)."""
    report = outcome.report
    session = outcome.session
    fault_frame = outcome.fault_frame
    # A Byzantine attacker's eviction is the protocol *working*, never a
    # false eviction — the detector's job is to remove exactly that node.
    legitimately_gone = set(report.crashed) | session.byzantine_ids
    falsely_evicted: set[int] = set()
    for node_id, node in session.nodes.items():
        if node_id in legitimately_gone:
            continue
        falsely_evicted |= set(node.membership.removed) - legitimately_gone

    frames_to_reproxy = 0
    runs: dict[int, tuple[int, int]] = {}  # player -> (last stranded frame, run)
    for frame, player in outcome.stranded:
        if frame < fault_frame:
            continue
        last, run = runs.get(player, (-1, 0))
        run = run + 1 if last == frame - 1 else 1
        runs[player] = (frame, run)
        frames_to_reproxy = max(frames_to_reproxy, run)
    spurious_failovers = sum(
        1
        for node in session.nodes.values()
        for (event_frame, scheduled, _) in node.first_hops.failover_events
        # the scheduled proxy crashes later, or never
        if session.crashed.get(scheduled, event_frame + 1) > event_frame
    )

    during = [
        sample
        for frame, sample in outcome.staleness
        if fault_frame <= frame < fault_frame + 2 * PROXY_PERIOD_FRAMES
    ]
    after = [
        sample
        for frame, sample in outcome.staleness
        if frame >= frames - PROXY_PERIOD_FRAMES
    ]
    stats = report.view_error_stats()
    return {
        "false_evictions": float(len(falsely_evicted)),
        "frames_to_reproxy": float(frames_to_reproxy),
        "spurious_failovers": float(spurious_failovers),
        "stale_frac_during": _mean(during),
        "stale_frac_peak": max(during, default=0.0),
        "stale_frac_after": _mean(after),
        "view_error_p95": stats.get("p95", 0.0),
        "messages_lost": float(report.messages_lost),
    }


def _first_detection_frame(
    session: WatchmenSession, kind: str
) -> int | None:
    """Earliest frame any node registered the attack's detection signal."""
    frames: list[int] = []
    for node in session.nodes.values():
        if kind == "equivocation":
            frames.extend(frame for frame, _ in node.evidence.equivocation_events)
        elif kind == "flood":
            frames.extend(frame for frame, _ in node.evidence.quarantine_events)
        elif kind == "tamper":
            frames.extend(
                frame
                for frame, _, label in node.evidence.suspicion_events
                if label == "tamper_hop"
            )
        elif kind == "selective_forward":
            frames.extend(
                frame
                for frame, _, label in node.evidence.suspicion_events
                if label == "starvation"
            )
    return min(frames, default=None)


def byzantine_metrics(outcome: ChaosOutcome) -> dict[str, float]:
    """Attack-specific SLO metrics for one Byzantine scenario run."""
    session = outcome.session
    report = outcome.report
    detection = _first_detection_frame(session, outcome.scenario.byzantine)
    if detection is None:
        detection_frames = float(report.num_frames)  # sentinel: never seen
    else:
        detection_frames = float(max(0, detection - outcome.fault_frame))
    honest_quarantines = sum(
        1
        for node in session.nodes.values()
        for _, src in node.evidence.quarantine_events
        if src not in session.byzantine_ids
    )
    gone = set(report.crashed)
    honest_live = [
        node
        for node_id, node in session.nodes.items()
        if node_id not in session.byzantine_ids and node_id not in gone
    ]
    attacker_evicted = all(
        session.byzantine_ids <= node.membership.removed for node in honest_live
    )
    return {
        "byz_detection_frames": detection_frames,
        "honest_quarantines": float(honest_quarantines),
        "equivocations_detected": float(report.equivocations_detected),
        "evidence_convictions": float(report.evidence_convictions),
        "attacker_evicted": 1.0 if attacker_evicted else 0.0,
    }


def run_chaos(
    players: int = 16,
    frames: int = 400,
    seed: int = 7,
    scenarios: tuple[ChaosScenario, ...] | None = None,
) -> list[dict[str, object]]:
    """Run the matrix; one result dict per scenario (bench-row shaped)."""
    matrix = scenarios if scenarios is not None else default_scenarios()
    trace = generate_trace(num_players=players, num_frames=frames, seed=seed)
    fault_free, _, _ = _run_once(trace, None, profile="hardened", burst_loss=False)
    fault_free_p95 = fault_free.view_error_stats().get("p95", 0.0)

    results: list[dict[str, object]] = []
    for scenario in matrix:
        schedule, fault_frame = build_schedule(
            scenario, trace.player_ids(), frames, seed
        )
        report, session, probe = _run_once(
            trace,
            schedule,
            profile=scenario.profile,
            burst_loss=scenario.burst_loss,
        )
        outcome = ChaosOutcome(
            scenario=scenario,
            report=report,
            session=session,
            staleness=probe.samples,
            stranded=probe.stranded,
            fault_frame=fault_frame,
        )
        metrics = recovery_metrics(outcome, frames)
        if scenario.byzantine:
            metrics.update(byzantine_metrics(outcome))
        results.append(
            {
                "scenario": scenario.name,
                "summary": scenario.summary,
                "fault_free_view_error_p95": fault_free_p95,
                "params": {
                    "players": players,
                    "frames": frames,
                    "seed": seed,
                    "profile": scenario.profile,
                    "byzantine": scenario.byzantine,
                },
                "metrics": metrics,
            }
        )
    return results


def chaos_gate_failures(results: list[dict]) -> list[str]:
    """Recovery-SLO violations across a chaos matrix (empty = pass).

    Hard gates (see ``docs/ROBUSTNESS.md``): no scenario may falsely
    evict a live player, and on the hardened rung no live player may
    publish only to crashed proxies for more than one proxy period.
    """
    failures: list[str] = []
    for result in results:
        name = result["scenario"]
        metrics = result["metrics"]
        params = result["params"]
        hardened = params["profile"] == "hardened"
        if metrics["false_evictions"] > 0:
            failures.append(
                f"{name}: {metrics['false_evictions']:.0f} live players "
                "falsely evicted (SLO: 0)"
            )
        reproxy = metrics["frames_to_reproxy"]
        if hardened and reproxy > PROXY_PERIOD_FRAMES:
            failures.append(
                f"{name}: frames_to_reproxy {reproxy:.0f} exceeds one "
                f"proxy period ({PROXY_PERIOD_FRAMES})"
            )
        # Byzantine gates (rows carrying byz metrics only).  Honest senders
        # must never be quarantined, hardened runs must detect the attack
        # within the bound, and the blind contrast must show the attack
        # *landing*: no detection, the attacker keeps his seat.
        if "honest_quarantines" in metrics and metrics["honest_quarantines"] > 0:
            failures.append(
                f"{name}: {metrics['honest_quarantines']:.0f} honest "
                "senders quarantined (SLO: 0)"
            )
        if "byz_detection_frames" in metrics:
            kind = params.get("byzantine", "")
            # Starvation needs a full silence threshold (2 s = one proxy
            # period) before the 1 Hz scan may even fire; direct
            # cryptographic/volume signals must land within one period.
            bound = (
                2 * PROXY_PERIOD_FRAMES
                if kind == "selective_forward"
                else PROXY_PERIOD_FRAMES
            )
            if hardened:
                if metrics["byz_detection_frames"] > bound:
                    failures.append(
                        f"{name}: byz_detection_frames "
                        f"{metrics['byz_detection_frames']:.0f} exceeds "
                        f"the detection bound ({bound})"
                    )
                if kind == "equivocation" and (
                    metrics["equivocations_detected"] == 0
                    or not metrics["attacker_evicted"]
                ):
                    failures.append(
                        f"{name}: equivocator not detected and evicted "
                        "under hardening"
                    )
            elif kind == "equivocation" and (
                metrics["equivocations_detected"] != 0
                or metrics["attacker_evicted"]
            ):
                failures.append(
                    f"{name}: blind contrast should let the attack land "
                    "(no detection, no eviction)"
                )
    return failures
