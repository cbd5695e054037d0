"""The single table of perfbench workloads.

Every workload is a :class:`repro.replay.TapeScenario` built through its
public ``make_map / make_trace / make_faults / make_session`` path — the
construction path record and verify already share — plus the phase that
is timed, the correctness check for its outputs, and the reason it is in
the benchmark.  The program under test receives only the inputs the
scenario generates from ``--seed``; nothing here names a code path.

Sizes: player counts are the ISSUE's; frame counts are cut so that three
fresh child processes per run fit the driver's time cap on the 2-core
reference box (see README, "Sizing").
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from repro.core.protocol import SessionReport, WatchmenSession
from repro.core import wire
from repro import replay
from repro.replay import GOLDEN_PRESETS, TapeRecorder, TapeScenario

__all__ = ["Run", "Workload", "WORKLOADS", "by_name"]


@dataclass
class Run:
    """What one child process builds in set-up and fills in while timed."""

    scenario: TapeScenario
    session: WatchmenSession
    #: directory the timed phase may write to (the tape file)
    scratch: Path
    #: the timed phase calls this the moment each of its named phases ends
    #: ("run" first: ``session.run()`` returning closes the last frame)
    phase_done: Callable[[str], None]
    recorder: TapeRecorder | None = None
    #: taped workload only: digest-chain fingerprint, sizes, verify outcome
    tape_sha256: str | None = None
    tape_messages: int = 0
    tape_file_bytes: int = 0
    tape_clean: bool = True
    tape_round_trips: bool = True


# ---- scenarios ---------------------------------------------------------------


def _paper(players: int, frames: int, seed: int) -> TapeScenario:
    """The paper profile: no failover, no reliable delivery, no hardening."""
    return TapeScenario(
        players=players,
        frames=frames,
        seed=seed,
        failover=False,
        reliable=False,
        hardening=False,
    )


def _hardened_crash(players: int, frames: int, seed: int) -> TapeScenario:
    scenario = TapeScenario(
        players=players, frames=frames, seed=seed, chaos="crash_10pct"
    ).with_chaos_flags()
    return replace(scenario, hardening=True)


def _taped_cheats(players: int, frames: int, seed: int) -> TapeScenario:
    # The golden "cheater" preset's parameters; its guidance-lie cheater
    # (player 5) is left out so three distinct verifier families fire.
    cheats = tuple(
        spec
        for spec in GOLDEN_PRESETS["cheater"].cheats
        if spec.kind != "guidance-lie" and spec.player_id < players
    )
    return replace(_paper(players, frames, seed), cheats=cheats)


# ---- timed phases ------------------------------------------------------------


def _run_session(run: Run) -> SessionReport:
    report = run.session.run()
    run.phase_done("run")
    return report


def _run_and_verify_tape(run: Run) -> SessionReport:
    """The CI replay gate on one tape: record, write, read, decode, verify.

    Library functions are reached through their modules so that a traced
    run, which rebinds module attributes, sees these calls too.
    """
    if run.recorder is None:
        raise ValueError("taped workload needs an attached recorder")
    report = _run_session(run)
    tape = run.recorder.finalize()
    run.phase_done("finalize")
    path = replay.write_tape(tape, run.scratch / "perfbench.tape")
    run.phase_done("write")
    loaded = replay.read_tape(path)
    run.phase_done("read")
    run.tape_round_trips = all(
        wire.encode_bytes(wire.decode_bytes(message.payload)) == message.payload
        for tape_frame in loaded.frames
        for message in tape_frame.messages
    )
    run.phase_done("decode")
    run.tape_clean = replay.verify_tape(loaded).clean
    run.phase_done("verify")
    run.tape_sha256 = tape.sha256
    run.tape_messages = tape.num_messages
    run.tape_file_bytes = path.stat().st_size
    path.unlink()
    return report


# ---- correctness checks ------------------------------------------------------

#: Received updates older than 150 ms count as lost (paper, Quake bound).
#: Seeds 7/11/23 give exactly 0, but king-like latency draws put a few
#: pairs past the bound on others: over 40 seeds x 4 workloads the largest
#: fraction seen was 0.6 %.  A broken delivery path shows as tens of percent.
MAX_STALE_FRACTION = 0.02

#: A cheater's suspicious-rating fraction must be at least this many times
#: the median honest player's.  Over 40 seeds the weakest cheater (teleport,
#: ~2 jumps in 80 frames) stayed >= 7.7x; against the *highest* honest
#: player — often the one a cheat was aimed at — the ISSUE's 2x margin
#: fails on 1 seed in 40 (1.4x), so the check compares with the median.
CHEATER_STANDS_OUT = 3


def suspicious_fractions(report: SessionReport) -> dict[int, float]:
    """subject -> share of the ratings about him that are suspicious."""
    totals: dict[int, list[int]] = {}
    for rating in report.ratings:
        entry = totals.setdefault(rating.subject_id, [0, 0])
        entry[0] += rating.suspicious
        entry[1] += 1
    return {subject: bad / total for subject, (bad, total) in totals.items()}


def _check_session(run: Run, report: SessionReport) -> list[str]:
    """Checks every workload shares; returns the failures (empty = pass)."""
    failures = []
    if report.stale_fraction() > MAX_STALE_FRACTION:
        failures.append(
            f"stale_fraction {report.stale_fraction()} > {MAX_STALE_FRACTION}"
        )
    # honest = neither a cheater nor crash-stopped (a ban on a player who
    # fell silent mid-match harms nobody)
    cheaters = {spec.player_id for spec in run.scenario.cheats}
    banned_honest = sorted(set(report.banned) - cheaters - set(report.crashed))
    if banned_honest:
        failures.append(f"honest players banned: {banned_honest}")
    return failures


def _check_crash(run: Run, report: SessionReport) -> list[str]:
    failures = _check_session(run, report)
    crashed = set(report.crashed)
    if not crashed:
        failures.append("no player crashed")
    survivors = [node for node in run.session.nodes if node not in crashed]
    for node_id in survivors:
        roster = set(run.session.nodes[node_id].membership.current_roster())
        if roster & crashed:
            failures.append(
                f"node {node_id} still lists crashed {sorted(roster & crashed)}"
            )
        missing = set(survivors) - roster
        if missing:
            failures.append(f"node {node_id} evicted live {sorted(missing)}")
    return failures


def _check_tape(run: Run, report: SessionReport) -> list[str]:
    failures = _check_session(run, report)
    if not run.tape_clean:
        failures.append("verify_tape diverged")
    if not run.tape_round_trips:
        failures.append("a recorded payload does not round-trip decode_bytes")
    fractions = suspicious_fractions(report)
    cheaters = {spec.player_id for spec in run.scenario.cheats}
    typical_honest = statistics.median(
        fraction for subject, fraction in fractions.items()
        if subject not in cheaters
    )
    for cheater in sorted(cheaters):
        if fractions.get(cheater, 0.0) < CHEATER_STANDS_OUT * typical_honest:
            failures.append(
                f"cheater {cheater} suspicious fraction "
                f"{fractions.get(cheater, 0.0):.4f} < {CHEATER_STANDS_OUT} x "
                f"honest median {typical_honest:.4f}"
            )
    return failures


# ---- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    players: int
    frames: int
    build: Callable[[int, int, int], TapeScenario]
    timed_phase: Callable[[Run], SessionReport]
    check: Callable[[Run, SessionReport], list[str]]
    why: str
    taped: bool = False
    #: a shrink may not go below this (the crash workload must outlast a
    #: crash-stop's detection, vote and one-epoch removal delay)
    min_frames: int = 1

    def scenario(
        self, seed: int, players: int | None = None, frames: int | None = None
    ) -> TapeScenario:
        """The workload's scenario, at full size or shrunk (self-tests)."""
        return self.build(
            players or self.players,
            max(frames or self.frames, self.min_frames),
            seed,
        )

    def to_json(self) -> dict[str, Any]:
        return {"name": self.name, "why": self.why}


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "paper48", 48, 80, _paper, _run_session, _check_session,
        "the paper's scale, paper profile: receive path, codec and signing "
        "dominate, so a wire or node gain shows here first",
    ),
    Workload(
        "crowd96", 96, 20, _paper, _run_session, _check_session,
        "twice the paper's scale: per-observer interest planning is O(n^2), "
        "so an interest gain shows most and a codec gain least; the upload claim",
    ),
    Workload(
        "hardened32_crash", 32, 180, _hardened_crash, _run_session, _check_crash,
        "failover + acks + Byzantine defences while 3 players crash-stop: a "
        "clean-path gain that costs the hardened path shows here",
        min_frames=180,
    ),
    Workload(
        "taped24_cheats", 24, 80, _taped_cheats, _run_and_verify_tape, _check_tape,
        "the replay gate on one tape (record, write, read, decode_bytes, "
        "re-simulate) with three cheaters: the only decode and detection load",
        taped=True,
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    known = ", ".join(workload.name for workload in WORKLOADS)
    raise KeyError(f"unknown workload {name!r} (known: {known})")
