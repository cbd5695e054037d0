"""Figure 6: success rates of the verification mechanisms.

"we set up an experiment where a cheater sends up to 10 % invalid cheat
messages.  We measure the overall success ratio (high confidence detection
by one of the honest players) of different verifications, where false
positives ... are limited to a maximum of 5 %."

Procedure (mirroring the paper's calibration):

1. run an *honest* session and, per verification family, pick the
   detection threshold — over the confidence-weighted score
   rating × confidence, i.e. "high confidence detection" — as the smallest
   value that keeps the honest flag rate ≤ 5 % (the paper configured these
   "manually and through experiments"; we do it from the honest run, which
   is what their reputation system would converge to);
2. run a session with one cheater injecting the family's cheat;
3. success = fraction of ground-truth cheat actions for which at least one
   honest player scored ≥ threshold within a short window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cheats.base import CheatBehaviour
from repro.cheats.state import (
    BogusSubscriptionCheat,
    FakeKillCheat,
    GuidanceLieCheat,
    SpeedHack,
)
from repro.core.config import WatchmenConfig
from repro.core.messages import SUB_INTEREST, SUB_VISION
from repro.core.protocol import SessionReport, WatchmenSession
from repro.core.proxy import ProxySchedule
from repro.core.verification import CheckKind
from repro.game.gamemap import GameMap, eye_position
from repro.game.interest import in_vision_cone
from repro.game.trace import GameTrace

__all__ = [
    "DetectionOutcome",
    "calibrate_thresholds",
    "wire_cheat",
    "detection_experiment",
    "figure6_experiment",
    "FIGURE6_CHEATS",
]

#: "a cheater sends up to 10 % invalid cheat messages" (Section V, Figure 6).
CHEAT_RATE = 0.10
#: A detection counts when it lands within this many frames of the cheat.
DETECTION_WINDOW_FRAMES = 30
#: RNG seed of the injected cheat (the published Figure 6 row).
CHEAT_SEED = 11
#: Calibrated thresholds are clamped to this band of the 1..10 score scale.
THRESHOLD_FLOOR, THRESHOLD_CEILING = 3.0, 9.5

#: Verification families of Figure 6 and the cheat that exercises each.
FIGURE6_CHEATS: dict[str, str] = {
    CheckKind.POSITION: "speed-hack",
    CheckKind.KILL: "fake-kill",
    CheckKind.GUIDANCE: "guidance-lie",
    CheckKind.IS_SUBSCRIPTION: "bogus-is-subscription",
    CheckKind.VS_SUBSCRIPTION: "bogus-vs-subscription",
}


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of one verification-family detection run."""

    check: str
    cheat_name: str
    threshold: float
    cheat_actions: int
    detected_actions: int
    honest_flag_rate: float  # honest-subject flag rate at this threshold

    @property
    def success_rate(self) -> float:
        if self.cheat_actions == 0:
            return 0.0
        return self.detected_actions / self.cheat_actions


def calibrate_thresholds(
    honest_report: SessionReport, fp_budget: float = 0.05
) -> dict[str, float]:
    """Per-check thresholds keeping the honest flag rate ≤ ``fp_budget``."""
    if not 0.0 < fp_budget < 1.0:
        raise ValueError("fp_budget must be in (0, 1)")
    thresholds: dict[str, float] = {}
    by_check: dict[str, list[float]] = {}
    for rating in honest_report.ratings:
        by_check.setdefault(rating.check, []).append(rating.score)
    for check in CheckKind.ALL:
        values = sorted(by_check.get(check, []))
        if not values:
            thresholds[check] = THRESHOLD_FLOOR
            continue
        # Smallest threshold with ≤ fp_budget of honest ratings at/above it.
        budget_index = max(0, int(len(values) * (1.0 - fp_budget)) - 1)
        candidate = values[budget_index] + 0.25
        thresholds[check] = min(THRESHOLD_CEILING, max(THRESHOLD_FLOOR, candidate))
    return thresholds


def honest_flag_rate(
    report: SessionReport, check: str, threshold: float, exclude: set[int]
) -> float:
    """Fraction of ratings about honest subjects at/above the threshold."""
    relevant = flagged = 0
    for r in report.ratings:
        if r.check == check and r.subject_id not in exclude:
            relevant += 1
            flagged += r.score >= threshold
    return flagged / relevant if relevant else 0.0


def wire_cheat(
    cheat: CheatBehaviour,
    cheater_id: int,
    trace: GameTrace,
    game_map: GameMap,
    config: WatchmenConfig,
) -> CheatBehaviour:
    """Attach the environment hooks some cheats need (proxies, targets)."""
    schedule = ProxySchedule(
        trace.player_ids(),
        common_seed=config.common_seed,
        proxy_period_frames=config.proxy_period_frames,
    )

    def proxy_lookup(frame: int) -> int:
        return schedule.proxy_of(cheater_id, config.epoch_of_frame(frame))

    def invisible_targets(frame: int) -> list[int]:
        frame = min(frame, trace.num_frames - 1)
        snapshots = trace.frames[frame]
        me = snapshots[cheater_id]
        result = []
        for other_id, other in snapshots.items():
            if other_id == cheater_id or not other.alive:
                continue
            visible = in_vision_cone(
                me, other, config.interest
            ) and game_map.line_of_sight(
                eye_position(me.position), eye_position(other.position)
            )
            if not visible:
                result.append(other_id)
        return result

    if hasattr(cheat, "player_id"):
        cheat.player_id = cheater_id
    if hasattr(cheat, "roster") and getattr(cheat, "roster") is None:
        cheat.roster = [p for p in trace.player_ids() if p != cheater_id]
    if hasattr(cheat, "proxy_lookup") and getattr(cheat, "proxy_lookup") is None:
        cheat.proxy_lookup = proxy_lookup
    if (
        hasattr(cheat, "invisible_targets")
        and getattr(cheat, "invisible_targets") is None
    ):
        cheat.invisible_targets = invisible_targets
    return cheat


def make_figure6_cheat(check: str, cheater_id: int, players: list[int]) -> CheatBehaviour:
    """The cheat behaviour exercising one verification family."""
    victims = [p for p in players if p != cheater_id]
    if check == CheckKind.POSITION:
        return SpeedHack(factor=2.0, cheat_rate=CHEAT_RATE, seed=CHEAT_SEED)
    if check == CheckKind.KILL:
        return FakeKillCheat(victims, cheat_rate=CHEAT_RATE, seed=CHEAT_SEED)
    if check == CheckKind.GUIDANCE:
        # Guidance flows at 1 Hz — one per 20 updates — so lying on every
        # guidance message still keeps invalid traffic ~5 % of the stream,
        # within the paper's "up to 10 %" budget (and gives the experiment
        # enough events to measure).
        return GuidanceLieCheat(cheat_rate=1.0, seed=CHEAT_SEED)
    if check == CheckKind.IS_SUBSCRIPTION:
        return BogusSubscriptionCheat(SUB_INTEREST, cheat_rate=CHEAT_RATE, seed=CHEAT_SEED)
    if check == CheckKind.VS_SUBSCRIPTION:
        return BogusSubscriptionCheat(SUB_VISION, cheat_rate=CHEAT_RATE, seed=CHEAT_SEED)
    raise ValueError(f"no figure-6 cheat for check {check!r}")


def detection_experiment(
    trace: GameTrace,
    game_map: GameMap,
    check: str,
    cheater_id: int,
    thresholds: dict[str, float],
) -> DetectionOutcome:
    """Run one verification family's cheater and score detections."""
    config = WatchmenConfig()
    cheat = make_figure6_cheat(check, cheater_id, trace.player_ids())
    wire_cheat(cheat, cheater_id, trace, game_map, config)
    session = WatchmenSession(
        trace, game_map=game_map, config=config, behaviours={cheater_id: cheat}
    )
    report = session.run()

    threshold = thresholds[check]
    detections = sorted(
        r.frame
        for r in report.ratings
        if r.subject_id == cheater_id
        and r.check == check
        and r.score >= threshold
        and r.verifier_id != cheater_id
    )
    cheat_frames = sorted(cheat.log.cheat_frames)
    detected = 0
    for frame in cheat_frames:
        window_end = frame + DETECTION_WINDOW_FRAMES
        if any(frame <= d <= window_end for d in detections):
            detected += 1
    return DetectionOutcome(
        check=check,
        cheat_name=cheat.name,
        threshold=threshold,
        cheat_actions=len(cheat_frames),
        detected_actions=detected,
        honest_flag_rate=honest_flag_rate(report, check, threshold, {cheater_id}),
    )


def figure6_experiment(trace: GameTrace, game_map: GameMap) -> list[DetectionOutcome]:
    """The full Figure 6 sweep: calibrate, then run all five families."""
    cheater_id = trace.player_ids()[0]
    honest = WatchmenSession(trace, game_map=game_map).run()
    # Calibrate below the 5 % budget: the operating flag rate is measured
    # on a *different* (cheat-bearing) run, so leave margin for variance.
    thresholds = calibrate_thresholds(honest, fp_budget=0.03)
    outcomes = []
    for check in (
        CheckKind.POSITION,
        CheckKind.KILL,
        CheckKind.GUIDANCE,
        CheckKind.IS_SUBSCRIPTION,
        CheckKind.VS_SUBSCRIPTION,
    ):
        outcomes.append(
            detection_experiment(trace, game_map, check, cheater_id, thresholds)
        )
    return outcomes
