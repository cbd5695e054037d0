"""End-to-end cheat detection: inject cheats into full sessions and verify
that honest players catch them (the Figure 6 / Table I machinery)."""

import pytest

from repro.analysis.detection import (
    calibrate_thresholds,
    detection_experiment,
    honest_flag_rate,
    wire_cheat,
)
from repro.cheats import (
    EscapingCheat,
    FastRateCheat,
    SpeedHack,
    SpoofCheat,
    TimeCheat,
)
from repro.core import WatchmenConfig, WatchmenSession
from repro.core.verification import CheckKind


#: Full-session integration tests: deselect with `-m "not slow"`.
pytestmark = pytest.mark.slow


CHEATER = 0


@pytest.fixture(scope="module")
def thresholds(small_trace, longest_yard):
    report = WatchmenSession(small_trace, game_map=longest_yard).run()
    return calibrate_thresholds(report)


def run_with(cheat, trace, game_map, config=None):
    config = config or WatchmenConfig()
    wire_cheat(cheat, CHEATER, trace, game_map, config)
    session = WatchmenSession(
        trace, game_map=game_map, config=config, behaviours={CHEATER: cheat}
    )
    return session, session.run()


def high_ratings(report, check, threshold, subject=CHEATER):
    return [
        r
        for r in report.ratings
        if r.subject_id == subject and r.check == check and r.rating >= threshold
    ]


class TestThresholdCalibration:
    def test_thresholds_for_every_check(self, thresholds):
        assert set(thresholds) == set(CheckKind.ALL)

    def test_honest_flag_rate_within_budget(
        self, thresholds, honest_session_report
    ):
        _, report = honest_session_report
        for check, threshold in thresholds.items():
            assert honest_flag_rate(report, check, threshold, set()) <= 0.06


class TestSpeedHackDetection:
    def test_speed_hack_caught_by_position_check(
        self, small_trace, longest_yard, thresholds
    ):
        cheat = SpeedHack(factor=2.0, cheat_rate=0.10, seed=3)
        _, report = run_with(cheat, small_trace, longest_yard)
        hits = high_ratings(report, CheckKind.POSITION, thresholds["position"])
        assert hits, "a 2x speed hack must be flagged"
        verifiers = {r.verifier_id for r in hits}
        assert verifiers - {CHEATER}, "honest players must be among detectors"

    def test_detection_outcome_metrics(self, small_trace, longest_yard, thresholds):
        outcome = detection_experiment(
            small_trace,
            longest_yard,
            CheckKind.POSITION,
            CHEATER,
            thresholds,
        )
        assert outcome.cheat_actions > 0
        assert outcome.success_rate > 0.6
        assert outcome.honest_flag_rate <= 0.06


class TestFlowCheatDetection:
    def test_escaping_detected(self, small_trace, longest_yard, thresholds):
        cheat = EscapingCheat(escape_frame=80, seed=3)
        _, report = run_with(cheat, small_trace, longest_yard)
        hits = high_ratings(report, CheckKind.RATE, thresholds["rate"])
        assert hits
        assert all(r.frame >= 80 for r in hits)

    def test_time_cheat_detected(self, small_trace, longest_yard, thresholds):
        cheat = TimeCheat(delay_frames=12, seed=3)
        _, report = run_with(cheat, small_trace, longest_yard)
        assert high_ratings(report, CheckKind.RATE, thresholds["rate"])

    def test_fast_rate_detected(self, small_trace, longest_yard, thresholds):
        cheat = FastRateCheat(multiplier=4, cheat_rate=1.0, seed=3)
        _, report = run_with(cheat, small_trace, longest_yard)
        assert high_ratings(report, CheckKind.RATE, thresholds["rate"])


class TestPreventedCheats:
    def test_spoofing_prevented_by_signatures(self, small_trace, longest_yard):
        victim = 1
        cheat = SpoofCheat(victim_id=victim, cheat_rate=0.2, seed=3)
        cheat.snapshot_source = lambda frame: small_trace.frames[
            min(frame, small_trace.num_frames - 1)
        ][victim]
        session, report = run_with(cheat, small_trace, longest_yard)
        failures = sum(
            node.metrics.signature_failures for node in session.nodes.values()
        )
        assert failures >= len(cheat.log.cheat_frames) * 0.8
        # Crucially the forged state updates never get attributed to the
        # victim: no movement-family convictions (the checks a spoofed
        # StateUpdate would trip).  Subscription checks are excluded — they
        # have their own, unrelated honest tail.
        victim_blames = [
            r
            for r in report.ratings
            if r.subject_id == victim
            and r.verifier_id != CHEATER  # the cheater's own noise aside
            and r.rating >= 9.0
            and r.check in ("position", "aim", "guidance", "kill")
        ]
        assert not victim_blames


class TestReputationPipeline:
    def test_persistent_cheater_gets_banned(self, small_trace, longest_yard):
        """Detections flow into reputation; a heavy cheater ends banned."""
        from repro.core import ReputationBoard

        cheat = SpeedHack(factor=3.0, cheat_rate=0.5, seed=3)
        config = WatchmenConfig()
        wire_cheat(cheat, CHEATER, small_trace, longest_yard, config)
        board = ReputationBoard(ban_threshold=0.9, min_reports=30)
        session = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            config=config,
            behaviours={CHEATER: cheat},
            reputation=board,
        )
        report = session.run()
        assert CHEATER in report.banned
        assert report.banned == {CHEATER}
