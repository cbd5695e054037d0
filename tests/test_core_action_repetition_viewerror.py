"""Tests for action-repetition replay verification and the view-error metric."""

import math

import pytest

from repro.core import WatchmenConfig, WatchmenSession
from repro.core.action_repetition import ActionRepetitionVerifier
from repro.core.config import REPLAY_DIRECTIONS
from repro.game.avatar import AvatarSnapshot
from repro.game.physics import MoveIntent, Physics
from repro.game.vector import Vec3
from repro.net.latency import uniform_lan


#: Full-session integration tests: deselect with `-m "not slow"`.
pytestmark = pytest.mark.slow


def snap(player_id=1, frame=0, position=Vec3(0, -500, 0), velocity=Vec3(),
         yaw=0.0, alive=True):
    return AvatarSnapshot(
        player_id=player_id,
        frame=frame,
        position=position,
        velocity=velocity,
        yaw=yaw,
        health=100,
        armor=0,
        weapon="machinegun",
        ammo=9,
        alive=alive,
    )


class TestActionRepetitionVerifier:
    @pytest.fixture()
    def physics(self, arena):
        return Physics(arena)

    @pytest.fixture()
    def verifier(self, physics):
        return ActionRepetitionVerifier(physics)

    def test_needs_enough_directions(self, verifier):
        # Fewer than four headings cannot bracket an arbitrary move.
        assert len(verifier._angles) == REPLAY_DIRECTIONS >= 4
        assert verifier._angles[1] - verifier._angles[0] == pytest.approx(
            2.0 * math.pi / REPLAY_DIRECTIONS
        )

    def test_real_move_is_reachable(self, physics, verifier):
        start = snap(frame=0)
        result = physics.step(
            start.position, start.velocity, start.yaw,
            MoveIntent(Vec3(1, 0, 0), 320.0, False, 0.0),
        )
        end = snap(frame=1, position=result.position, velocity=result.velocity)
        gap = verifier.reachability_gap(start, end)
        assert gap < 1.0

    def test_honest_stream_rates_normal(self, physics, verifier):
        position, velocity, yaw = Vec3(0, -500, 0), Vec3(), 0.0
        intent = MoveIntent(Vec3(1, 1, 0).normalized(), 280.0, False, 0.5)
        verifier.observe(0, snap(frame=0, position=position), 1.0)
        for frame in range(1, 15):
            result = physics.step(position, velocity, yaw, intent)
            position, velocity, yaw = result.position, result.velocity, result.yaw
            rating = verifier.observe(
                0,
                snap(frame=frame, position=position, velocity=velocity, yaw=yaw),
                1.0,
            )
            assert rating is not None
            assert rating.rating == 1.0, f"frame {frame}: {rating.detail}"

    def test_subtle_speed_excess_detected(self, verifier):
        """A 1.25× multiplier slips past the envelope but not the replay."""
        verifier.observe(0, snap(frame=0, velocity=Vec3(320, 0, 0)), 1.0)
        cheated = snap(
            frame=1,
            position=Vec3(320 * 0.05 * 1.25, -500, 0),
            velocity=Vec3(320, 0, 0),
        )
        rating = verifier.observe(0, cheated, 1.0)
        assert rating is not None
        assert rating.rating > 1.0

    def test_blatant_teleport_maximal(self, verifier):
        verifier.observe(0, snap(frame=0), 1.0)
        rating = verifier.observe(
            0, snap(frame=1, position=Vec3(500, -500, 0)), 1.0
        )
        assert rating.rating == 10.0

    def test_non_consecutive_frames_abstain(self, verifier):
        verifier.observe(0, snap(frame=0), 1.0)
        assert verifier.observe(0, snap(frame=5), 1.0) is None

    def test_death_transition_abstains(self, verifier):
        verifier.observe(0, snap(frame=0, alive=False), 1.0)
        assert verifier.observe(0, snap(frame=1), 1.0) is None

    def test_replay_cost_counted(self, verifier):
        verifier.observe(0, snap(frame=0), 1.0)
        verifier.observe(0, snap(frame=1, position=Vec3(10, -500, 0)), 1.0)
        assert verifier.replays_run > 10  # visibly costlier than sanity checks


class TestActionRepetitionIntegration:
    def test_catches_sub_envelope_cheat_in_session(
        self, small_trace, longest_yard
    ):
        from repro.analysis.detection import wire_cheat
        from repro.cheats import SpeedHack

        def run(action_repetition):
            config = WatchmenConfig(action_repetition=action_repetition)
            cheat = SpeedHack(factor=1.2, cheat_rate=0.3, seed=5)
            wire_cheat(cheat, 0, small_trace, longest_yard, config)
            report = WatchmenSession(
                small_trace,
                game_map=longest_yard,
                config=config,
                behaviours={0: cheat},
                latency=uniform_lan(8),
            ).run()
            hits = [
                r
                for r in report.ratings
                if r.subject_id == 0 and r.check == "position" and r.rating >= 5
            ]
            honest_hits = [
                r
                for r in report.ratings
                if r.subject_id != 0 and r.check == "position" and r.rating >= 5
            ]
            return len(hits), len(honest_hits)

        sanity_hits, sanity_fp = run(action_repetition=False)
        replay_hits, replay_fp = run(action_repetition=True)
        assert replay_hits > sanity_hits  # strictly more accurate
        assert replay_fp == 0  # and still clean on honest players


class TestViewError:
    @pytest.fixture(scope="class")
    def report(self, small_trace, longest_yard):
        return WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(8),
            view_error_stride=10,
        ).run()

    def test_samples_collected(self, report):
        assert len(report.view_errors) > 100

    def test_stats_shape(self, report):
        stats = report.view_error_stats()
        assert set(stats) == {"mean", "median", "p95"}
        assert 0 <= stats["median"] <= stats["p95"]

    def test_median_view_error_small(self, report):
        """IS neighbours dominate the samples: rendering is near-exact."""
        assert report.view_error_stats()["median"] < 64.0

    def test_disabled_by_default(self, honest_session_report):
        _, report = honest_session_report
        assert report.view_errors == []
        assert report.view_error_stats() == {}

    def test_slow_network_inflates_view_error(self, small_trace, longest_yard):
        fast = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(8, one_way_ms=0.5),
            view_error_stride=20,
        ).run()
        slow = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            latency=uniform_lan(8, one_way_ms=120.0),
            view_error_stride=20,
        ).run()
        assert (
            slow.view_error_stats()["median"]
            >= fast.view_error_stats()["median"]
        )
