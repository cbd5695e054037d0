"""Tests for short-lived-object (projectile) verification."""

import pytest

from repro.core import WatchmenConfig, WatchmenSession
from repro.core.config import PROJECTILE_MAX_AGE_FRAMES
from repro.core.verification import ProjectileTracker
from repro.game.avatar import AvatarSnapshot
from repro.game.vector import Vec3
from repro.game.weapons import WEAPONS
from repro.net.latency import uniform_lan


#: Full-session integration tests: deselect with `-m "not slow"`.
pytestmark = pytest.mark.slow


def snap(player_id=1, frame=0, x=0.0, weapon="rocket-launcher"):
    return AvatarSnapshot(
        player_id=player_id,
        frame=frame,
        position=Vec3(x, 0, 0),
        velocity=Vec3(),
        yaw=0.0,
        health=100,
        armor=0,
        weapon=weapon,
        ammo=9,
        alive=True,
    )


ROCKET_SPEED = WEAPONS["rocket-launcher"].projectile_speed


class TestProjectileTracker:
    @pytest.fixture()
    def tracker(self):
        return ProjectileTracker()

    def test_valid_spawn_rates_normal(self, tracker):
        rating = tracker.verify_spawn(
            0, 10, 1, "rocket-launcher",
            Vec3(0, 0, 0), Vec3(ROCKET_SPEED, 0, 0),
            snap(frame=10), 1.0,
        )
        assert rating.rating == 1.0

    def test_non_projectile_weapon_maximal(self, tracker):
        rating = tracker.verify_spawn(
            0, 10, 1, "railgun", Vec3(), Vec3(100, 0, 0), snap(frame=10), 1.0
        )
        assert rating.rating == 10.0

    def test_wrong_speed_flagged(self, tracker):
        rating = tracker.verify_spawn(
            0, 10, 1, "rocket-launcher",
            Vec3(0, 0, 0), Vec3(ROCKET_SPEED * 3, 0, 0),
            snap(frame=10), 1.0,
        )
        assert rating.rating > 5.0
        assert "speed" in rating.detail

    def test_remote_origin_flagged(self, tracker):
        rating = tracker.verify_spawn(
            0, 10, 1, "rocket-launcher",
            Vec3(2000, 0, 0), Vec3(ROCKET_SPEED, 0, 0),
            snap(frame=10, x=0.0), 1.0,
        )
        assert rating.rating > 5.0
        assert "origin" in rating.detail

    def test_stale_owner_view_gets_slack(self, tracker):
        # Owner snapshot 10 frames old: he may have moved ~160u since.
        rating = tracker.verify_spawn(
            0, 20, 1, "rocket-launcher",
            Vec3(150, 0, 0), Vec3(ROCKET_SPEED, 0, 0),
            snap(frame=10, x=0.0), 1.0,
        )
        assert rating.rating == 1.0

    def test_closest_approach_none_without_spawn(self, tracker):
        assert tracker.closest_approach(1, "rocket-launcher", 20, Vec3()) is None

    def test_closest_approach_hits_target_on_path(self, tracker):
        tracker.record(1, 10, "rocket-launcher", Vec3(0, 0, 0),
                       Vec3(ROCKET_SPEED, 0, 0))
        # Target sits 450u down the flight path; rocket reaches it at ~0.5s.
        match = tracker.closest_approach(
            1, "rocket-launcher", 10 + 12, Vec3(450, 0, 0)
        )
        assert match is not None
        approach, age = match
        assert approach < 50.0
        assert age == 12

    def test_closest_approach_misses_off_path_target(self, tracker):
        tracker.record(1, 10, "rocket-launcher", Vec3(0, 0, 0),
                       Vec3(ROCKET_SPEED, 0, 0))
        match = tracker.closest_approach(
            1, "rocket-launcher", 22, Vec3(0, 1500, 0)
        )
        assert match is not None
        assert match[0] > 1000.0

    def test_old_spawns_expire(self):
        late = PROJECTILE_MAX_AGE_FRAMES + 20
        tracker = ProjectileTracker()
        tracker.record(1, 0, "rocket-launcher", Vec3(), Vec3(ROCKET_SPEED, 0, 0))
        tracker.record(1, late, "rocket-launcher", Vec3(), Vec3(ROCKET_SPEED, 0, 0))
        assert tracker.closest_approach(1, "rocket-launcher", late + 5, Vec3()) is not None
        # The frame-0 spawn is gone, and a claim before the later spawn cannot
        # match it: a claim placed right after frame 0 finds none.
        assert tracker.closest_approach(1, "rocket-launcher", 30, Vec3()) is None

    def test_weapon_mismatch_not_matched(self, tracker):
        tracker.record(1, 10, "rocket-launcher", Vec3(), Vec3(ROCKET_SPEED, 0, 0))
        assert tracker.closest_approach(1, "bfg", 15, Vec3()) is None


class TestProjectileIntegration:
    def test_fake_rocket_kills_lack_projectiles(self, small_trace, longest_yard):
        from repro.analysis.detection import wire_cheat
        from repro.cheats import FakeKillCheat

        config = WatchmenConfig()
        cheat = FakeKillCheat(
            [p for p in small_trace.player_ids() if p != 0],
            weapon="rocket-launcher",
            cheat_rate=0.05,
            seed=7,
        )
        wire_cheat(cheat, 0, small_trace, longest_yard, config)
        report = WatchmenSession(
            small_trace,
            game_map=longest_yard,
            config=config,
            behaviours={0: cheat},
            latency=uniform_lan(8),
        ).run()
        missing_projectile = [
            r
            for r in report.ratings
            if r.subject_id == 0
            and r.check == "kill"
            and "projectile" in r.detail
            and r.rating >= 5
        ]
        assert missing_projectile

    def test_honest_rocket_kills_not_flagged(self, medium_trace, longest_yard):
        rockets = [k for k in medium_trace.kills if k.weapon == "rocket-launcher"]
        if not rockets:
            pytest.skip("no rocket kills in this trace")
        report = WatchmenSession(
            medium_trace, game_map=longest_yard, latency=uniform_lan(12)
        ).run()
        false_projectile_flags = [
            r
            for r in report.ratings
            if r.check == "kill" and "projectile" in r.detail and r.score >= 5
        ]
        assert false_projectile_flags == []

    def test_spawn_announcements_reach_witnesses(self, medium_trace, longest_yard):
        rockets = [s for s in medium_trace.shots if s.weapon == "rocket-launcher"]
        if not rockets:
            pytest.skip("no rocket shots in this trace")
        session = WatchmenSession(
            medium_trace, game_map=longest_yard, latency=uniform_lan(12)
        )
        session.run()
        shooters = {s.shooter_id for s in rockets}
        # At least one non-shooter node tracked a shooter's projectile.
        witnessed = 0
        for player, node in session.nodes.items():
            for shooter in shooters:
                if shooter != player and node.projectiles._spawns.get(shooter):
                    witnessed += 1
        assert witnessed > 0
