"""Tests for the deathmatch simulator and bot controllers."""

import pytest

from repro.game.bots import BotDecision, HumanlikeBot, WaypointBot
from repro.game.gamemap import make_longest_yard
from repro.game.items import ItemManager
from repro.game.simulator import (
    DeathmatchSimulator,
    SimulationConfig,
    generate_trace,
)
import random


class TestConfig:
    def test_too_few_players_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_players=1)

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_frames=0)

    def test_bad_npc_fraction_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(npc_fraction=1.5)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_trace(num_players=6, num_frames=60, seed=9)
        b = generate_trace(num_players=6, num_frames=60, seed=9)
        assert a.num_frames == b.num_frames
        for frame in (0, 30, 59):
            for pid in a.player_ids():
                assert a.snapshot(frame, pid) == b.snapshot(frame, pid)
        assert a.shots == b.shots
        assert a.kills == b.kills

    def test_different_seed_different_trace(self):
        a = generate_trace(num_players=6, num_frames=60, seed=1)
        b = generate_trace(num_players=6, num_frames=60, seed=2)
        differs = any(
            a.snapshot(59, pid).position != b.snapshot(59, pid).position
            for pid in a.player_ids()
        )
        assert differs


class TestTraceContents:
    def test_frame_count(self, small_trace):
        assert small_trace.num_frames == 160

    def test_all_players_every_frame(self, small_trace):
        for frame_snapshots in small_trace.frames:
            assert sorted(frame_snapshots) == small_trace.player_ids()

    def test_game_has_combat(self, small_trace):
        assert len(small_trace.shots) > 0

    def test_positions_inside_map(self, small_trace, longest_yard):
        for frame_snapshots in small_trace.frames[::20]:
            for snap in frame_snapshots.values():
                assert longest_yard.in_bounds(snap.position)

    def test_kills_match_deaths(self, medium_trace):
        deaths = [e for e in medium_trace.events if e.kind == "death"]
        killer_deaths = [
            e for e in deaths if e.payload.get("killer_id") is not None
        ]
        assert len(medium_trace.kills) == len(killer_deaths)

    def test_snapshot_frames_stamped_correctly(self, small_trace):
        for frame in (0, 50, 100):
            for snap in small_trace.frames[frame].values():
                assert snap.frame == frame

    def test_respawn_after_death(self, medium_trace):
        if not medium_trace.kills:
            pytest.skip("no kills in this trace")
        kill = medium_trace.kills[0]
        victim = kill.victim_id
        respawn_frame = None
        for frame in range(kill.frame + 1, medium_trace.num_frames):
            if medium_trace.snapshot(frame, victim).alive:
                respawn_frame = frame
                break
        if respawn_frame is None:
            pytest.skip("victim never respawned before trace end")
        assert respawn_frame - kill.frame >= 30  # respawn delay ≈ 40 frames

    def test_pickup_events_recorded(self, medium_trace):
        pickups = [e for e in medium_trace.events if e.kind == "pickup"]
        assert pickups, "bots should collect items on the longest-yard map"

    def test_physics_respected_frame_to_frame(self, small_trace, longest_yard):
        from repro.game.physics import Physics
        from tests.reference.game import displacement_is_legal

        physics = Physics(longest_yard)
        for pid in small_trace.player_ids()[:4]:
            for frame in range(1, small_trace.num_frames, 7):
                prev = small_trace.snapshot(frame - 1, pid)
                cur = small_trace.snapshot(frame, pid)
                if not prev.alive or not cur.alive:
                    continue
                assert displacement_is_legal(
                    physics, prev.position, cur.position, 1, tolerance=1.10
                ), f"player {pid} frame {frame}"


class TestNpcFraction:
    def test_npc_bots_instantiated(self):
        sim = DeathmatchSimulator(
            SimulationConfig(num_players=6, num_frames=10, npc_fraction=0.5)
        )
        npcs = [c for c in sim.controllers.values() if isinstance(c, WaypointBot)]
        humans = [c for c in sim.controllers.values() if isinstance(c, HumanlikeBot)]
        assert len(npcs) == 3
        assert len(humans) == 3


class TestBots:
    def setup_method(self):
        self.yard = make_longest_yard()
        self.items = ItemManager(self.yard)

    def snapshots(self, trace, frame=0):
        return trace.frames[frame]

    def test_humanlike_decision_shape(self, small_trace):
        bot = HumanlikeBot(0, self.yard, random.Random(1))
        snaps = self.snapshots(small_trace)
        decision = bot.decide(0, snaps[0], snaps, self.items)
        assert isinstance(decision, BotDecision)

    def test_low_health_bot_seeks_health(self, small_trace):
        from dataclasses import replace

        bot = HumanlikeBot(0, self.yard, random.Random(1))
        snaps = dict(self.snapshots(small_trace))
        wounded = replace(snaps[0], health=10)
        snaps[0] = wounded
        decision = bot.decide(0, wounded, snaps, self.items)
        health_item = self.items.nearest_available(wounded.position, "health")
        assert health_item is not None
        direction = decision.intent.wish_direction
        to_item = (health_item.spec.position - wounded.position).with_z(0).normalized()
        assert direction.dot(to_item) > 0.7  # roughly heading for health

    def test_waypoint_bot_has_loop(self):
        bot = WaypointBot(2, self.yard, random.Random(1))
        assert len(bot.waypoints) == 6

    def test_waypoint_bot_rejects_empty_map(self):
        from repro.game.gamemap import GameMap
        from repro.game.vector import Vec3

        bare = GameMap(
            name="bare",
            bounds_min=Vec3(-10, -10, -10),
            bounds_max=Vec3(10, 10, 10),
            respawn_points=[Vec3(0, 0, 0)],
        )
        # Anchors exist (respawn point), so construction succeeds.
        bot = WaypointBot(0, bare, random.Random(1))
        assert bot.waypoints
