"""Tests for the corridors map and cross-map behaviour differences."""

import pytest

from repro.game import compute_sets, generate_trace, make_corridors, make_longest_yard
from repro.game.gamemap import eye_position
from repro.game.vector import Vec3


@pytest.fixture(scope="module")
def corridors():
    return make_corridors()


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_corridors(lanes=1)
        with pytest.raises(ValueError):
            make_corridors(lane_width=50.0)

    def test_lane_walls_block_sight(self, corridors):
        # Two eyes in adjacent lanes, away from any doorway.
        lane_width = 300.0
        eye_a = Vec3(-1000.0, -lane_width, 48.0)
        eye_b = Vec3(-1000.0, 0.0 + lane_width, 48.0)
        assert not corridors.line_of_sight(eye_a, eye_b)

    def test_same_lane_clear_sight(self, corridors):
        eye_a = Vec3(-1200.0, -300.0, 48.0)
        eye_b = Vec3(1200.0, -300.0, 48.0)
        assert corridors.line_of_sight(eye_a, eye_b)

    def test_doorways_open_lines(self, corridors):
        # Straight through the central doorway between lanes.
        eye_a = Vec3(0.0, -300.0, 48.0)
        eye_b = Vec3(0.0, 300.0, 48.0)
        assert corridors.line_of_sight(eye_a, eye_b)

    def test_floor_everywhere_inside(self, corridors):
        for x in (-1500.0, 0.0, 1500.0):
            for y in (-300.0, 0.0, 300.0):
                assert corridors.floor_height(Vec3(x, y, 10.0)) == 0.0

    def test_items_per_lane(self, corridors):
        assert len(corridors.items) == 9  # 3 lanes × (centre, health, ammo)

    def test_respawns_at_lane_ends(self, corridors):
        assert len(corridors.respawn_points) == 6


class TestCrossMapBehaviour:
    @pytest.fixture(scope="class")
    def traces(self, longest_yard, corridors):
        open_trace = generate_trace(12, 200, seed=8, game_map=longest_yard)
        tight_trace = generate_trace(12, 200, seed=8, game_map=corridors)
        return open_trace, tight_trace

    def test_corridors_shrink_vision_sets(self, traces, longest_yard, corridors):
        """Heavy occlusion ⇒ fewer visible players per observer on average."""
        open_trace, tight_trace = traces

        def mean_visible(trace, game_map):
            total, samples = 0, 0
            for frame in range(50, 200, 50):
                snapshots = trace.frames[frame]
                for pid, snap in snapshots.items():
                    sets = compute_sets(snap, snapshots, game_map, frame)
                    total += len(sets.interest) + len(sets.vision)
                    samples += 1
            return total / samples

        assert mean_visible(tight_trace, corridors) < mean_visible(
            open_trace, longest_yard
        )

    def test_both_maps_playable(self, traces):
        for trace in traces:
            assert len(trace.shots) > 0

    def test_presence_concentrated_on_both(self, traces, longest_yard, corridors):
        from repro.analysis import hotspot_concentration, presence_heatmap

        open_trace, tight_trace = traces
        for trace, game_map in ((open_trace, longest_yard),
                                (tight_trace, corridors)):
            heatmap = presence_heatmap(trace, game_map, grid=16)
            assert hotspot_concentration(heatmap) > 0.3

    def test_protocol_runs_on_corridors(self, corridors):
        from repro.core import WatchmenSession
        from repro.net.latency import uniform_lan

        trace = generate_trace(8, 120, seed=8, game_map=corridors)
        report = WatchmenSession(
            trace, game_map=corridors, latency=uniform_lan(8)
        ).run()
        assert report.stale_fraction() < 0.05
        assert report.banned == set()
