"""The spatial grid: conservativeness and bit-identity with the naive scans.

The fast paths in :class:`GameMap` are only allowed to *skip* boxes the
grid proves irrelevant; the per-box tests are unchanged.  These tests pin
the two load-bearing properties:

1. **conservative candidates** — any box that intersects a segment (or
   contains a point's XY) appears in the grid's candidate list;
2. **bit-identical results** — ``line_of_sight`` / ``floor_height`` agree
   exactly with their retained ``*_naive`` references
   (``tests/reference/game.py``) on built-in maps and
   randomized geometry.
"""

import math
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.game.gamemap import (
    Box,
    GameMap,
    make_corridors,
    make_longest_yard,
)
from repro.game.spatial import SpatialGrid
from repro.game.vector import Vec3

from tests.arena import make_arena
from tests.reference.game import (
    box_intersects_segment,
    floor_height_naive,
    line_of_sight_naive,
)

finite = st.floats(
    min_value=-3000.0, max_value=3000.0, allow_nan=False, allow_infinity=False
)


def _random_boxes(rng: Random, count: int) -> list[Box]:
    boxes = []
    for index in range(count):
        x = rng.uniform(-2000.0, 2000.0)
        y = rng.uniform(-2000.0, 2000.0)
        z = rng.uniform(-200.0, 400.0)
        hx = rng.uniform(10.0, 600.0)
        hy = rng.uniform(10.0, 600.0)
        hz = rng.uniform(10.0, 300.0)
        boxes.append(
            Box(Vec3(x - hx, y - hy, z - hz), Vec3(x + hx, y + hy, z + hz),
                name=f"b{index}")
        )
    return boxes


def _random_map(rng: Random, count: int) -> GameMap:
    return GameMap(
        name="random",
        bounds_min=Vec3(-3000.0, -3000.0, -1000.0),
        bounds_max=Vec3(3000.0, 3000.0, 1000.0),
        solids=_random_boxes(rng, count),
        respawn_points=[Vec3(0.0, 0.0, 0.0)],
    )


class TestGridStructure:
    def test_empty_grid_returns_no_candidates(self):
        grid = SpatialGrid([])
        assert grid.num_boxes == 0
        assert list(grid.point_candidates(0.0, 0.0)) == []
        assert list(grid.segment_candidates(-1.0, -1.0, 1.0, 1.0)) == []

    def test_every_box_registered_somewhere(self):
        grid = SpatialGrid(make_longest_yard().solids)
        registered = set()
        for cell in grid._cells:
            registered.update(cell)
        assert registered == set(range(grid.num_boxes))

    def test_box_bounds_mirror_boxes(self):
        grid = SpatialGrid(make_longest_yard().solids)
        for box, bounds in zip(grid.boxes, grid.box_bounds):
            assert bounds == (
                box.min_corner.x, box.min_corner.y, box.min_corner.z,
                box.max_corner.x, box.max_corner.y, box.max_corner.z,
            )

    def test_candidates_deduplicated(self):
        grid = SpatialGrid(make_longest_yard().solids)
        candidates = grid.segment_candidates(-2000.0, -2000.0, 2000.0, 2000.0)
        assert len(candidates) == len(set(candidates))


class TestConservativeness:
    def test_segment_candidates_cover_all_intersecting_boxes(self):
        rng = Random(11)
        for trial in range(30):
            boxes = _random_boxes(rng, rng.randint(1, 24))
            grid = SpatialGrid(boxes)
            for _ in range(40):
                a = Vec3(rng.uniform(-2600, 2600), rng.uniform(-2600, 2600),
                         rng.uniform(-400, 600))
                b = Vec3(rng.uniform(-2600, 2600), rng.uniform(-2600, 2600),
                         rng.uniform(-400, 600))
                candidates = set(grid.segment_candidates(a.x, a.y, b.x, b.y))
                for index, box in enumerate(boxes):
                    if box_intersects_segment(box, a, b):
                        assert index in candidates, (trial, index, a, b)

    def test_point_candidates_cover_all_containing_boxes(self):
        rng = Random(13)
        for _ in range(30):
            boxes = _random_boxes(rng, rng.randint(1, 24))
            grid = SpatialGrid(boxes)
            for _ in range(60):
                p = Vec3(rng.uniform(-2600, 2600), rng.uniform(-2600, 2600), 0.0)
                candidates = set(grid.point_candidates(p.x, p.y))
                for index, box in enumerate(boxes):
                    if box.contains_xy(p):
                        assert index in candidates

    def test_extreme_slope_segments_stay_conservative(self):
        boxes = [Box(Vec3(-10.0, -1000.0, -10.0), Vec3(10.0, 1000.0, 10.0))]
        grid = SpatialGrid(boxes)
        # Nearly-vertical in XY but just above the vertical threshold.
        a = Vec3(0.0, -900.0, 0.0)
        b = Vec3(5e-12, 900.0, 0.0)
        assert 0 in set(grid.segment_candidates(a.x, a.y, b.x, b.y))


class TestFastPathEquality:
    def test_builtin_maps_los_and_floor_match_naive(self):
        rng = Random(7)
        for game_map in (make_longest_yard(), make_arena(), make_corridors()):
            lo, hi = game_map.bounds_min, game_map.bounds_max
            for _ in range(400):
                a = Vec3(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                         rng.uniform(lo.z, hi.z))
                b = Vec3(rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                         rng.uniform(lo.z, hi.z))
                assert game_map.line_of_sight(a, b) == line_of_sight_naive(game_map, a, b)
                assert game_map.floor_height(a) == floor_height_naive(game_map, a)

    def test_random_maps_los_matches_naive(self):
        rng = Random(17)
        for _ in range(20):
            game_map = _random_map(rng, rng.randint(0, 30))
            for _ in range(60):
                a = Vec3(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000),
                         rng.uniform(-900, 900))
                b = Vec3(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000),
                         rng.uniform(-900, 900))
                assert game_map.line_of_sight(a, b) == line_of_sight_naive(game_map, a, b)
                assert game_map.floor_height(a) == floor_height_naive(game_map, a)

    @given(
        st.integers(min_value=0, max_value=6),
        finite, finite, finite, finite,
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_los_equality_property(self, num_boxes, ax, ay, bx, by, seed):
        rng = Random(seed)
        game_map = _random_map(rng, num_boxes)
        a = Vec3(ax, ay, rng.uniform(-500, 500))
        b = Vec3(bx, by, rng.uniform(-500, 500))
        assert game_map.line_of_sight(a, b) == line_of_sight_naive(game_map, a, b)

    def test_los_is_symmetric(self):
        game_map = make_longest_yard()
        rng = Random(23)
        for _ in range(200):
            a = Vec3(rng.uniform(-2200, 2200), rng.uniform(-2200, 2200),
                     rng.uniform(-500, 760))
            b = Vec3(rng.uniform(-2200, 2200), rng.uniform(-2200, 2200),
                     rng.uniform(-500, 760))
            assert game_map.line_of_sight(a, b) == game_map.line_of_sight(b, a)
            assert line_of_sight_naive(game_map, a, b) == line_of_sight_naive(game_map, b, a)


class TestIndexInvalidation:
    def test_index_rebuilds_when_solids_list_replaced(self):
        game_map = make_longest_yard()
        first = game_map.spatial_index
        assert game_map.spatial_index is first  # cached
        game_map.solids = list(game_map.solids)  # new list object
        assert game_map.spatial_index is not first

    def test_index_rebuilds_when_length_changes(self):
        game_map = make_longest_yard()
        first = game_map.spatial_index
        game_map.solids.append(
            Box(Vec3(3000.0, 3000.0, 0.0), Vec3(3100.0, 3100.0, 100.0))
        )
        rebuilt = game_map.spatial_index
        assert rebuilt is not first
        assert rebuilt.num_boxes == len(game_map.solids)


class TestPerfCounters:
    def test_los_counters_track_queries_and_tests(self):
        game_map = make_longest_yard()
        game_map.los_queries = game_map.los_boxes_tested = 0
        a = Vec3(-2000.0, -2000.0, 100.0)
        b = Vec3(2000.0, 2000.0, 100.0)
        game_map.line_of_sight(a, b)
        assert game_map.los_queries == 1
        fast_tested = game_map.los_boxes_tested
        line_of_sight_naive(game_map, a, b)
        assert game_map.los_queries == 2
        naive_tested = game_map.los_boxes_tested - fast_tested
        assert naive_tested == len(game_map.solids)
        assert fast_tested <= naive_tested

    def test_grid_avoids_most_box_tests_on_longest_yard(self):
        game_map = make_longest_yard()
        rng = Random(31)
        game_map.los_queries = game_map.los_boxes_tested = 0
        queries = 300
        for _ in range(queries):
            a = Vec3(rng.uniform(-2200, 2200), rng.uniform(-2200, 2200),
                     rng.uniform(0, 300))
            b = Vec3(rng.uniform(-2200, 2200), rng.uniform(-2200, 2200),
                     rng.uniform(0, 300))
            game_map.line_of_sight(a, b)
        naive_equivalent = queries * len(game_map.solids)
        # The grid should prune well over half the slab tests on this map.
        assert game_map.los_boxes_tested < naive_equivalent / 2

    def test_grid_sizing_tracks_box_count(self):
        rng = Random(37)
        for count in (1, 4, 11, 30):
            grid = SpatialGrid(_random_boxes(rng, count))
            expected = int(math.ceil(2.0 * math.sqrt(count)))
            assert grid.nx == grid.ny == min(64, max(1, expected))
            assert len(grid._cells) == grid.nx * grid.ny
