"""Geometry queries: bit-identity of GameMap's scans with the naive twins.

``GameMap.line_of_sight`` scans every solid box but skips, before the slab
test, a box whose ``reach`` lies outside the segment's bounding box on some
axis; ``floor_height`` / ``floor_height_xy`` scan every box.  Nothing is
derived from ``solids`` and kept, so an edit to the list is seen by the
next query.  These tests pin:

1. **bit-identical results** — ``line_of_sight`` / ``floor_height`` /
   ``floor_height_xy`` agree exactly with their retained ``*_naive`` twins
   (``tests/reference/game.py``) on built-in maps, randomized geometry and
   hypothesis maps of up to 64 boxes, with segments that are vertical,
   zero-length, end on a face or inside a box, or carry NaN, infinite or
   huge coordinates;
2. **edits are seen** — a replaced list, an appended box and a box
   assigned in place;
3. **pruning** — the skip keeps the boxes that reach the slab test per
   query at the value measured on a simulated match.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.game.gamemap import (
    Box,
    GameMap,
    make_corridors,
    make_longest_yard,
)
from repro.game.simulator import generate_trace
from repro.game.vector import Vec3

from tests.arena import make_arena
from tests.reference.game import (
    floor_height_naive,
    line_of_sight_naive,
)

finite = st.floats(
    min_value=-3000.0, max_value=3000.0, allow_nan=False, allow_infinity=False
)
#: Half-extents: zero-thickness and thinner-than-the-surface-epsilon boxes
#: as well as ordinary ones.
half_extent = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=1e-5),
    st.floats(min_value=0.0, max_value=600.0),
)
#: Any float, with the values that overflow the slab arithmetic drawn often.
wild = st.one_of(
    st.floats(),
    st.sampled_from(
        (float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324, -0.0)
    ),
    finite,
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


def _map_of(solids: list[Box]) -> GameMap:
    return GameMap(
        name="random",
        bounds_min=Vec3(-3000.0, -3000.0, -1000.0),
        bounds_max=Vec3(3000.0, 3000.0, 1000.0),
        solids=solids,
        respawn_points=[Vec3(0.0, 0.0, 0.0)],
    )


def _random_map(rng: Random, count: int) -> GameMap:
    return _map_of(_random_boxes(rng, count))


@st.composite
def boxes(draw) -> Box:
    cx, cy, cz = draw(finite), draw(finite), draw(finite)
    hx, hy, hz = draw(half_extent), draw(half_extent), draw(half_extent)
    return Box(Vec3(cx - hx, cy - hy, cz - hz), Vec3(cx + hx, cy + hy, cz + hz))


@st.composite
def points(draw, solids: list[Box]) -> Vec3:
    """A free point, or a corner of, a point on a face of, or a point inside
    one of ``solids``."""
    kinds = ("free", "corner", "face", "inside") if solids else ("free",)
    kind = draw(st.sampled_from(kinds))
    if kind == "free":
        return Vec3(draw(finite), draw(finite), draw(finite))
    bounds = draw(st.sampled_from(solids)).bounds
    coords = []
    for axis in range(3):
        lo, hi = bounds[axis], bounds[axis + 3]
        if kind == "corner":
            coords.append(draw(st.sampled_from((lo, hi))))
        else:
            coords.append(draw(st.floats(min_value=lo, max_value=hi)))
    if kind == "face":
        axis = draw(st.integers(min_value=0, max_value=2))
        coords[axis] = draw(st.sampled_from((bounds[axis], bounds[axis + 3])))
    return Vec3(*coords)


@st.composite
def maps_and_segments(draw) -> tuple[GameMap, Vec3, Vec3]:
    solids = draw(st.lists(boxes(), max_size=64))
    a = draw(points(solids))
    shape = draw(st.sampled_from(("any", "vertical", "zero-length")))
    if shape == "zero-length":
        b = a
    elif shape == "vertical":
        b = Vec3(a.x, a.y, draw(finite))
    else:
        b = draw(points(solids))
    return _map_of(solids), a, b


def assert_matches_naive(game_map: GameMap, a: Vec3, b: Vec3) -> None:
    assert game_map.line_of_sight(a, b) == line_of_sight_naive(game_map, a, b)
    assert game_map.floor_height(a) == floor_height_naive(game_map, a)
    assert game_map.floor_height_xy(b.x, b.y) == floor_height_naive(game_map, b)


class TestBoxBounds:
    def test_box_bounds_mirror_boxes(self):
        for box in make_longest_yard().solids:
            assert box.bounds == (
                box.min_corner.x, box.min_corner.y, box.min_corner.z,
                box.max_corner.x, box.max_corner.y, box.max_corner.z,
            )

    def test_reach_is_the_box_shrunk_by_the_surface_epsilon_in_order(self):
        box = Box(Vec3(0.0, 5.0, -1.0), Vec3(10.0, 5.0, 1.0))  # zero-thick in y
        assert box.reach == (1e-6, 5.0 - 1e-6, -1.0 + 1e-6,
                             10.0 - 1e-6, 5.0 + 1e-6, 1.0 - 1e-6)

    def test_a_nan_corner_is_refused(self):
        with pytest.raises(ValueError, match="degenerate"):
            Box(Vec3(float("nan"), 0.0, 0.0), Vec3(1.0, 1.0, 1.0))


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
                assert_matches_naive(game_map, a, b)

    def test_random_maps_los_matches_naive(self):
        rng = Random(17)
        for _ in range(20):
            game_map = _random_map(rng, rng.randint(0, 30))
            for _ in range(60):
                a = Vec3(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000),
                         rng.uniform(-900, 900))
                b = Vec3(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000),
                         rng.uniform(-900, 900))
                assert_matches_naive(game_map, a, b)

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

    @given(maps_and_segments())
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_maps_match_naive(self, case):
        """Up to 64 boxes, thin ones included; segments that are vertical,
        zero-length, or end on a corner, on a face or inside a box."""
        game_map, a, b = case
        assert_matches_naive(game_map, a, b)

    @given(st.lists(boxes(), max_size=16), *[wild] * 6)
    @settings(max_examples=300, deadline=None)
    def test_non_finite_and_huge_coordinates_match_naive(
        self, solids, ax, ay, az, bx, by, bz
    ):
        """NaN, ±inf and ±1e308 make the slab arithmetic's differences and
        t values overflow or go NaN; the skip must not answer for it."""
        game_map = _map_of(solids)
        assert_matches_naive(game_map, Vec3(ax, ay, az), Vec3(bx, by, bz))

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


#: A sight line above the north ledge's approach on ``longest-yard``: clear
#: until a wall is put across it.
EYE, TARGET = Vec3(-1000.0, 1500.0, 300.0), Vec3(1000.0, 1500.0, 300.0)
WALL = Box(Vec3(-10.0, 1400.0, 200.0), Vec3(10.0, 1600.0, 400.0), name="wall")


class TestSolidsEdits:
    def test_replaced_solids_list_is_seen(self):
        game_map = make_longest_yard()
        assert game_map.line_of_sight(EYE, TARGET)
        game_map.solids = [*game_map.solids, WALL]
        assert not game_map.line_of_sight(EYE, TARGET)

    def test_appended_box_is_seen(self):
        game_map = make_longest_yard()
        assert game_map.floor_height_xy(0.0, 1500.0) is None
        game_map.solids.append(WALL)
        assert game_map.floor_height_xy(0.0, 1500.0) == 400.0
        assert not game_map.line_of_sight(EYE, TARGET)

    def test_box_assigned_in_place_is_seen(self):
        game_map = make_longest_yard()
        assert game_map.line_of_sight(EYE, TARGET)
        assert game_map.floor_height_xy(0.0, 0.0) == 0.0  # the central platform
        game_map.solids[0] = WALL  # same list, same length
        assert not game_map.line_of_sight(EYE, TARGET)
        assert game_map.floor_height_xy(0.0, 0.0) is None
        assert_matches_naive(game_map, EYE, TARGET)


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

    def test_bounds_reject_prunes_most_slab_tests(self):
        """The bots' sight lines over a 12 x 240 match on ``longest-yard``
        (11 boxes): 6 603 queries, 0.799 boxes per query reach the slab test."""
        game_map = make_longest_yard()
        generate_trace(num_players=12, num_frames=240, seed=7, game_map=game_map)
        assert game_map.los_queries == 6603
        assert game_map.los_boxes_tested / game_map.los_queries <= 0.80
