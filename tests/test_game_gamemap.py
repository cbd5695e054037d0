"""Unit tests for maps, occlusion and items placement."""

import pytest

from repro.game.gamemap import (
    Box,
    GameMap,
    ItemKind,
    ItemSpec,
    eye_position,
    make_longest_yard,
)
from repro.game.vector import Vec3

from tests.arena import make_arena
from tests.reference.game import box_contains, box_contains_xy, box_intersects_segment


def occludes(box, start, end):
    """Does ``box`` alone block the sight line?  Asked of the live path (a
    one-box map's ``line_of_sight``) and of the reference slab test it
    inlines; the two must agree."""
    lone = GameMap(
        "one-box", Vec3(-100, -100, -100), Vec3(100, 100, 100),
        solids=[box], respawn_points=[Vec3(50, 50, 50)],
    )
    blocked = not lone.line_of_sight(start, end)
    assert blocked == box_intersects_segment(box, start, end)
    return blocked


class TestBox:
    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box(Vec3(1, 0, 0), Vec3(0, 1, 1))

    def test_top_and_center(self):
        box = Box(Vec3(0, 0, 0), Vec3(2, 2, 4))
        assert box.top == 4
        assert box.center == Vec3(1, 1, 2)

    def test_contains_xy_with_margin(self):
        box = Box(Vec3(0, 0, 0), Vec3(10, 10, 1))
        assert box_contains_xy(box, Vec3(5, 5, 99))
        assert not box_contains_xy(box, Vec3(11, 5, 0))
        assert box_contains_xy(box, Vec3(11, 5, 0), margin=2.0)

    def test_contains_3d(self):
        box = Box(Vec3(0, 0, 0), Vec3(10, 10, 10))
        assert box_contains(box, Vec3(5, 5, 5))
        assert not box_contains(box, Vec3(5, 5, 11))

    def test_segment_through_box_intersects(self):
        box = Box(Vec3(-1, -1, -1), Vec3(1, 1, 1))
        assert occludes(box, Vec3(-5, 0, 0), Vec3(5, 0, 0))

    def test_segment_missing_box(self):
        box = Box(Vec3(-1, -1, -1), Vec3(1, 1, 1))
        assert not occludes(box, Vec3(-5, 5, 0), Vec3(5, 5, 0))

    def test_segment_stopping_short(self):
        box = Box(Vec3(10, -1, -1), Vec3(12, 1, 1))
        assert not occludes(box, Vec3(0, 0, 0), Vec3(9, 0, 0))

    def test_segment_grazing_surface_does_not_block(self):
        # Sight lines along a platform's top surface must not be occluded.
        box = Box(Vec3(-10, -10, -5), Vec3(10, 10, 0))
        assert not occludes(box, Vec3(-20, 0, 0), Vec3(20, 0, 0))

    def test_diagonal_segment(self):
        box = Box(Vec3(4, 4, 4), Vec3(6, 6, 6))
        assert occludes(box, Vec3(0, 0, 0), Vec3(10, 10, 10))


class TestItemSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ItemSpec("potion", Vec3())

    def test_non_positive_respawn_rejected(self):
        with pytest.raises(ValueError):
            ItemSpec(ItemKind.HEALTH, Vec3(), respawn_frames=0)

    def test_all_kinds_enumerated(self):
        assert set(ItemKind.ALL) == {
            "health",
            "ammo",
            "weapon",
            "armor",
            "powerup",
        }


class TestGameMap:
    def test_requires_respawn_points(self):
        with pytest.raises(ValueError):
            GameMap(
                name="empty",
                bounds_min=Vec3(-10, -10, -10),
                bounds_max=Vec3(10, 10, 10),
            )

    def test_respawn_points_must_be_in_bounds(self):
        with pytest.raises(ValueError):
            GameMap(
                name="bad",
                bounds_min=Vec3(-10, -10, -10),
                bounds_max=Vec3(10, 10, 10),
                respawn_points=[Vec3(100, 0, 0)],
            )

    def test_clamp_to_bounds(self, arena):
        clamped = arena.clamp_to_bounds(Vec3(1e6, -1e6, 0))
        assert arena.in_bounds(clamped)

    def test_floor_height_over_platform(self):
        yard = make_longest_yard()
        assert yard.floor_height(Vec3(0, 0, 100)) == pytest.approx(0.0)

    def test_floor_height_over_void(self):
        yard = make_longest_yard()
        assert yard.floor_height(Vec3(2100, 2100, 0)) is None

    def test_item_positions_filter_by_kind(self):
        yard = make_longest_yard()
        weapons = yard.item_positions(ItemKind.WEAPON)
        assert weapons
        assert len(weapons) < len(yard.item_positions())


class TestLineOfSight:
    def test_clear_line(self, arena):
        assert arena.line_of_sight(Vec3(-500, -500, 50), Vec3(-400, -500, 50))

    def test_pillar_blocks(self):
        yard = make_longest_yard()
        # The east pillar spans x∈[220,300], y∈[-40,40], z∈[0,160].
        eye_a = Vec3(100, 0, 50)
        eye_b = Vec3(400, 0, 50)
        assert not yard.line_of_sight(eye_a, eye_b)

    def test_looking_over_pillar(self):
        yard = make_longest_yard()
        assert yard.line_of_sight(Vec3(100, 0, 400), Vec3(400, 0, 400))

    def test_symmetry(self):
        yard = make_longest_yard()
        a, b = Vec3(100, 0, 50), Vec3(400, 0, 50)
        assert yard.line_of_sight(a, b) == yard.line_of_sight(b, a)

    def test_endpoint_inside_solid_is_ignored(self):
        yard = make_longest_yard()
        inside = Vec3(260, 0, 80)  # inside the east pillar
        outside = Vec3(260, 500, 80)
        # The pillar containing the endpoint does not occlude itself.
        assert yard.line_of_sight(inside, outside)


class TestBuiltinMaps:
    def test_longest_yard_has_hotspot_items(self):
        yard = make_longest_yard()
        names = {item.name for item in yard.items}
        assert "railgun" in names
        assert "mega" in names

    def test_longest_yard_item_kinds_cover_figure1_legend(self):
        yard = make_longest_yard()
        kinds = {item.kind for item in yard.items}
        assert kinds == set(ItemKind.ALL)

    def test_arena_rejects_tiny_side(self):
        with pytest.raises(ValueError):
            make_arena(side=100.0)

    def test_arena_pillar_count(self):
        arena = make_arena(pillars=3)
        pillars = [b for b in arena.solids if b.name.startswith("pillar")]
        assert len(pillars) == 3

    def test_eye_position_above_feet(self):
        feet = Vec3(1, 2, 3)
        eye = eye_position(feet)
        assert eye.x == feet.x and eye.y == feet.y
        assert eye.z > feet.z
