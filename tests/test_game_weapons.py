"""Unit tests for weapons and shot resolution."""

import math

import pytest

from repro.game.gamemap import make_longest_yard
from repro.game.weapons import (
    AVATAR_HIT_RADIUS,
    WEAPONS,
    WeaponSpec,
    hit_probability,
    resolve_shot,
)
from repro.game.vector import Vec3

from tests.arena import make_arena


class TestWeaponTable:
    def test_machinegun_is_spawn_weapon(self):
        assert "machinegun" in WEAPONS

    def test_expected_weapons_present(self):
        assert {"railgun", "rocket-launcher", "shotgun", "lightning-gun"} <= set(
            WEAPONS
        )

    def test_railgun_longest_range(self):
        assert WEAPONS["railgun"].effective_range == max(
            spec.effective_range for spec in WEAPONS.values()
        )

    def test_rocket_is_projectile(self):
        assert WEAPONS["rocket-launcher"].projectile_speed is not None
        assert WEAPONS["railgun"].projectile_speed is None

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            WeaponSpec("junk", damage=0, effective_range=1.0, refire_frames=1,
                       projectile_speed=None, spread=0.1)


class TestHitProbability:
    def test_perfect_aim_close_range_high(self):
        spec = WEAPONS["railgun"]
        assert hit_probability(spec, 0.0, 100.0) > 0.9

    def test_beyond_range_zero(self):
        spec = WEAPONS["shotgun"]
        assert hit_probability(spec, 0.0, spec.effective_range + 1) == 0.0

    def test_wild_aim_zero(self):
        spec = WEAPONS["railgun"]
        assert hit_probability(spec, 1.0, 100.0) == 0.0

    def test_probability_decreases_with_aim_error(self):
        spec = WEAPONS["machinegun"]
        p0 = hit_probability(spec, 0.0, 200.0)
        p1 = hit_probability(spec, spec.spread, 200.0)
        p2 = hit_probability(spec, 2 * spec.spread, 200.0)
        assert p0 > p1 > p2

    def test_probability_decreases_with_distance(self):
        spec = WEAPONS["machinegun"]
        assert hit_probability(spec, 0.0, 100.0) > hit_probability(spec, 0.0, 1000.0)

    def test_bounded_unit_interval(self):
        for spec in WEAPONS.values():
            for aim in (0.0, 0.01, 0.1):
                for dist in (10.0, 500.0, 5000.0):
                    p = hit_probability(spec, aim, dist)
                    assert 0.0 <= p <= 1.0


class TestResolveShot:
    def setup_method(self):
        self.arena = make_arena()
        self.spec = WEAPONS["railgun"]

    def test_point_blank_perfect_aim_hits(self):
        outcome = resolve_shot(
            self.arena, self.spec, Vec3(0, -500, 0), 0.0, Vec3(200, -500, 0),
            roll=0.0,
        )
        assert outcome.hit
        assert outcome.damage == self.spec.damage
        assert outcome.visible

    def test_bad_roll_misses(self):
        outcome = resolve_shot(
            self.arena, self.spec, Vec3(0, -500, 0), 0.0, Vec3(200, -500, 0),
            roll=0.999999,
        )
        assert not outcome.hit
        assert outcome.damage == 0

    def test_occluded_target_never_hit(self):
        yard = make_longest_yard()
        # Shooter and target on either side of the east pillar at eye level.
        outcome = resolve_shot(
            yard, self.spec, Vec3(100, 0, 0), 0.0, Vec3(400, 0, 0), roll=0.0
        )
        assert not outcome.visible
        assert not outcome.hit

    def test_aim_error_measured(self):
        outcome = resolve_shot(
            self.arena,
            self.spec,
            Vec3(0, -500, 0),
            math.pi / 2,  # aiming 90° off
            Vec3(500, -500, 0),
            roll=0.0,
        )
        assert outcome.aim_error > 1.0
        assert not outcome.hit

    def test_cylinder_radius_forgives_tiny_error(self):
        # At very close range the angular size of the avatar is large.
        distance = AVATAR_HIT_RADIUS * 2
        outcome = resolve_shot(
            self.arena,
            self.spec,
            Vec3(0, -500, 0),
            0.2,
            Vec3(distance, -500, 0),
            roll=0.0,
        )
        assert outcome.hit

    def test_projectile_travel_frames(self):
        rocket = WEAPONS["rocket-launcher"]
        outcome = resolve_shot(
            self.arena, rocket, Vec3(0, -500, 0), 0.0, Vec3(900, -500, 0),
            roll=0.0,
        )
        assert outcome.travel_frames >= 1

    def test_hitscan_zero_travel(self):
        outcome = resolve_shot(
            self.arena, self.spec, Vec3(0, -500, 0), 0.0, Vec3(900, -500, 0),
            roll=0.0,
        )
        assert outcome.travel_frames == 0

    def test_distance_reported(self):
        outcome = resolve_shot(
            self.arena, self.spec, Vec3(0, -500, 0), 0.0, Vec3(300, -500, 0),
            roll=0.5,
        )
        assert outcome.distance == pytest.approx(300.0)
