"""Unit tests for the movement-physics envelope."""

import math

import pytest

from repro.game.physics import MoveIntent, Physics, PhysicsConfig
from repro.game.vector import Vec3

from tests.reference.game import displacement_is_legal


@pytest.fixture()
def physics(arena):
    return Physics(arena)


def run_intent(physics, position, frames, intent, velocity=Vec3(), yaw=0.0):
    for _ in range(frames):
        result = physics.step(position, velocity, yaw, intent)
        position, velocity, yaw = result.position, result.velocity, result.yaw
    return result


class TestConfig:
    def test_rejects_non_positive_frame(self):
        with pytest.raises(ValueError):
            PhysicsConfig(frame_seconds=0.0)

    def test_rejects_non_positive_speed(self):
        with pytest.raises(ValueError):
            PhysicsConfig(max_ground_speed=-1.0)

    def test_max_frame_distance(self):
        config = PhysicsConfig()
        assert config.max_frame_distance == pytest.approx(
            config.max_air_speed * config.frame_seconds
        )


class TestStep:
    def test_ground_run_caps_speed(self, physics):
        intent = MoveIntent(Vec3(1, 0, 0), wish_speed=9999.0, yaw=0.0)
        result = physics.step(Vec3(0, 0, 0), Vec3(), 0.0, intent)
        speed = result.velocity.horizontal_length()
        assert speed <= physics.config.max_ground_speed + 1e-6

    def test_standing_still(self, physics):
        result = physics.step(Vec3(0, 0, 0), Vec3(), 0.0, MoveIntent())
        assert result.position.horizontal_length() == pytest.approx(0.0)
        assert result.on_ground

    def test_jump_leaves_ground(self, physics):
        intent = MoveIntent(jump=True)
        result = physics.step(Vec3(0, 0, 0), Vec3(), 0.0, intent)
        assert result.position.z > 0.0
        assert not result.on_ground

    def test_jump_lands_back(self, physics):
        position, velocity = Vec3(0, 0, 0), Vec3()
        result = physics.step(position, velocity, 0.0, MoveIntent(jump=True))
        for _ in range(40):
            result = physics.step(
                result.position, result.velocity, result.yaw, MoveIntent()
            )
            if result.on_ground:
                break
        assert result.on_ground
        assert result.position.z == pytest.approx(0.0)

    def test_gravity_accelerates_fall(self, physics):
        airborne = Vec3(0, 0, 300.0)
        r1 = physics.step(airborne, Vec3(), 0.0, MoveIntent())
        r2 = physics.step(r1.position, r1.velocity, 0.0, MoveIntent())
        assert r2.velocity.z < r1.velocity.z < 0.0

    def test_fall_speed_clamped_at_terminal(self, physics):
        result = physics.step(Vec3(0, 0, 400), Vec3(0, 0, -5000), 0.0, MoveIntent())
        assert result.velocity.z >= -physics.config.max_fall_speed

    def test_fall_damage_on_hard_landing(self, physics):
        result = physics.step(
            Vec3(0, 0, 5.0), Vec3(0, 0, -800.0), 0.0, MoveIntent()
        )
        assert result.on_ground
        assert result.fall_damage > 0

    def test_soft_landing_no_damage(self, physics):
        result = physics.step(
            Vec3(0, 0, 2.0), Vec3(0, 0, -100.0), 0.0, MoveIntent()
        )
        assert result.on_ground
        assert result.fall_damage == 0

    def test_turn_rate_limited(self, physics):
        intent = MoveIntent(yaw=math.pi)
        result = physics.step(Vec3(0, 0, 0), Vec3(), 0.0, intent)
        max_turn = physics.config.max_turn_rate * physics.config.frame_seconds
        assert abs(result.yaw) <= max_turn + 1e-9

    def test_turn_converges_to_target(self, physics):
        yaw = 0.0
        for _ in range(20):
            result = physics.step(Vec3(0, 0, 0), Vec3(), yaw, MoveIntent(yaw=1.0))
            yaw = result.yaw
        assert yaw == pytest.approx(1.0, abs=1e-6)

    def test_yaw_wraps_to_pi_range(self, physics):
        result = physics.step(
            Vec3(0, 0, 0), Vec3(), math.pi - 0.01, MoveIntent(yaw=-math.pi + 0.01)
        )
        assert -math.pi <= result.yaw <= math.pi

    def test_void_fall_detected(self):
        # The longest-yard map has void between platforms.
        from repro.game.gamemap import make_longest_yard

        yard = make_longest_yard()
        physics = Physics(yard)
        position, velocity = Vec3(700, 0, 0), Vec3()  # off every platform
        fell = False
        result = None
        for _ in range(100):
            result = physics.step(
                position, velocity, 0.0, MoveIntent()
            )
            position, velocity = result.position, result.velocity
            if result.fell_in_void:
                fell = True
                break
        assert fell

    def test_position_stays_in_bounds(self, physics, arena):
        intent = MoveIntent(Vec3(1, 0, 0), wish_speed=320.0, yaw=0.0)
        position, velocity, yaw = Vec3(0, 0, 0), Vec3(), 0.0
        for _ in range(500):
            result = physics.step(position, velocity, yaw, intent)
            position, velocity, yaw = result.position, result.velocity, result.yaw
        assert arena.in_bounds(position)


def envelopes(physics):
    """The three per-axis travel bounds ``displacement_excess`` checks against."""
    return physics.max_horizontal_travel, physics.max_ascent, physics.max_descent


class TestEnvelope:
    def test_max_travel_monotone(self, physics):
        for envelope in envelopes(physics):
            assert envelope(1) < envelope(2) < envelope(10)

    def test_max_travel_rejects_negative(self, physics):
        for envelope in envelopes(physics):
            with pytest.raises(ValueError):
                envelope(-1)

    def test_legal_ground_run(self, physics):
        start = Vec3(0, 0, 0)
        end = Vec3(320 * 0.05 * 10, 0, 0)  # exactly max speed for 10 frames
        assert displacement_is_legal(physics, start, end, 10)

    def test_illegal_double_speed(self, physics):
        start = Vec3(0, 0, 0)
        end = Vec3(2 * 320 * 0.05 * 10, 0, 0)
        assert not displacement_is_legal(physics, start, end, 10)

    def test_terminal_fall_is_legal(self, physics):
        start = Vec3(0, 0, 1000.0)
        drop = physics.config.max_fall_speed * 0.05 * 10
        assert displacement_is_legal(physics, start, start.with_z(1000 - drop), 10)

    def test_super_fall_is_illegal(self, physics):
        start = Vec3(0, 0, 5000.0)
        drop = physics.config.max_fall_speed * 0.05 * 10 * 3
        assert not displacement_is_legal(physics, start, start.with_z(5000 - drop), 10)

    def test_vertical_cheat_cannot_hide_in_horizontal_allowance(self, physics):
        # Rising faster than repeated jumps allow is illegal even when the
        # horizontal displacement is zero.
        rise = physics.max_ascent(5) * 3
        assert (
            physics.displacement_excess(Vec3(0, 0, 0), Vec3(0, 0, rise), 5) > 0
        )

    def test_zero_frames_displacement(self, physics):
        assert displacement_is_legal(physics, Vec3(0, 0, 0), Vec3(0.5, 0, 0), 0)
        assert not displacement_is_legal(physics, Vec3(0, 0, 0), Vec3(50, 0, 0), 0)

    def test_honest_simulation_is_physics_clean(self, physics, arena):
        """Whatever the stepper produces, the envelope checker accepts."""
        intent = MoveIntent(Vec3(1, 1, 0).normalized(), 320.0, jump=True, yaw=2.0)
        position, velocity, yaw = Vec3(0, 0, 0), Vec3(), 0.0
        track = [position]
        for _ in range(60):
            result = physics.step(position, velocity, yaw, intent)
            position, velocity, yaw = result.position, result.velocity, result.yaw
            track.append(position)
        for gap in (1, 3, 10):
            for index in range(0, len(track) - gap, gap):
                assert displacement_is_legal(
                    physics, track[index], track[index + gap], gap, tolerance=1.10
                )
