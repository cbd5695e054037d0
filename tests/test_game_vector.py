"""Unit tests for the vector algebra."""

import math

import pytest

from repro.game.vector import Vec3, clamp


class TestClamp:
    def test_inside_range(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below(self):
        assert clamp(-3.0, 0.0, 1.0) == 0.0

    def test_above(self):
        assert clamp(7.0, 0.0, 1.0) == 1.0

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            clamp(0.0, 1.0, -1.0)


class TestArithmetic:
    def test_addition(self):
        assert Vec3(1, 2, 3) + Vec3(4, 5, 6) == Vec3(5, 7, 9)

    def test_subtraction(self):
        assert Vec3(4, 5, 6) - Vec3(1, 2, 3) == Vec3(3, 3, 3)

    def test_scalar_multiplication_both_sides(self):
        assert Vec3(1, 2, 3) * 2 == Vec3(2, 4, 6)
        assert 2 * Vec3(1, 2, 3) == Vec3(2, 4, 6)

    def test_division(self):
        assert Vec3(2, 4, 6) / 2 == Vec3(1, 2, 3)

    def test_negation(self):
        assert -Vec3(1, -2, 3) == Vec3(-1, 2, -3)

    def test_iteration_unpacks_components(self):
        x, y, z = Vec3(1, 2, 3)
        assert (x, y, z) == (1, 2, 3)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            Vec3(1, 2, 3).x = 5  # type: ignore[misc]


class TestGeometry:
    def test_dot(self):
        assert Vec3(1, 2, 3).dot(Vec3(4, -5, 6)) == 4 - 10 + 18

    def test_length(self):
        assert Vec3(3, 4, 0).length() == pytest.approx(5.0)

    def test_horizontal_length_ignores_z(self):
        assert Vec3(3, 4, 100).horizontal_length() == pytest.approx(5.0)

    def test_distance(self):
        assert Vec3(0, 0, 0).distance_to(Vec3(0, 0, 7)) == pytest.approx(7.0)

    def test_normalized_unit_length(self):
        n = Vec3(10, 0, 0).normalized()
        assert n == Vec3(1, 0, 0)

    def test_normalized_zero_vector(self):
        assert Vec3().normalized() == Vec3.zero()

    def test_lerp_endpoints_and_midpoint(self):
        a, b = Vec3(0, 0, 0), Vec3(2, 4, 6)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b
        assert a.lerp(b, 0.5) == Vec3(1, 2, 3)

    def test_with_z(self):
        assert Vec3(1, 2, 3).with_z(9) == Vec3(1, 2, 9)

    def test_yaw_of_axes(self):
        assert Vec3(1, 0, 0).yaw() == pytest.approx(0.0)
        assert Vec3(0, 1, 0).yaw() == pytest.approx(math.pi / 2)

    def test_from_yaw_roundtrip(self):
        v = Vec3.from_yaw(1.1, 5.0)
        assert v.yaw() == pytest.approx(1.1)
        assert v.length() == pytest.approx(5.0)

    def test_angle_to_orthogonal(self):
        assert Vec3(1, 0, 0).angle_to(Vec3(0, 1, 0)) == pytest.approx(math.pi / 2)

    def test_angle_to_self_is_zero(self):
        assert Vec3(1, 2, 3).angle_to(Vec3(2, 4, 6)) == pytest.approx(0.0)

    def test_angle_to_degenerate_is_zero(self):
        assert Vec3(1, 0, 0).angle_to(Vec3.zero()) == 0.0


class TestSerialisation:
    def test_tuple_roundtrip(self):
        v = Vec3(1.5, -2.25, 3.0)
        assert Vec3.from_tuple(v.to_tuple()) == v
