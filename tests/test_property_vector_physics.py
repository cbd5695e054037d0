"""Property-based tests (hypothesis) for vector algebra and physics."""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.game.physics import MoveIntent, Physics, PhysicsConfig
from repro.game.vector import Vec3, clamp

from tests.arena import make_arena
from tests.reference.game import displacement_excess_reference, displacement_is_legal

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
vectors = st.builds(Vec3, finite, finite, finite)
small_vectors = st.builds(Vec3, small, small, small)


class TestVectorProperties:
    @given(vectors, vectors)
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(vectors, vectors, vectors)
    def test_addition_associative_approx(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        assert left.distance_to(right) <= 1e-6 * max(1.0, left.length())

    @given(vectors)
    def test_additive_identity(self, v):
        assert v + Vec3.zero() == v

    @given(vectors)
    def test_negation_inverse(self, v):
        assert v + (-v) == Vec3.zero()

    @given(vectors, st.floats(min_value=-100, max_value=100,
                              allow_nan=False, allow_infinity=False))
    def test_scalar_distributes(self, v, k):
        scaled = v * k
        assert scaled.x == v.x * k
        assert scaled.y == v.y * k

    @given(small_vectors, small_vectors)
    def test_triangle_inequality(self, a, b):
        assert (a + b).length() <= a.length() + b.length() + 1e-6

    @given(small_vectors, small_vectors)
    def test_cauchy_schwarz(self, a, b):
        assert abs(a.dot(b)) <= a.length() * b.length() + 1e-6

    @given(small_vectors)
    def test_normalized_is_unit_or_zero(self, v):
        n = v.normalized()
        assert n == Vec3.zero() or abs(n.length() - 1.0) < 1e-9

    @given(small_vectors, small_vectors, st.floats(min_value=0, max_value=1))
    def test_lerp_stays_between(self, a, b, t):
        point = a.lerp(b, t)
        assert point.distance_to(a) + point.distance_to(b) <= (
            a.distance_to(b) + 1e-6
        )

    @given(small_vectors, small_vectors)
    def test_distance_symmetric(self, a, b):
        assert a.distance_to(b) == b.distance_to(a)

    @given(st.floats(min_value=-math.pi, max_value=math.pi),
           st.floats(min_value=0.1, max_value=100))
    def test_from_yaw_roundtrip(self, yaw, length):
        v = Vec3.from_yaw(yaw, length)
        assert abs(v.length() - length) < 1e-9
        assert abs(((v.yaw() - yaw + math.pi) % (2 * math.pi)) - math.pi) < 1e-9

    @given(finite, finite, finite)
    def test_clamp_in_range(self, value, a, b):
        low, high = min(a, b), max(a, b)
        assert low <= clamp(value, low, high) <= high


class TestPhysicsProperties:
    def setup_method(self):
        self.physics = Physics(make_arena())

    @given(
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=0, max_value=1000),
        st.booleans(),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=50, deadline=None)
    def test_step_never_violates_envelope(self, dx, dy, speed, jump, yaw):
        """Whatever the input, one honest step obeys the legality check."""
        intent = MoveIntent(Vec3(dx, dy, 0), speed, jump, yaw)
        start = Vec3(100.0, -300.0, 0.0)
        result = self.physics.step(start, Vec3(), 0.0, intent)
        assert displacement_is_legal(
            self.physics, start, result.position, 1, tolerance=1.10
        )

    @given(st.integers(min_value=0, max_value=100))
    def test_max_travel_monotone(self, frames):
        for envelope in (
            self.physics.max_horizontal_travel,
            self.physics.max_ascent,
            self.physics.max_descent,
        ):
            assert envelope(frames) <= envelope(frames + 1)

    @given(small_vectors, small_vectors, st.integers(min_value=-1, max_value=50))
    def test_excess_matches_reference_bitwise(self, a, b, frames):
        assert struct.pack(">d", self.physics.displacement_excess(a, b, frames)) == (
            struct.pack(">d", displacement_excess_reference(self.physics, a, b, frames))
        )

    @given(
        st.lists(
            st.tuples(
                st.one_of(small_vectors, vectors),
                st.one_of(small_vectors, vectors),
                st.integers(min_value=0, max_value=45),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.001, max_value=1.0),
        st.floats(min_value=1.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_excess_on_one_physics_matches_reference_bitwise(
        self, draws, frame_seconds, fall_speed, step_height
    ):
        """One ``Physics`` (its per-frame units computed once) answers gaps
        in whatever order they come, on configs other than the default,
        exactly as the bound methods, which re-read the config each call."""
        physics = Physics(
            make_arena(),
            PhysicsConfig(
                frame_seconds=frame_seconds,
                max_fall_speed=fall_speed,
                step_height=step_height,
            ),
        )
        for a, b, frames in draws:
            assert struct.pack(">d", physics.displacement_excess(a, b, frames)) == (
                struct.pack(">d", displacement_excess_reference(physics, a, b, frames))
            )

    @given(small_vectors, small_vectors, st.integers(min_value=1, max_value=50))
    @settings(max_examples=50)
    def test_excess_zero_iff_within_envelope(self, a, b, frames):
        excess = self.physics.displacement_excess(a, b, frames)
        assert excess >= 0.0
        offset = b - a
        horizontal_ok = (
            offset.horizontal_length()
            <= self.physics.max_horizontal_travel(frames) + 1e-9
        )
        vertical_ok = (
            -self.physics.max_descent(frames) - 1e-9
            <= offset.z
            <= self.physics.max_ascent(frames) + 1e-9
        )
        if horizontal_ok and vertical_ok:
            assert excess == 0.0
        else:
            assert excess > 0.0
