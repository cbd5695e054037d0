"""Unit tests for dead reckoning and the trajectory-deviation metric."""

import pytest

from repro.game.avatar import AvatarSnapshot
from repro.game.deadreckoning import GuidancePrediction, predict_linear
from repro.game.vector import Vec3

from tests.retired.deadreckoning import simulate_guidance, trajectory_deviation_area


def snap(x=0.0, vx=0.0, frame=0):
    return AvatarSnapshot(
        player_id=1,
        frame=frame,
        position=Vec3(x, 0, 0),
        velocity=Vec3(vx, 0, 0),
        yaw=0.0,
        health=100,
        armor=0,
        weapon="machinegun",
        ammo=10,
        alive=True,
    )


class TestPrediction:
    def test_predict_linear_uses_current_velocity(self):
        prediction = predict_linear(snap(x=10.0, vx=100.0, frame=5))
        assert prediction.origin == Vec3(10, 0, 0)
        assert prediction.velocity == Vec3(100, 0, 0)
        assert prediction.frame == 5

    def test_predict_linear_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            predict_linear(snap(), horizon_frames=0)

    def test_position_at_start_frame(self):
        prediction = predict_linear(snap(x=10.0, vx=100.0, frame=5))
        assert prediction.position_at(5) == Vec3(10, 0, 0)

    def test_position_extrapolates(self):
        prediction = predict_linear(snap(x=0.0, vx=100.0, frame=0))
        # 10 frames at 50 ms = 0.5 s at 100 u/s = 50 u.
        assert prediction.position_at(10).x == pytest.approx(50.0)

    def test_position_clamped_at_horizon(self):
        prediction = predict_linear(snap(vx=100.0), horizon_frames=10)
        at_horizon = prediction.position_at(10)
        past_horizon = prediction.position_at(50)
        assert at_horizon == past_horizon

    def test_position_before_prediction_is_origin(self):
        prediction = predict_linear(snap(x=7.0, vx=100.0, frame=10))
        assert prediction.position_at(3) == Vec3(7, 0, 0)


class TestSimulateGuidance:
    def test_per_frame_samples(self):
        prediction = predict_linear(snap(vx=100.0))
        track = simulate_guidance(prediction, 0, 10)
        assert len(track) == 11
        assert track[0] == Vec3(0, 0, 0)

    def test_bad_range_rejected(self):
        prediction = predict_linear(snap())
        with pytest.raises(ValueError):
            simulate_guidance(prediction, 10, 5)


class TestDeviationArea:
    def test_identical_trajectories_zero(self):
        track = [Vec3(i, 0, 0) for i in range(10)]
        assert trajectory_deviation_area(track, list(track)) == 0.0

    def test_constant_offset(self):
        a = [Vec3(i, 0, 0) for i in range(11)]
        b = [Vec3(i, 10, 0) for i in range(11)]
        # 10 u of gap over 10 frames of 50 ms = 10 * 0.5 = 5 u·s.
        assert trajectory_deviation_area(a, b) == pytest.approx(5.0)

    def test_growing_gap_trapezoid(self):
        a = [Vec3(0, 0, 0), Vec3(0, 0, 0)]
        b = [Vec3(0, 0, 0), Vec3(0, 10, 0)]
        assert trajectory_deviation_area(a, b) == pytest.approx(0.25)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            trajectory_deviation_area([Vec3()], [Vec3(), Vec3()])

    def test_single_point_zero(self):
        assert trajectory_deviation_area([Vec3()], [Vec3(5, 0, 0)]) == 0.0

    def test_symmetry(self):
        a = [Vec3(i, 0, 0) for i in range(8)]
        b = [Vec3(i, i * 2.0, 0) for i in range(8)]
        assert trajectory_deviation_area(a, b) == pytest.approx(
            trajectory_deviation_area(b, a)
        )
