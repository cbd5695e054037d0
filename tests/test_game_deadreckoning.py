"""Unit tests for dead reckoning: the linear guidance prediction."""

import pytest

from repro.game.avatar import AvatarSnapshot
from repro.game.deadreckoning import predict_linear
from repro.game.vector import Vec3


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

