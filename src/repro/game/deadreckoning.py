"""Dead reckoning: motion prediction and guidance-message contents.

"Dead reckoning is the process of predicting the state of an avatar based
on past observations" — players in somebody's VS receive one *guidance*
message per second carrying the avatar's current state plus a short-horizon
prediction of its trajectory; the receiver simulates the avatar along that
prediction until the next guidance arrives.

Verifiers later compare the predicted trajectory to what actually happened
("we use the area between the simulated and the actual trajectory of the
avatar as a metric of the deviation") —
:class:`repro.core.verification.GuidanceVerifier` accumulates that area as
positions arrive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import FRAME_SECONDS, FRAMES_PER_SECOND
from repro.game.avatar import AvatarSnapshot
from repro.game.vector import Vec3

__all__ = [
    "GuidancePrediction",
    "predict_linear",
]


@dataclass(frozen=True, slots=True)
class GuidancePrediction:
    """The predictive payload of a guidance (dead-reckoning) message."""

    frame: int  # frame the prediction was made at
    origin: Vec3  # position at that frame
    velocity: Vec3  # predicted constant velocity
    yaw: float
    horizon_frames: int  # how far ahead the prediction is meant to hold

    def position_at(self, frame: int, frame_seconds: float = FRAME_SECONDS) -> Vec3:
        """Predicted position at ``frame`` (clamped to the horizon)."""
        ahead = min(max(0, frame - self.frame), self.horizon_frames)
        return self.origin + self.velocity * (ahead * frame_seconds)


def predict_linear(
    snapshot: AvatarSnapshot, horizon_frames: int = FRAMES_PER_SECOND
) -> GuidancePrediction:
    """First-order prediction: constant current velocity.

    This matches the baseline predictor of the authors' dead-reckoning work
    [16]; the AI-guidance refinements proposed there are represented by the
    horizon and by the verification-side tolerance calibration.
    """
    if horizon_frames <= 0:
        raise ValueError("horizon_frames must be positive")
    return GuidancePrediction(
        frame=snapshot.frame,
        origin=snapshot.position,
        velocity=snapshot.velocity,
        yaw=snapshot.yaw,
        horizon_frames=horizon_frames,
    )
