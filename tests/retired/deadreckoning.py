"""Whole-trajectory guidance kernels: simulate a prediction, integrate the gap.

``GuidanceVerifier`` accumulates the deviation area position by position and
never called either; they left ``repro.game.deadreckoning`` in PR 19.  The
readable versions they are bit-identical to stay in
``tests/reference/game.py``.
"""

from __future__ import annotations

import math

from repro.core.config import FRAME_SECONDS
from repro.game.deadreckoning import GuidancePrediction
from repro.game.vector import Vec3

__all__ = ["simulate_guidance", "trajectory_deviation_area"]


def simulate_guidance(
    prediction: GuidancePrediction,
    start_frame: int,
    end_frame: int,
    frame_seconds: float = FRAME_SECONDS,
) -> list[Vec3]:
    """The receiver-side simulated trajectory across [start, end] frames.

    Flat-array kernel: the prediction's origin/velocity components are
    hoisted once and each sample is built with one ``Vec3`` instead of the
    per-frame ``position_at`` dispatch (which allocates two).  Arithmetic
    mirrors :meth:`GuidancePrediction.position_at` operation-for-operation;
    bit-identical to ``simulate_guidance_reference`` in
    ``tests/reference/game.py`` (tests enforce it).
    """
    if end_frame < start_frame:
        raise ValueError("end_frame before start_frame")
    prediction_frame = prediction.frame
    horizon = prediction.horizon_frames
    origin = prediction.origin
    ox, oy, oz = origin.x, origin.y, origin.z
    velocity = prediction.velocity
    vx, vy, vz = velocity.x, velocity.y, velocity.z
    track: list[Vec3] = []
    append = track.append
    for frame in range(start_frame, end_frame + 1):
        ahead = frame - prediction_frame
        if ahead < 0:
            ahead = 0
        if ahead > horizon:
            ahead = horizon
        t = ahead * frame_seconds
        append(Vec3(ox + vx * t, oy + vy * t, oz + vz * t))
    return track


def trajectory_deviation_area(
    predicted: list[Vec3], actual: list[Vec3], frame_seconds: float = FRAME_SECONDS
) -> float:
    """Area (u·s) between predicted and actual trajectories.

    Both lists must be sampled per frame over the same frame range.  The
    area is the time integral of the point-wise distance (trapezoidal rule),
    i.e. the paper's deviation metric for guidance verification.

    Flat-array kernel: gaps are computed with inlined component arithmetic
    (no intermediate ``Vec3`` per pair) and the trapezoid accumulation
    keeps the reference's exact left-to-right expression, so the result is
    bit-identical to ``trajectory_deviation_area_reference``
    (``tests/reference/game.py``).
    """
    if len(predicted) != len(actual):
        raise ValueError("trajectories must cover the same frames")
    if len(predicted) < 2:
        return 0.0
    sqrt = math.sqrt
    gaps: list[float] = []
    append = gaps.append
    for p, a in zip(predicted, actual):
        dx = p.x - a.x
        dy = p.y - a.y
        dz = p.z - a.z
        append(sqrt(dx * dx + dy * dy + dz * dz))
    area = 0.0
    left = gaps[0]
    for index in range(1, len(gaps)):
        right = gaps[index]
        area += 0.5 * (left + right) * frame_seconds
        left = right
    return area
