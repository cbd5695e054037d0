"""The per-update pose verifiers as they stood before their allowances were
memoised per frame gap and an in-allowance deviation short-cut the rating.

``ReferencePositionVerifier`` / ``ReferenceAimVerifier`` keep
:class:`~repro.core.verification.PositionVerifier` /
:class:`~repro.core.verification.AimVerifier`'s ``observe`` verbatim but
for one call: the envelope excess comes from ``tests/reference/game.py``'s
``displacement_excess_reference``, which asks the ``Physics`` bound methods
(the config re-read on every call), so no per-frame unit is shared with
the verifiers they gate.
``tests/test_core_verification_fast.py`` holds the two pairs to the same
verdicts, field for field.
"""

from __future__ import annotations

import math

from repro.core.config import (
    AIM_MAX_GAP_FRAMES,
    AIM_TOLERANCE,
    FRAME_SECONDS,
    MAX_TURN_RATE,
    POSITION_MAX_GAP_FRAMES,
    POSITION_SLACK_FLOOR,
    POSITION_TOLERANCE,
)
from repro.core.verification import CheatRating, CheckKind, rating_from_deviation
from repro.game.avatar import AvatarSnapshot
from repro.game.physics import Physics

from tests.reference.game import displacement_excess_reference

__all__ = ["ReferencePositionVerifier", "ReferenceAimVerifier"]


class ReferencePositionVerifier:
    def __init__(self, physics: Physics) -> None:
        self.physics = physics
        self._last_seen: dict[int, AvatarSnapshot] = {}

    def observe(
        self,
        verifier_id: int,
        snapshot: AvatarSnapshot,
        confidence: float,
    ) -> CheatRating | None:
        """Feed one received update; returns a rating once history exists."""
        subject = snapshot.player_id
        previous = self._last_seen.get(subject)
        self._last_seen[subject] = snapshot
        if previous is None or snapshot.frame <= previous.frame:
            return None
        frames = snapshot.frame - previous.frame
        # Respawns teleport avatars legitimately; skip the death transition.
        if not previous.alive or not snapshot.alive:
            return None
        # Very old history cannot distinguish a hidden death/respawn pair
        # from a teleport hack; abstain rather than guess (low-staleness
        # evidence would get near-zero confidence anyway).
        if frames > POSITION_MAX_GAP_FRAMES:
            return None
        physics = self.physics
        excess = displacement_excess_reference(
            physics, previous.position, snapshot.position, frames
        )
        # Slack absorbs frame-phase and quantization noise so honest
        # movement never rates above 1 (the FP ≤ 5 % operating point).
        slack = physics.max_horizontal_travel(frames) * (POSITION_TOLERANCE - 1.0)
        allowed = max(POSITION_SLACK_FLOOR, slack)
        return CheatRating(  # positionally: built once per delivered update
            verifier_id, subject, snapshot.frame, CheckKind.POSITION,
            rating_from_deviation(excess, allowed), confidence, excess,
            f"envelope excess {excess:.0f}u over {frames} frame(s)",
        )


class ReferenceAimVerifier:
    def __init__(self) -> None:
        self._last_seen: dict[int, AvatarSnapshot] = {}

    def observe(
        self,
        verifier_id: int,
        snapshot: AvatarSnapshot,
        confidence: float,
    ) -> CheatRating | None:
        subject = snapshot.player_id
        previous = self._last_seen.get(subject)
        self._last_seen[subject] = snapshot
        if previous is None or snapshot.frame <= previous.frame:
            return None
        frames = snapshot.frame - previous.frame
        if frames > AIM_MAX_GAP_FRAMES:
            return None
        if not previous.alive or not snapshot.alive:
            return None
        delta = abs(
            (snapshot.yaw - previous.yaw + math.pi) % (2.0 * math.pi) - math.pi
        )
        allowed = MAX_TURN_RATE * FRAME_SECONDS * frames * AIM_TOLERANCE
        return CheatRating(  # positionally: built once per delivered update
            verifier_id, subject, snapshot.frame, CheckKind.AIM,
            rating_from_deviation(delta, allowed), confidence, delta,
            f"turned {delta:.2f} rad in {frames} frame(s)",
        )
