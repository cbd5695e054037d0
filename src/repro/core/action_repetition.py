"""Action-repetition verification: re-simulate the claimed move.

Section V-A: "For efficiency reasons, we perform sanity checks to detect
cheating.  However, action repetition checks (e.g., tamper-resistant
logging mechanisms) that would provide more accuracy but incur higher
costs are also possible."

This module is that higher-accuracy option: instead of bounding a
displacement with the physics *envelope*, the verifier **replays** the
frame — it searches over the space of legal player intents (movement
directions, speeds, jumping) and runs each through the exact same
:class:`~repro.game.physics.Physics` stepper the game uses.  The
deviation is the distance between the claimed end position and the
closest legally reachable one, so even sub-envelope cheats (e.g. a 1.2×
speed multiplier that hides inside the sanity check's tolerance) are
exposed.

Cost: ~``directions × speeds × jump`` physics steps per verified frame —
an order of magnitude above the sanity check, exactly the trade-off the
paper describes.  It is therefore off by default and enabled per-node via
``WatchmenConfig(action_repetition=True)``.
"""

from __future__ import annotations

import math

from repro.core.config import REPLAY_DIRECTIONS, REPLAY_TOLERANCE
from repro.core.verification import CheatRating, CheckKind, rating_from_deviation
from repro.game.avatar import AvatarSnapshot
from repro.game.physics import MoveIntent, Physics
from repro.game.vector import Vec3

__all__ = ["ActionRepetitionVerifier"]


class ActionRepetitionVerifier:
    """Replays one-frame transitions through the real physics stepper."""

    def __init__(self, physics: Physics) -> None:
        self.physics = physics
        self._angles = [
            2.0 * math.pi * index / REPLAY_DIRECTIONS for index in range(REPLAY_DIRECTIONS)
        ]
        self._last_seen: dict[int, AvatarSnapshot] = {}
        self.replays_run = 0

    def observe(
        self,
        verifier_id: int,
        snapshot: AvatarSnapshot,
        confidence: float,
    ) -> CheatRating | None:
        """Feed a per-frame update stream; replays consecutive frames."""
        previous = self._last_seen.get(snapshot.player_id)
        self._last_seen[snapshot.player_id] = snapshot
        if previous is None or snapshot.frame != previous.frame + 1:
            return None  # replay needs exactly consecutive frames
        if not previous.alive or not snapshot.alive:
            return None
        deviation = self.reachability_gap(previous, snapshot)
        rating = rating_from_deviation(deviation, REPLAY_TOLERANCE)
        return CheatRating(
            verifier_id=verifier_id,
            subject_id=snapshot.player_id,
            frame=snapshot.frame,
            check=CheckKind.POSITION,
            rating=rating,
            confidence=confidence,
            deviation=deviation,
            detail=(
                f"action replay: closest legal move ends {deviation:.1f}u "
                f"from the claimed position"
            ),
        )

    def reachability_gap(
        self, previous: AvatarSnapshot, claimed: AvatarSnapshot
    ) -> float:
        """Distance from the claimed end to the closest reachable point."""
        best = math.inf
        offset = (claimed.position - previous.position).with_z(0.0)
        cfg = self.physics.config
        candidates: list[tuple[float, float]] = []  # (angle, speed)
        if offset.length() > 1e-6:
            # The exact intent that would produce the claimed displacement
            # on the ground — clamped by the stepper, so a speed multiplier
            # leaves precisely its excess as the gap.
            exact_speed = min(
                cfg.max_air_speed,
                offset.length() / cfg.frame_seconds,
            )
            candidates.append((offset.yaw(), exact_speed))
            candidates.append((offset.yaw(), cfg.max_ground_speed))
        for angle in self._angles:
            for speed in (0.0, cfg.max_ground_speed * 0.5, cfg.max_ground_speed):
                candidates.append((angle, speed))
        for angle, speed in candidates:
            direction = Vec3.from_yaw(angle)
            for jump in (False, True):
                intent = MoveIntent(
                    wish_direction=direction,
                    wish_speed=speed,
                    jump=jump,
                    yaw=claimed.yaw,
                )
                result = self.physics.step(
                    previous.position,
                    previous.velocity,
                    previous.yaw,
                    intent,
                )
                self.replays_run += 1
                gap = result.position.distance_to(claimed.position)
                if gap < best:
                    best = gap
                if best <= 0.5:  # early exit: clearly reachable
                    return best
        return best
