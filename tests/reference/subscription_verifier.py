"""The per-pair subscription verifier — the fast verifier's exactness gate.

The bodies of ``SubscriptionVerifier.verify_vision_subscription`` /
``verify_interest_subscription`` as they stood before PR 15 hoisted them
onto one :class:`~repro.game.interest.ObserverFrame` per call, kept
verbatim: every cone test and every attention score goes through a
per-candidate call that rebuilds the subscriber's eye and aim, rewound
targets are ``dataclasses.replace`` copies, and the IS check runs the VS
check through its public method.  The cone and attention helpers are the
naive ``_reference`` ones, so this file shares no arithmetic with the
kernels it gates.

One rule changed since, in both verifiers at once: the proxy judges the
subscriber's latest pose instead of looking up a pose near the planning
frame.  The pose's ``age`` is the frames from it to the request, 0 for a
request stamped before it and at most 4 (the occlusion freshness bound,
by which the turn allowance spans the whole circle).  The cone's angular
excess subtracts what the engine can turn in ``age`` frames
(``MAX_TURN_RATE * FRAME_SECONDS * age``, the aim check's bound), and the
verdict's confidence is discounted by ``staleness_discount(age)``, as the
guidance and kill checks discount theirs.  Without it an honest player
mid-turn was convicted against a pose two frames old.

``tests/test_core_verification_fast.py`` asserts the shipped verifier
returns the same :class:`CheatRating`, field for field, and leaves the
same escalation history.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace

from repro.core.config import FRAME_SECONDS, MAX_TURN_RATE
from repro.core.verification import (
    MAX_RATING,
    MIN_RATING,
    CheatRating,
    CheckKind,
    Confidence,
    rating_from_deviation,
)
from repro.game.avatar import AvatarSnapshot
from repro.game.gamemap import GameMap, eye_position
from repro.game.interest import InterestConfig
from repro.game.vector import Vec3

from tests.reference.game import (
    _attention_score_reference as attention_score,
    _in_vision_cone_reference as in_vision_cone,
)

__all__ = ["ReferenceSubscriptionVerifier"]


class ReferenceSubscriptionVerifier:
    """Proxy-side check that a client's subscriptions are justified.

    "A VS subscription is only valid if q is in p's vision cone.  For
    incorrect VS subscriptions, the distance between q and p's vision cone
    is used as a metric ... For IS-subscriptions, a proxy computes interest
    with sufficient accuracy based on the attention metric."
    """

    def __init__(
        self,
        game_map: GameMap,
        interest: InterestConfig,
        repeat_window_frames: int = 200,
        repeat_step: float = 1.5,
    ) -> None:
        self.game_map = game_map
        self.interest = interest
        # Honest "ghost" subscriptions (planned on stale target info) are
        # sporadic and self-correcting; a maphack consumer re-subscribes to
        # invisible targets *persistently*.  Repetition escalates the
        # rating — "repetitions" are their own cheat signature (Table I).
        self.repeat_window_frames = repeat_window_frames
        self.repeat_step = repeat_step
        self._suspicious_frames: dict[int, list[int]] = {}

    def verify_vision_subscription(
        self,
        verifier_id: int,
        frame: int,
        subscriber: AvatarSnapshot,
        target: AvatarSnapshot,
        confidence: float,
        slack_frames: int = 8,
    ) -> CheatRating:
        """Rate a VS subscription; slack_frames forgives subscription latency."""
        age = min(max(0, frame - subscriber.frame), 4)
        if in_vision_cone(subscriber, target, self.interest):
            rating, deviation, detail = MIN_RATING, 0.0, "target inside cone"
            # Maphack signature: inside the cone but behind a wall — "the
            # avatars that are in a player's vision range, but behind a
            # wall do not appear in his vision set".  Occlusion flips with
            # small movements, so only fresh views are judged.
            staleness = max(
                0, frame - subscriber.frame, frame - target.frame
            )
            if staleness <= 4 and self._solidly_occluded(subscriber, target):
                deviation = 0.3 * subscriber.position.distance_to(
                    target.position
                )
                allowed = 320.0 * 0.05 * slack_frames
                rating = rating_from_deviation(deviation, allowed)
                rating = self._escalate(subscriber.player_id, frame, rating)
                detail = "target inside cone but occluded"
        else:
            # The subscriber may have planned on a position-update-old view
            # of the target (up to ~1 s).  Rewind the target along its
            # velocity and take the most charitable reading: an honest
            # subscription matches some recent target position, a bogus one
            # (never-visible target) matches none.
            deviation = self._cone_deviation(subscriber, target, age)
            for rewind_frames in (10, 20):
                rewound = dataclass_replace(
                    target,
                    position=target.position
                    - target.velocity * (0.05 * rewind_frames),
                )
                if in_vision_cone(
                    subscriber, rewound, self.interest
                ) and self.game_map.line_of_sight(
                    eye_position(subscriber.position),
                    eye_position(rewound.position),
                ):
                    deviation = 0.0
                    break
                deviation = min(
                    deviation, self._cone_deviation(subscriber, rewound, age)
                )
            # Allow the target to be a few frames of movement outside the
            # cone: subscriptions are predicted/retained, not instantaneous.
            allowed = 320.0 * 0.05 * slack_frames + 0.15 * self.interest.vision_radius
            rating = rating_from_deviation(deviation, allowed)
            rating = self._escalate(subscriber.player_id, frame, rating)
            detail = f"target {deviation:.0f}u outside cone"
        return CheatRating(
            verifier_id=verifier_id,
            subject_id=subscriber.player_id,
            frame=frame,
            check=CheckKind.VS_SUBSCRIPTION,
            rating=rating,
            confidence=confidence * Confidence.staleness_discount(age),
            deviation=deviation,
            detail=detail,
        )

    def verify_interest_subscription(
        self,
        verifier_id: int,
        frame: int,
        subscriber: AvatarSnapshot,
        target: AvatarSnapshot,
        known: dict[int, AvatarSnapshot],
        confidence: float,
    ) -> CheatRating:
        """Rate an IS subscription by the target's attention rank."""
        vision_rating = self.verify_vision_subscription(
            verifier_id, frame, subscriber, target, confidence
        )
        confidence = vision_rating.confidence
        if vision_rating.rating > MIN_RATING:
            # Not even visible: inherit the cone deviation but tag as IS.
            # (Escalation already applied inside the vision check.)
            return CheatRating(
                verifier_id=verifier_id,
                subject_id=subscriber.player_id,
                frame=frame,
                check=CheckKind.IS_SUBSCRIPTION,
                rating=vision_rating.rating,
                confidence=confidence,
                deviation=vision_rating.deviation,
                detail="IS target outside vision cone",
            )
        target_score = attention_score(subscriber, target, frame, self.interest)
        rank = 1
        for other_id, other in known.items():
            if other_id in (subscriber.player_id, target.player_id):
                continue
            if not other.alive or not in_vision_cone(subscriber, other, self.interest):
                continue
            if (
                attention_score(subscriber, other, frame, self.interest)
                > target_score
            ):
                rank += 1
        allowed_rank = self.interest.interest_size * 2  # generous: local views differ
        rating = rating_from_deviation(float(rank), float(allowed_rank))
        rating = self._escalate(subscriber.player_id, frame, rating)
        return CheatRating(
            verifier_id=verifier_id,
            subject_id=subscriber.player_id,
            frame=frame,
            check=CheckKind.IS_SUBSCRIPTION,
            rating=rating,
            confidence=confidence,
            deviation=float(rank),
            detail=f"target attention rank {rank} (IS size {self.interest.interest_size})",
        )

    def _escalate(self, subscriber_id: int, frame: int, rating: float) -> float:
        """Raise the rating with each recent suspicious subscription."""
        if rating <= 2.0:
            return rating
        history = self._suspicious_frames.setdefault(subscriber_id, [])
        cutoff = frame - self.repeat_window_frames
        history[:] = [f for f in history if f >= cutoff]
        repeats = len(history)
        history.append(frame)
        # The first couple of suspicious subscriptions are within honest
        # ghosting rates; escalation starts from the third in the window.
        return min(MAX_RATING, rating + self.repeat_step * max(0, repeats - 1))

    def _solidly_occluded(
        self, subscriber: AvatarSnapshot, target: AvatarSnapshot
    ) -> bool:
        """Blocked along the direct line *and* laterally offset lines.

        Verifier views lag the subscriber's by a frame or two; near wall
        edges that flips single-ray visibility and would convict honest
        subscriptions.  A maphack target sits deep behind geometry, where
        every sampled ray is blocked.
        """
        eye_a = eye_position(subscriber.position)
        eye_b = eye_position(target.position)
        direction = (eye_b - eye_a).with_z(0.0).normalized()
        perp = Vec3(-direction.y, direction.x, 0.0) * 40.0
        samples = (
            (eye_a, eye_b),
            (eye_a + perp, eye_b + perp),
            (eye_a - perp, eye_b - perp),
        )
        return all(
            not self.game_map.line_of_sight(a, b) for a, b in samples
        )

    def _cone_deviation(
        self, subscriber: AvatarSnapshot, target: AvatarSnapshot, age: int
    ) -> float:
        """Distance-like metric from the target to the subscriber's cone."""
        offset = target.position - subscriber.position
        distance = offset.length()
        radial_excess = max(0.0, distance - self.interest.vision_radius)
        aim = Vec3.from_yaw(subscriber.yaw)
        angle_excess = max(
            0.0,
            aim.angle_to(offset)
            - self.interest.effective_half_angle
            - MAX_TURN_RATE * FRAME_SECONDS * age,
        )
        # Arc-length conversion puts the angular excess in world units.
        return radial_excess + angle_excess * min(
            distance, self.interest.vision_radius
        )
