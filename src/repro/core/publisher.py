"""The publisher: what a player says about himself, and when.

The publisher role (docs/PROTOCOL.md §10): what the next frame's
publications depend on — the last published snapshot (the delta
reference), the claims and spawns queued by the game, the player's own
upcoming movement — turned into messages in the order they go out.  Each
leaves with ``sequence=0``: the node stamps it from its one counter as it
routes it, so numbers are drawn in routing order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.core.config import (
    FRAME_SECONDS,
    FRAMES_PER_SECOND,
    FREQUENT_INTERVAL_FRAMES,
    GUIDANCE_CHECK_FRAMES,
)
from repro.core.messages import (
    SUB_INTEREST,
    SUB_VISION,
    GuidanceMessage,
    KillClaim,
    PositionUpdate,
    ProjectileSpawn,
    StateUpdate,
    SubscriptionRequest,
)
from repro.game.avatar import AvatarSnapshot, snapshot_delta_fields
from repro.game.deadreckoning import GuidancePrediction, predict_linear
from repro.game.vector import Vec3


class Publisher:
    """One player's outgoing publications, tier by tier."""

    def __init__(self, player_id: int) -> None:
        self.player_id = player_id
        #: The player's *own* upcoming movement (his input intentions),
        #: ``frame -> AvatarSnapshot | None``: guidance carries "AI guidance
        #: instructions that enable the player to simulate the avatar's
        #: near-future actions", and in trace replay a publisher's intent
        #: is his recorded future.  Set by the session.
        self.own_future: Callable[[int], AvatarSnapshot | None] | None = None
        self._last_published: AvatarSnapshot | None = None
        self._pending_kills: list[KillClaim] = []
        self._pending_projectiles: list[ProjectileSpawn] = []

    def updates(
        self, frame: int, snapshot: AvatarSnapshot
    ) -> Iterator[StateUpdate | GuidanceMessage | PositionUpdate]:
        """This frame's update tiers: the frequent one, then the 1 Hz two."""
        once_a_second = self._on_phase(frame)
        if frame % FREQUENT_INTERVAL_FRAMES == 0:
            # Delta-code against the previous update; send a keyframe once
            # per second so late receivers resynchronise.
            if self._last_published is None or once_a_second:
                delta: tuple[str, ...] = ()
            else:
                delta = tuple(
                    snapshot_delta_fields(self._last_published, snapshot)
                ) or ("yaw",)  # a heartbeat-sized minimal delta
            self._last_published = snapshot
            yield StateUpdate(
                sender_id=self.player_id,
                frame=frame,
                sequence=0,
                snapshot=snapshot,
                delta_fields=delta,
            )
        if once_a_second:
            yield GuidanceMessage(
                sender_id=self.player_id,
                frame=frame,
                sequence=0,
                snapshot=snapshot,
                prediction=self._guidance_prediction(frame, snapshot),
            )
            yield self.heartbeat(frame, snapshot)

    def _on_phase(self, frame: int) -> bool:
        """Whether ``frame`` carries this player's keyframe and 1 Hz tiers.

        Player ``p`` publishes them on every frame ``f ≡ p`` (mod
        ``FRAMES_PER_SECOND``), so the roster's 1 Hz traffic is spread over
        every frame of a second instead of landing on one, and a verifier
        can recompute the phase from the sender id.  No frame is special:
        the first publish comes at frame ``p % FRAMES_PER_SECOND``, and no
        gap, counted from the session's start, exceeds one second, the
        interval the liveness thresholds assume.  Frame 0 needs no 1 Hz
        publish of its own: every node starts knowing every frame-0 pose,
        and a publisher's first ``StateUpdate`` is a keyframe anyway.
        """
        return (frame - self.player_id) % FRAMES_PER_SECOND == 0

    def heartbeat(self, frame: int, snapshot: AvatarSnapshot) -> PositionUpdate:
        """The 1 Hz position-only tier, which doubles as the liveness beacon."""
        return PositionUpdate(
            sender_id=self.player_id,
            frame=frame,
            sequence=0,
            snapshot=snapshot.position_only(),
        )

    def _guidance_prediction(
        self, frame: int, snapshot: AvatarSnapshot
    ) -> GuidancePrediction:
        """Intent-informed dead reckoning for one's own avatar.

        When the player's upcoming inputs are known (``own_future``), the
        predicted velocity is the mean velocity over the prediction
        horizon — the paper's AI-guidance-enhanced dead reckoning [16].
        Otherwise fall back to first-order (current velocity).
        """
        horizon = FRAMES_PER_SECOND  # valid until the next 1 Hz guidance
        if self.own_future is not None:
            ahead = self.own_future(frame + GUIDANCE_CHECK_FRAMES)
            if ahead is not None and ahead.alive and snapshot.alive:
                dt = FRAME_SECONDS * GUIDANCE_CHECK_FRAMES
                return GuidancePrediction(
                    frame=frame,
                    origin=snapshot.position,
                    velocity=(ahead.position - snapshot.position) / dt,
                    yaw=snapshot.yaw,
                    horizon_frames=horizon,
                )
        return predict_linear(snapshot, horizon)

    def subscriptions(
        self, frame: int, interest: Iterable[int], vision: Iterable[int]
    ) -> Iterator[SubscriptionRequest]:
        """One request per target: the IS targets, then the VS ones."""
        for kind, targets in ((SUB_INTEREST, interest), (SUB_VISION, vision)):
            for target in sorted(targets):
                yield SubscriptionRequest(
                    sender_id=self.player_id,
                    target_id=target,
                    kind=kind,
                    frame=frame,
                    sequence=0,
                )

    # ---- interaction claims (queued by the game, published next frame) -----

    def claim_kill(self, frame: int, victim_id: int, weapon: str, distance: float) -> None:
        self._pending_kills.append(
            KillClaim(
                sender_id=self.player_id,
                victim_id=victim_id,
                frame=frame,
                sequence=0,
                weapon=weapon,
                claimed_distance=distance,
            )
        )

    def announce_projectile(
        self, frame: int, weapon: str, origin: Vec3, velocity: Vec3
    ) -> None:
        self._pending_projectiles.append(
            ProjectileSpawn(
                sender_id=self.player_id,
                frame=frame,
                sequence=0,
                weapon=weapon,
                origin=origin,
                velocity=velocity,
            )
        )

    def drain_claims(self) -> list[ProjectileSpawn | KillClaim]:
        """Everything queued, spawns before claims (a claim's verifier
        looks for the spawn it references); the queues are left empty."""
        queued: list[ProjectileSpawn | KillClaim] = [
            *self._pending_projectiles,
            *self._pending_kills,
        ]
        self._pending_projectiles.clear()
        self._pending_kills.clear()
        return queued
