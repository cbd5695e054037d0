"""Subscription management: the outgoing and incoming halves.

Outgoing (:class:`SubscriptionPlanner`, run by every player): classify all
known avatars into IS/VS/Others from *local* knowledge, apply the latency
optimizations of Section VI — **prediction ahead** (subscriptions for the
coming frame are computed from current angular/physical momentum and sent
early) and **subscriber retention** (a subscription stays valid for a
timeout window, so only *new* subscriptions travel) — and emit the
subscription deltas to send.

Incoming (:class:`SubscriberTable`, run by every proxy for each client):
the list of who receives which update class about the client, with expiry.
The proxy sends updates directly to these subscribers; the client himself
never learns the list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import FRAME_SECONDS, WatchmenConfig
from repro.game.avatar import AvatarSnapshot
from repro.game.gamemap import GameMap
from repro.game.interest import InteractionRecency, LosCache, compute_sets

__all__ = ["SubscriptionPlanner", "SubscriberTable", "PlannedSubscriptions"]


@dataclass(frozen=True, slots=True)
class PlannedSubscriptions:
    """The planner's output for one frame."""

    frame: int
    interest: frozenset[int]  # full desired IS
    vision: frozenset[int]  # full desired VS
    new_interest: frozenset[int]  # deltas that must be sent this frame
    new_vision: frozenset[int]


class SubscriptionPlanner:
    """One player's subscription logic over his local world view."""

    def __init__(
        self,
        player_id: int,
        game_map: GameMap,
        config: WatchmenConfig,
        recency: InteractionRecency | None = None,
        los: LosCache | None = None,
    ) -> None:
        self.player_id = player_id
        self.game_map = game_map
        self.config = config
        self.recency = recency or InteractionRecency()
        #: Optional per-frame LOS cache shared with the other planners of a
        #: session (the session clears it each frame).  Purely a speedup:
        #: results are identical with or without it.
        self.los = los
        #: where I plan from: next frame's pose under prediction ahead
        self._observer = self._predicted_self if config.predict_ahead else _current_pose
        self._active_interest: dict[int, int] = {}  # target -> expiry frame
        self._active_vision: dict[int, int] = {}

    def plan(
        self,
        frame: int,
        me: AvatarSnapshot,
        known: dict[int, AvatarSnapshot],
    ) -> PlannedSubscriptions:
        """Compute this frame's desired sets and the subscription deltas."""
        sets = compute_sets(
            self._observer(frame, me),
            known,
            self.game_map,
            frame,
            self.config.interest,
            self.recency,
            los=self.los,
        )

        retention = self.config.subscription_retention_frames
        expiry = frame + retention
        new_interest = set()
        new_vision = set()
        for target in sets.interest:
            if self._active_interest.get(target, -1) <= frame:
                new_interest.add(target)
            self._active_interest[target] = expiry
        for target in sets.vision:
            if self._active_vision.get(target, -1) <= frame:
                new_vision.add(target)
            self._active_vision[target] = expiry

        # Retention: a target that left the desired set keeps its
        # subscription until the timeout lapses (no explicit unsubscribe
        # traffic), then silently expires on the proxy side too.
        self._expire(frame)
        return PlannedSubscriptions(
            frame=frame,
            interest=sets.interest,
            vision=sets.vision,
            new_interest=frozenset(new_interest),
            new_vision=frozenset(new_vision),
        )

    def _expire(self, frame: int) -> None:
        for table in (self._active_interest, self._active_vision):
            stale = [t for t, exp in table.items() if exp <= frame]
            for target in stale:
                del table[target]

    def _predicted_self(self, frame: int, me: AvatarSnapshot) -> AvatarSnapshot:
        """Extrapolate own pose one frame ahead (prediction-ahead sending).

        "In each frame players calculate their subscriptions for the coming
        frame and send the subscriptions ahead of time ... using current
        angular and physical momentum."
        """
        dt = FRAME_SECONDS
        predicted_position = me.position + me.velocity * dt
        return AvatarSnapshot(
            player_id=me.player_id,
            frame=frame,
            position=predicted_position,
            velocity=me.velocity,
            yaw=me.yaw,
            health=me.health,
            armor=me.armor,
            weapon=me.weapon,
            ammo=me.ammo,
            alive=me.alive,
        )

    def active_interest(self) -> frozenset[int]:
        return frozenset(self._active_interest)


def _current_pose(frame: int, me: AvatarSnapshot) -> AvatarSnapshot:
    return me


@dataclass
class SubscriberTable:
    """Proxy-side subscriber lists for one client, with expiry."""

    client_id: int
    retention_frames: int
    _interest: dict[int, int] = field(default_factory=dict)  # subscriber -> expiry
    _vision: dict[int, int] = field(default_factory=dict)

    def add_interest(self, subscriber_id: int, frame: int) -> None:
        if subscriber_id == self.client_id:
            raise ValueError("a player cannot subscribe to himself")
        self._interest[subscriber_id] = frame + self.retention_frames
        # An IS subscription supersedes a VS one (IS members leave the VS).
        self._vision.pop(subscriber_id, None)

    def add_vision(self, subscriber_id: int, frame: int) -> None:
        if subscriber_id == self.client_id:
            raise ValueError("a player cannot subscribe to himself")
        if subscriber_id in self._interest:
            # Keep the stronger subscription; it will expire on its own.
            return
        self._vision[subscriber_id] = frame + self.retention_frames

    def expire(self, frame: int) -> None:
        for table in (self._interest, self._vision):
            stale = [s for s, exp in table.items() if exp <= frame]
            for subscriber in stale:
                del table[subscriber]

    def interest_subscribers(self, frame: int) -> frozenset[int]:
        return frozenset(s for s, exp in self._interest.items() if exp > frame)

    def vision_subscribers(self, frame: int) -> frozenset[int]:
        return frozenset(s for s, exp in self._vision.items() if exp > frame)

    # ---- handoff ----------------------------------------------------------

    def export_sets(self, frame: int) -> tuple[frozenset[int], frozenset[int]]:
        return self.interest_subscribers(frame), self.vision_subscribers(frame)

    def import_sets(
        self,
        interest: frozenset[int],
        vision: frozenset[int],
        frame: int,
    ) -> None:
        """Install subscriber lists received in a handoff message.

        In ascending id order: the tables are insertion-ordered and fix
        the relay order, which must not depend on how the sender happened
        to build two value-equal sets.
        """
        for subscriber in sorted(interest):
            if subscriber != self.client_id:
                self._interest[subscriber] = frame + self.retention_frames
        for subscriber in sorted(vision):
            if subscriber != self.client_id and subscriber not in self._interest:
                self._vision[subscriber] = frame + self.retention_frames
