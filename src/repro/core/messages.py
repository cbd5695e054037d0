"""The Watchmen wire-message taxonomy.

Figure 3's message flows, as Python types.  All player-originated messages
are signed (``signature`` field) and carry a per-sender sequence number, so
proxies cannot tamper, replay or spoof ("lightweight digital signatures
... also prevents replaying and spoofing").  What a message costs on the
wire is the length of its frame (:mod:`repro.core.wire`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.core.membership import RemovalProposal
from repro.crypto.signatures import Signature
from repro.game.avatar import AvatarSnapshot
from repro.game.deadreckoning import GuidancePrediction
from repro.game.vector import Vec3

__all__ = [
    "ProjectileSpawn",
    "RemovalProposal",
    "StateUpdate",
    "PositionUpdate",
    "GuidanceMessage",
    "SubscriptionRequest",
    "KillClaim",
    "HandoffSummary",
    "HandoffMessage",
    "AckMessage",
    "MisbehaviorEvidence",
    "GameMessage",
    "ACKABLE_TYPES",
    "SUB_VISION",
    "SUB_INTEREST",
]

SUB_VISION = "VS"
SUB_INTEREST = "IS"


@dataclass(frozen=True, slots=True)
class StateUpdate:
    """Frequent full state update (every frame, to IS subscribers).

    ``delta_fields`` names the snapshot fields that changed since the
    publisher's previous update ("updates ... can be delta-coded"); an
    empty tuple marks a full (keyframe) encoding.
    """

    sender_id: int
    frame: int
    sequence: int
    snapshot: AvatarSnapshot
    delta_fields: tuple[str, ...] = ()
    signature: Signature | None = None


@dataclass(frozen=True, slots=True)
class PositionUpdate:
    """Infrequent position-only update (1 Hz, to the Others set)."""

    sender_id: int
    frame: int
    sequence: int
    snapshot: AvatarSnapshot  # position_only() form
    signature: Signature | None = None


@dataclass(frozen=True, slots=True)
class GuidanceMessage:
    """Dead-reckoning guidance (1 Hz, to VS subscribers)."""

    sender_id: int
    frame: int
    sequence: int
    snapshot: AvatarSnapshot
    prediction: GuidancePrediction
    signature: Signature | None = None


@dataclass(frozen=True, slots=True)
class SubscriptionRequest:
    """p subscribes to target (VS or IS class) — routed p → proxy(p) → proxy(target).

    The target itself never sees who subscribed ("players are not informed
    about subscriptions to them").
    """

    sender_id: int
    target_id: int
    kind: str  # SUB_VISION or SUB_INTEREST
    frame: int
    sequence: int
    signature: Signature | None = None

    def __post_init__(self) -> None:
        if self.kind not in (SUB_VISION, SUB_INTEREST):
            raise ValueError(f"unknown subscription kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class KillClaim:
    """An interaction claim: sender asserts he killed/hit the victim."""

    sender_id: int
    victim_id: int
    frame: int
    sequence: int
    weapon: str
    claimed_distance: float
    signature: Signature | None = None


@dataclass(frozen=True, slots=True)
class ProjectileSpawn:
    """Announcement of a short-lived object the player created.

    "Players are in charge of the short-lived objects they create, in
    addition to their avatars.  Hence, such objects are checked by proxies
    and other players as well."  A projectile kill claim must reference a
    previously announced spawn whose trajectory actually reaches the
    victim ("checking that ... a rocket was effectively fired").
    """

    sender_id: int
    frame: int
    sequence: int
    weapon: str
    origin: "Vec3"
    velocity: "Vec3"
    signature: Signature | None = None


@dataclass(frozen=True, slots=True)
class HandoffSummary:
    """One proxy's summary of its client's state over its tenure."""

    player_id: int
    epoch: int
    proxy_id: int
    last_snapshot: AvatarSnapshot | None
    update_count: int
    suspicion_flags: int  # count of suspicious ratings the proxy issued


@dataclass(frozen=True, slots=True)
class HandoffMessage:
    """Old proxy → new proxy at epoch boundaries.

    Carries the subscriber lists (so dissemination continues seamlessly)
    plus state summaries of up to ``HANDOFF_DEPTH`` previous tenures
    ("a proxy also embeds the summary it has received from its
    predecessor").
    """

    sender_id: int  # the outgoing proxy
    player_id: int  # whose traffic is being handed off
    epoch: int  # the epoch that is ending
    sequence: int
    interest_subscribers: frozenset[int]
    vision_subscribers: frozenset[int]
    summaries: tuple[HandoffSummary, ...] = field(default_factory=tuple)
    signature: Signature | None = None


@dataclass(frozen=True, slots=True)
class AckMessage:
    """Hop-by-hop receipt for a critical low-rate message.

    The reliable-delivery layer (the ``hardened`` rung)
    retransmits an ackable message with capped exponential backoff until
    the receiving hop acks ``(acked_sender_id, acked_sequence)``.  State
    updates stay fire-and-forget per the paper; only the messages in
    :data:`ACKABLE_TYPES` are covered.  Acks are themselves never acked.
    """

    sender_id: int
    frame: int
    sequence: int
    acked_sender_id: int
    acked_sequence: int
    signature: Signature | None = None


@dataclass(frozen=True, slots=True)
class MisbehaviorEvidence:
    """Self-certifying proof that ``accused_id`` equivocated.

    Carries *both* conflicting updates — each validly signed by the
    accused, same sequence, differing payloads.  Under signature
    unforgeability nobody can fabricate this about an honest player
    (honest senders never reuse a sequence for different payloads;
    retransmissions reuse the identical signed bytes), so one verified
    evidence message convicts on its own: receivers re-verify both inner
    signatures and need no quorum of accusers.
    """

    sender_id: int  # the witness reporting the conflict
    accused_id: int
    frame: int
    sequence: int
    first: StateUpdate
    second: StateUpdate
    signature: Signature | None = None


GameMessage = Union[
    StateUpdate,
    PositionUpdate,
    GuidanceMessage,
    SubscriptionRequest,
    KillClaim,
    ProjectileSpawn,
    HandoffMessage,
    RemovalProposal,
    AckMessage,
    MisbehaviorEvidence,
]

#: The critical low-rate messages covered by the ack/retry layer: losing
#: one silently degrades the protocol (a missed subscription black-holes a
#: view; a missed handoff strands a client; a missed removal vote stalls
#: the quorum).  Every entry is a GameMessage member, and ``AckMessage`` is
#: never one: an ackable ack would be acked in turn, forever.
ACKABLE_TYPES: tuple[type, ...] = (
    SubscriptionRequest,
    KillClaim,
    RemovalProposal,
    HandoffMessage,
    MisbehaviorEvidence,
)
