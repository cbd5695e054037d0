"""The Watchmen wire-message taxonomy and its size model.

Figure 3's message flows, as Python types.  All player-originated messages
are signed (``signature`` field) and carry a per-sender sequence number, so
proxies cannot tamper, replay or spoof ("lightweight digital signatures
... also prevents replaying and spoofing").

Sizes are modelled in bits, following the paper's numbers (700-bit average
state updates, 100-bit signatures); :func:`message_size_bits` is the single
size oracle used by the bandwidth accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.core.config import (
    DELTA_BASE_BITS,
    DELTA_FIELD_BITS,
    GUIDANCE_BITS,
    HANDOFF_BITS_PER_ENTRY,
    HEADER_BITS,
    POSITION_UPDATE_BITS,
    STATE_UPDATE_BITS,
    SUBSCRIPTION_BITS,
    WatchmenConfig,
)
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
    "signable_bytes",
    "message_size_bits",
    "SUB_VISION",
    "SUB_INTEREST",
]

SUB_VISION = "VS"
SUB_INTEREST = "IS"


@dataclass(frozen=True, slots=True)
class StateUpdate:
    """Frequent full state update (every frame, to IS subscribers).

    ``delta_fields`` names the snapshot fields that changed since the
    publisher's previous update; when non-empty the wire-size model charges
    only the delta ("updates ... can be delta-coded").  An empty tuple
    means a full (keyframe) encoding.
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

    The reliable-delivery layer (``WatchmenConfig.resilient``)
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
#: the quorum).  Lint rule P205 cross-checks this registry against the
#: GameMessage union.
ACKABLE_TYPES: tuple[type, ...] = (
    SubscriptionRequest,
    KillClaim,
    RemovalProposal,
    HandoffMessage,
    MisbehaviorEvidence,
)


def signable_bytes(message: GameMessage) -> bytes:
    """A canonical byte encoding of a message (without its signature).

    Used both to sign and to verify; any field change (a tampering proxy)
    changes these bytes and invalidates the signature.  The encoding is
    the binary wire frame minus the top-level signature field — the bytes
    a node signs are literally the bytes it transmits, so there is one
    canonical form per message and nothing to re-serialize on verify.
    Nested signatures (the signed updates inside MisbehaviorEvidence)
    stay covered: the evidence's meaning is exactly "these two signed
    messages exist", so the proofs are part of the signed bytes.
    """
    # Deferred import: repro.core.wire imports this module for the
    # registry, so a top-level import would be circular.
    global _encode_signable
    if _encode_signable is None:
        from repro.core.wire import encode_signable as _encode_signable
    return _encode_signable(message)


_encode_signable = None


def message_size_bits(message: GameMessage, config: WatchmenConfig) -> int:
    """Nominal wire size of a message, per the paper's size model."""
    if isinstance(message, StateUpdate):
        if message.delta_fields:
            body = DELTA_BASE_BITS + sum(
                DELTA_FIELD_BITS.get(name, 32) for name in message.delta_fields
            )
            body = min(body, STATE_UPDATE_BITS)
        else:
            body = STATE_UPDATE_BITS
    elif isinstance(message, PositionUpdate):
        body = POSITION_UPDATE_BITS
    elif isinstance(message, GuidanceMessage):
        body = GUIDANCE_BITS
    elif isinstance(message, SubscriptionRequest):
        body = SUBSCRIPTION_BITS
    elif isinstance(message, KillClaim):
        body = SUBSCRIPTION_BITS  # comparable small claim record
    elif isinstance(message, RemovalProposal):
        body = SUBSCRIPTION_BITS  # tiny signed vote
    elif isinstance(message, AckMessage):
        body = SUBSCRIPTION_BITS  # tiny signed receipt
    elif isinstance(message, ProjectileSpawn):
        body = POSITION_UPDATE_BITS  # origin + velocity + weapon
    elif isinstance(message, MisbehaviorEvidence):
        # Two full signed updates plus a small claim record around them.
        body = 2 * (STATE_UPDATE_BITS + config.signature_bits) + SUBSCRIPTION_BITS
    elif isinstance(message, HandoffMessage):
        entries = (
            1
            + len(message.interest_subscribers)
            + len(message.vision_subscribers)
            + len(message.summaries)
        )
        body = HANDOFF_BITS_PER_ENTRY * entries
    else:
        raise TypeError(f"unknown message type {type(message).__name__}")
    signed = config.signature_bits if message.signature is not None else 0
    return HEADER_BITS + body + signed


def message_size_bytes(message: GameMessage, config: WatchmenConfig) -> int:
    """Size in whole bytes (what the transport charges)."""
    return (message_size_bits(message, config) + 7) // 8
