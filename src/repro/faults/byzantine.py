"""Byzantine faults: designated nodes turn *adversarial*, not just dead.

PR 4's fault vocabulary stops at benign failures (crashes, partitions,
loss); this module supplies the malicious tier the paper's threat model
actually targets.  Each fault entry is frozen declarative data keyed by
a frame window, carried in :class:`~repro.faults.schedule.FaultSchedule`
(``byzantine=...``), and executed by wrapping the designated node's
:class:`~repro.core.node.NodeBehaviour` — the same injection surface the
cheat layer uses, so tapes, chaos runs and the model checker all inherit
the adversary through the one session construction path.  An empty
``byzantine`` tuple wraps nothing: runs stay bit-identical to a session
with no injector at all.

The attacks:

- :class:`EquivocationFault` — the sender signs *conflicting* state
  updates under one ``(sender_id, sequence)`` to different observers.
  Every copy verifies (the attacker owns the key); only cross-checking
  payload digests across routes can catch it.
- :class:`TamperFault` — a relaying proxy mutates payload fields of
  updates it forwards while keeping the original signature, which
  breaks verification at every receiver.
- :class:`SelectiveForwardFault` — a proxy silently drops traffic for
  victim destinations while behaving normally otherwise (it still acks
  its publisher, who therefore never retries).
- :class:`FloodFault` — a burst of perfectly well-formed, signed,
  fresh-sequence messages at a multiple of the per-link frame budget.
- :class:`AckWithholdFault` — a receiver processes messages but never
  acks them, silently starving the sender's bounded retry ladder.

The config-gated defenses live in ``core/node.py`` / ``core/membership.py``
(``WatchmenConfig(profile="hardened")``); docs/ROBUSTNESS.md maps
each attack to its detection, response and SLO.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.core.node import NodeBehaviour, WatchmenNode
    from repro.game.avatar import AvatarSnapshot

from repro.core.messages import (
    AckMessage,
    GameMessage,
    PositionUpdate,
    StateUpdate,
)
from repro.game.vector import Vec3

__all__ = [
    "EquivocationFault",
    "TamperFault",
    "SelectiveForwardFault",
    "FloodFault",
    "AckWithholdFault",
    "ByzantineFault",
    "ByzantineBehaviour",
]


def _check_window(start_frame: int, end_frame: int) -> None:
    if start_frame < 0 or end_frame <= start_frame:
        raise ValueError("byzantine window must be non-empty and non-negative")


@dataclass(frozen=True, slots=True)
class EquivocationFault:
    """``node_id`` sends conflicting same-sequence updates to observers.

    The true update goes to the proxy as usual; every other roster
    member receives a correctly signed *variant* with the same sequence
    but a displaced payload.  Whoever sees both copies holds
    self-certifying proof of misbehavior — two validly signed payloads
    under one ``(sender, sequence)``.
    """

    node_id: int
    start_frame: int
    end_frame: int
    #: payload divergence between the two signed stories, in world units
    offset: float = 25.0

    def __post_init__(self) -> None:
        _check_window(self.start_frame, self.end_frame)
        if self.offset <= 0:
            raise ValueError("equivocation offset must be positive")


@dataclass(frozen=True, slots=True)
class TamperFault:
    """``node_id`` mutates relayed state updates, breaking their signature."""

    node_id: int
    start_frame: int
    end_frame: int

    def __post_init__(self) -> None:
        _check_window(self.start_frame, self.end_frame)


@dataclass(frozen=True, slots=True)
class SelectiveForwardFault:
    """``node_id`` drops relayed traffic destined to ``victims``."""

    node_id: int
    victims: frozenset[int]
    start_frame: int
    end_frame: int

    def __post_init__(self) -> None:
        _check_window(self.start_frame, self.end_frame)
        if not self.victims:
            raise ValueError("selective forwarding needs at least one victim")
        if self.node_id in self.victims:
            raise ValueError("a node cannot selectively forward to itself")


@dataclass(frozen=True, slots=True)
class FloodFault:
    """``node_id`` bursts well-formed messages at ``victims`` every frame.

    ``msgs_per_frame`` is the per-victim burst — point it above the
    hardened receivers' token-bucket refill
    (:data:`repro.core.config.BYZANTINE_RATE_MSGS_PER_FRAME`) to model
    an N× budget flood.
    """

    node_id: int
    victims: frozenset[int]
    start_frame: int
    end_frame: int
    msgs_per_frame: int = 64

    def __post_init__(self) -> None:
        _check_window(self.start_frame, self.end_frame)
        if not self.victims:
            raise ValueError("a flood needs at least one victim")
        if self.node_id in self.victims:
            raise ValueError("a node cannot flood itself")
        if self.msgs_per_frame < 1:
            raise ValueError("msgs_per_frame must be at least 1")


@dataclass(frozen=True, slots=True)
class AckWithholdFault:
    """``node_id`` processes ackable messages but never acknowledges them."""

    node_id: int
    start_frame: int
    end_frame: int

    def __post_init__(self) -> None:
        _check_window(self.start_frame, self.end_frame)


ByzantineFault = (
    EquivocationFault
    | TamperFault
    | SelectiveForwardFault
    | FloodFault
    | AckWithholdFault
)


class ByzantineBehaviour:
    """Behaviour wrapper that executes a node's Byzantine fault entries.

    Wraps the node's intended behaviour (honest or a cheat) and applies
    each active fault to the traffic passing through the behaviour
    hooks.  The session calls :meth:`bind` after constructing the node: floods
    need the node's sequence counter (fresh monotonic sequences keep the
    burst *well-formed* — the attack is volume, not malformation) and
    the equivocation variants need the roster.
    """

    def __init__(
        self,
        inner: "NodeBehaviour",
        faults: tuple[ByzantineFault, ...],
    ) -> None:
        self.inner = inner
        self.faults = faults
        self._node: "WatchmenNode | None" = None

    def bind(self, node: "WatchmenNode") -> None:
        """Late-bind the wrapped node (sequence lane, roster, snapshots)."""
        self._node = node

    def _active(self, kind: type, frame: int) -> Iterator[ByzantineFault]:
        for fault in self.faults:
            if (
                isinstance(fault, kind)
                and fault.start_frame <= frame < fault.end_frame
            ):
                yield fault

    # ---- NodeBehaviour hooks ---------------------------------------------

    def mutate_snapshot(
        self, frame: int, snapshot: "AvatarSnapshot"
    ) -> "AvatarSnapshot":
        return self.inner.mutate_snapshot(frame, snapshot)

    def filter_outgoing(
        self, frame: int, message: GameMessage, destination: int
    ) -> list[tuple[GameMessage, int]]:
        outgoing = self.inner.filter_outgoing(frame, message, destination)
        node = self._node
        result: list[tuple[GameMessage, int]] = []
        for msg, dest in outgoing:
            own = node is not None and msg.sender_id == node.player_id
            dropped = False
            if not own:
                # Relayed traffic: the proxy-side attacks apply.
                for fault in self._active(SelectiveForwardFault, frame):
                    if dest in fault.victims:
                        dropped = True
                        break
                if dropped:
                    continue
                if isinstance(msg, StateUpdate) and msg.signature is not None:
                    for _ in self._active(TamperFault, frame):
                        # Nudge the relayed pose while keeping the original
                        # signature: the forgery is detectable (signature
                        # breaks) but must be *attributed* to this hop, not
                        # to the framed signer.
                        msg = dataclass_replace(
                            msg,
                            snapshot=dataclass_replace(
                                msg.snapshot,
                                health=max(1, msg.snapshot.health - 1),
                            ),
                        )
                        break
            else:
                if isinstance(msg, AckMessage):
                    if any(True for _ in self._active(AckWithholdFault, frame)):
                        continue
                if (
                    isinstance(msg, StateUpdate)
                    and msg.signature is None
                    and node is not None
                ):
                    for fault in self._active(EquivocationFault, frame):
                        result.append((msg, dest))
                        dropped = True  # original already appended
                        lie = dataclass_replace(
                            msg,
                            snapshot=dataclass_replace(
                                msg.snapshot,
                                position=msg.snapshot.position
                                + Vec3(fault.offset, 0.0, 0.0),
                            ),
                        )
                        # The conflicting story goes everywhere the proxy
                        # is not: each copy is signed with our *real* key
                        # on transmit, so every observer accepts it and
                        # only a cross-route digest check can object.
                        for observer in node.roster:
                            if observer not in (node.player_id, dest):
                                result.append((lie, observer))
                        break
            if not dropped:
                result.append((msg, dest))
        return result

    def observe_incoming(self, frame: int, src: int, message: GameMessage) -> None:
        self.inner.observe_incoming(frame, src, message)

    def extra_messages(self, frame: int) -> list[tuple[GameMessage, int]]:
        extras = list(self.inner.extra_messages(frame))
        node = self._node
        if node is None:
            return extras
        for fault in self._active(FloodFault, frame):
            snapshot = node.known.get(node.player_id)
            if snapshot is None:
                continue
            for victim in sorted(fault.victims):
                for _ in range(fault.msgs_per_frame):
                    extras.append(
                        (
                            PositionUpdate(
                                sender_id=node.player_id,
                                frame=frame,
                                sequence=node._next_sequence(),
                                snapshot=snapshot.position_only(),
                            ),
                            victim,
                        )
                    )
        return extras
