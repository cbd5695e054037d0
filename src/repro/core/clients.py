"""The client book: what a node keeps for the players it proxies.

The proxy role (docs/PROTOCOL.md §10): one :class:`ClientState` per client
— subscriber table, arrival-rate monitor, last pose, tenure summary —
and the two ends of the epoch handoff.  It never sends and never rates: a
handoff comes back as a message for the node to sequence and transmit, a
silence verdict as a rating for the node to emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.config import (
    DEAD_AIR_BASE_RATING,
    DEAD_AIR_RATING_PER_FRAME,
    HANDOFF_DEPTH,
    MAX_RATING,
    SILENCE_GRACE_FRAMES,
)
from repro.core.liveness import FirstHops
from repro.core.messages import (
    SUB_INTEREST,
    HandoffMessage,
    HandoffSummary,
    SubscriptionRequest,
)
from repro.core.subscriptions import SubscriberTable
from repro.core.verification import CheatRating, CheckKind, Confidence, RateVerifier
from repro.game.avatar import AvatarSnapshot


@dataclass
class ClientState:
    """Proxy-side state for one client."""

    table: SubscriberTable
    rate: RateVerifier
    last_snapshot: AvatarSnapshot | None = None
    update_count: int = 0
    suspicion_flags: int = 0
    predecessor_summaries: tuple[HandoffSummary, ...] = ()


class ClientBook:
    """Every client this node holds state for, keyed by player id."""

    def __init__(self, player_id: int, retention_frames: int) -> None:
        self.player_id = player_id
        self._retention_frames = retention_frames
        self._clients: dict[int, ClientState] = {}

    def state(self, client_id: int) -> ClientState:
        """The client's record, opened on first use."""
        state = self._clients.get(client_id)
        if state is None:
            state = self._clients[client_id] = ClientState(
                table=SubscriberTable(
                    client_id=client_id, retention_frames=self._retention_frames
                ),
                rate=RateVerifier(),
            )
        return state

    def open_epoch(self, client_ids: Iterable[int]) -> None:
        """Open a record for every client the schedule assigns this epoch.

        The schedule is known to everyone, so a proxy watches its clients
        from the epoch's first frame — a client that never sends anything
        (escaping) is caught by the silence poll, not ignored.
        """
        for client_id in client_ids:
            if client_id != self.player_id:
                self.state(client_id)

    def drop(self, players: Iterable[int]) -> None:
        for player in players:
            self._clients.pop(player, None)

    def expire(self, frame: int) -> None:
        for state in self._clients.values():
            state.table.expire(frame)

    # ---- subscriber lists -------------------------------------------------

    def register(self, request: SubscriptionRequest, frame: int) -> None:
        table = self.state(request.target_id).table
        if request.kind == SUB_INTEREST:
            table.add_interest(request.sender_id, frame)
        else:
            table.add_vision(request.sender_id, frame)

    def subscribers_of(
        self, client_id: int, frame: int
    ) -> tuple[frozenset[int], frozenset[int]]:
        """``(IS, VS)`` subscribers on record for a client (a pure read:
        no record is opened for a stranger)."""
        state = self._clients.get(client_id)
        if state is None:
            return frozenset(), frozenset()
        return state.table.export_sets(frame)

    def witnesses_of(self, client_id: int, frame: int) -> frozenset[int]:
        """A client's IS and VS subscribers: who sees his shots land."""
        table = self.state(client_id).table
        return table.interest_subscribers(frame) | table.vision_subscribers(frame)

    def others_audience(
        self, client_id: int, roster: list[int], frame: int
    ) -> list[int]:
        """Everyone outside the client's IS/VS subscriber lists.

        "any player outside the VS and IS belongs to the others set ...
        this subscription type is assigned by default".
        """
        subscribed = self.witnesses_of(client_id, frame)
        return [player for player in roster if player not in subscribed]

    # ---- handoff ----------------------------------------------------------

    def export_handoffs(
        self, frame: int, new_epoch: int, hops: FirstHops
    ) -> Iterator[tuple[int, HandoffMessage]]:
        """End of tenure: ``(next proxy, unsequenced handoff)`` per client."""
        ending = new_epoch - 1
        for client_id in list(self._clients):
            # Hand off to the candidate that will actually serve the client
            # next epoch (under failover the scheduled one may be dead).
            new_proxy = hops.live_proxy_of(client_id, new_epoch, frame)
            if new_proxy == self.player_id:
                continue  # re-elected; keep serving
            state = self._clients.pop(client_id)
            # A verifiable stand-in that actually served the client during
            # the ending epoch hands off like a real proxy.
            if not hops.is_proxy_of(client_id, ending) and not (
                state.update_count > 0 and hops.serves(client_id, ending)
            ):
                # Ghost entry from grace-period traffic; only the real
                # outgoing proxy performs the handoff.
                continue
            interest, vision = state.table.export_sets(frame)
            mine = HandoffSummary(
                player_id=client_id,
                epoch=ending,
                proxy_id=self.player_id,
                last_snapshot=state.last_snapshot,
                update_count=state.update_count,
                suspicion_flags=state.suspicion_flags,
            )
            yield new_proxy, HandoffMessage(
                sender_id=self.player_id,
                player_id=client_id,
                epoch=ending,
                sequence=0,  # assigned at send time
                interest_subscribers=interest,
                vision_subscribers=vision,
                summaries=(mine,)
                + state.predecessor_summaries[: HANDOFF_DEPTH - 1],
            )

    def import_handoff(
        self, message: HandoffMessage, frame: int
    ) -> AvatarSnapshot | None:
        """Start of tenure: install a verified handoff; returns the
        predecessor's last snapshot of the client, if it carried one."""
        state = self.state(message.player_id)
        state.table.import_sets(
            message.interest_subscribers, message.vision_subscribers, frame
        )
        state.predecessor_summaries = message.summaries
        if message.summaries and message.summaries[0].last_snapshot is not None:
            state.last_snapshot = message.summaries[0].last_snapshot
            return state.last_snapshot
        return None

    # ---- silence ----------------------------------------------------------

    def poll_silence(
        self, frame: int, epoch: int, epoch_start: int, hops: FirstHops
    ) -> Iterator[CheatRating]:
        """This frame's silence verdicts on the clients I am proxy of."""
        for client_id, state in self._clients.items():
            if not hops.is_proxy_of(client_id, epoch):
                continue  # grace-period ghost; the new proxy watches now
            rating = state.rate.check_silence(
                self.player_id,
                client_id,
                frame,
                Confidence.PROXY,
                not_before_frame=epoch_start,
            )
            silent_for = frame - epoch_start
            if (
                rating is None
                and silent_for > SILENCE_GRACE_FRAMES
                and state.rate.last_arrival_wallclock(client_id) is None
            ):
                # Dead air since we took over: a client that sent nothing
                # at all this tenure is escaping (or unreachable).
                climb = DEAD_AIR_RATING_PER_FRAME * (silent_for - SILENCE_GRACE_FRAMES)
                rating = CheatRating(
                    verifier_id=self.player_id,
                    subject_id=client_id,
                    frame=frame,
                    check=CheckKind.RATE,
                    rating=min(MAX_RATING, DEAD_AIR_BASE_RATING + climb),
                    confidence=Confidence.PROXY,
                    deviation=float(silent_for),
                    detail=f"no traffic at all for {silent_for} frames (escaping?)",
                )
            if rating is not None:
                state.suspicion_flags += 1
                yield rating
