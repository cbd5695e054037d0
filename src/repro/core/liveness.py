"""First hops and liveness: who may stand between a player and the roster.

The roster/liveness-keeper role (docs/PROTOCOL.md §10): every "which node
is, or may be, the proxy here" question, answered from the shared schedule
and the heartbeat record, plus the failover and self-defense books.  It
decides; the node sends and rates.  At ``depth`` 0 (the paper's protocol)
it is inert: the scheduled proxy is the only first hop, nothing fails over.
"""

from __future__ import annotations

from typing import Container, Iterable

from repro.core.config import DEFENSE_INTERVAL_FRAMES
from repro.core.membership import MembershipView
from repro.core.messages import (
    GameMessage,
    HandoffMessage,
    KillClaim,
    SubscriptionRequest,
)
from repro.core.proxy import ProxySchedule
from repro.core.subscriptions import PlannedSubscriptions


class FirstHops:
    """The verifiable first-hop walk of every player, as seen from one node."""

    def __init__(
        self,
        player_id: int,
        schedule: ProxySchedule,
        membership: MembershipView,
        depth: int,
        silence_frames: int,
    ) -> None:
        self.player_id = player_id
        self.schedule = schedule
        self._membership = membership
        #: how far down a player's candidate walk a first hop may sit: the
        #: bounded relaxation failover buys — a route is valid iff it hits
        #: one of those nodes, all of which any verifier can recompute
        self.depth = depth
        self._silence_frames = silence_frames
        #: the proxy my publications currently route to
        self._active_proxy: int | None = None
        #: roster members currently presumed crashed (heartbeat silence)
        self._dead_suspects: frozenset[int] = frozenset()
        #: every failover performed: (frame, scheduled_proxy, replacement)
        self.failover_events: list[tuple[int, int, int]] = []
        #: (epoch, the players the schedule hands me in it): answers
        #: :meth:`is_proxy_of` once per consumed update without a lookup
        self._epoch_clients: tuple[int, frozenset[int]] = (-1, frozenset())
        #: self-defense: last frame of the challenge window, and of a burst
        self._defense_until = -1
        self._last_defense = -(10**9)

    def reschedule(self, schedule: ProxySchedule) -> None:
        """A roster removal reduced the schedule: re-point, forget my clients."""
        self.schedule = schedule
        self._epoch_clients = (-1, frozenset())

    def open_epoch(self, epoch: int, clients: Iterable[int]) -> None:
        """``clients`` is ``schedule.clients_of(me, epoch)``, drawn once."""
        self._epoch_clients = (epoch, frozenset(clients))

    # ---- liveness and failover --------------------------------------------

    def seems_dead(self, node_id: int, frame: int) -> bool:
        """Heartbeat-based crash suspicion, well before the removal quorum.

        The 1 Hz position updates double as heartbeats (Section VI); a
        roster member silent past the proxy-silence threshold is presumed
        crashed for routing purposes only — eviction still takes the quorum.
        """
        if node_id == self.player_id:
            return False
        if node_id in self._membership.removed:
            return True
        last = self._membership.last_heard_frame(node_id)
        return last is not None and frame - last > self._silence_frames

    def live_proxy_of(self, player_id: int, epoch: int, frame: int) -> int:
        """The first legitimate first hop not currently presumed dead."""
        for hop in self.schedule.first_hops(player_id, epoch, self.depth):
            if not self.seems_dead(hop, frame):
                return hop
        # every candidate suspect: fall back to the schedule
        return self.schedule.proxy_of(player_id, epoch)

    def publish_proxies(self, frame: int, epoch: int) -> list[int]:
        """Destinations for this frame's publications.

        Normally just the scheduled proxy.  During failover the live
        candidate comes first, with a concurrent copy to the scheduled
        proxy — if the suspicion was spurious the real proxy keeps
        verifying and forwarding, and if it crashed the copy merely
        evaporates, so either way no client is stranded.
        """
        scheduled = self.schedule.proxy_of(self.player_id, epoch)
        live = self.live_proxy_of(self.player_id, epoch, frame)
        return [scheduled] if live == scheduled else [live, scheduled]

    def update(
        self,
        frame: int,
        epoch: int,
        roster: list[int],
        sets: PlannedSubscriptions | None,
        known: Container[int],
    ) -> tuple[bool, list[int]]:
        """Detect newly-dead proxies: ``(failed over, targets to resubscribe)``.

        *Failed over*: my own route moved to a stand-in (a genuine
        failover, not a routine epoch rotation), so every subscription
        goes out again through it.  The *targets* are those subscriptions
        of mine whose scheduled proxy just died: the registration lived in
        its table, which the stand-in does not have yet.
        """
        if not self.depth:
            return False, []
        suspects = frozenset(
            node
            for node in roster
            if node != self.player_id and self.seems_dead(node, frame)
        )
        newly_dead = suspects - self._dead_suspects
        self._dead_suspects = suspects

        failed_over = False
        scheduled = self.schedule.proxy_of(self.player_id, epoch)
        chosen = self.live_proxy_of(self.player_id, epoch, frame)
        if chosen != self._active_proxy:
            failed_over = chosen != scheduled and self._active_proxy is not None
            self._active_proxy = chosen
            if failed_over:
                self.failover_events.append((frame, scheduled, chosen))
        orphaned: list[int] = []
        if newly_dead and sets is not None:
            orphaned = [
                target
                for target in sorted(sets.interest | sets.vision)
                if (target in known or target in roster)
                and self._scheduled_proxy_in(target, epoch, newly_dead)
            ]
        return failed_over, orphaned

    def _scheduled_proxy_in(
        self, target: int, epoch: int, suspects: frozenset[int]
    ) -> bool:
        try:
            return self.schedule.proxy_of(target, epoch) in suspects
        except KeyError:
            return False

    def retry_destination(
        self, message: GameMessage, current: int, epoch: int, frame: int
    ) -> int:
        """Re-route a retry around a proxy that died since the first send."""
        if not self.seems_dead(current, frame):
            return current
        mine = message.sender_id == self.player_id
        if isinstance(message, HandoffMessage):
            subject = message.player_id
        elif isinstance(message, SubscriptionRequest):
            # My own request goes to my live proxy; a stage-2 relay is
            # re-aimed at the target's.
            subject = self.player_id if mine else message.target_id
        elif isinstance(message, KillClaim) and mine:
            subject = self.player_id
        else:
            return current  # direct sends (proposals, witness copies): keep
        try:
            return self.live_proxy_of(subject, epoch, frame)
        except KeyError:
            return current

    # ---- answering a removal challenge -------------------------------------

    def challenged(self, until_frame: int) -> None:
        """The roster suspects *me*: defend through ``until_frame``."""
        self._defense_until = max(self._defense_until, until_frame)

    def under_challenge(self, frame: int) -> bool:
        return frame <= self._defense_until

    def defense_due(self, frame: int) -> bool:
        """Rate limit on the direct heartbeat bursts (true = one goes out)."""
        if frame - self._last_defense < DEFENSE_INTERVAL_FRAMES:
            return False
        self._last_defense = frame
        return True

    # ---- standing as somebody's first hop ---------------------------------

    def may_route(self, player_id: int, epoch: int, hop: int) -> bool:
        """Is ``hop`` a legitimate first hop for this player's epoch?  (The
        scheduled proxy always is; so are the first ``depth`` stand-ins.)"""
        return self.schedule.verify_route(player_id, epoch, hop, self.depth)

    def serves(self, player_id: int, epoch: int) -> bool:
        return self.schedule.verify_route(player_id, epoch, self.player_id, self.depth)

    def is_proxy_of(self, player_id: int, epoch: int) -> bool:
        clients_epoch, clients = self._epoch_clients
        if epoch == clients_epoch:
            return player_id in clients
        return self.schedule.verify_proxy(player_id, epoch, self.player_id)

    def accepts_first_hop_from(self, player_id: int, epoch: int) -> bool:
        """Was I this player's proxy recently enough to accept his traffic?

        Messages sent in the last frames of an epoch can arrive after the
        renewal; the outgoing proxy still accepts (and forwards) them
        instead of flagging an honest sender.
        """
        return self.serves(player_id, epoch) or (
            epoch > 0
            and self.schedule.verify_proxy(player_id, epoch - 1, self.player_id)
        )

    def acceptors(self, epoch: int) -> set[int]:
        """Nodes that accept-and-forward *my* direct traffic — the same
        rule as :meth:`accepts_first_hop_from`, recomputed sender-side."""
        try:
            acceptors = set(self.schedule.first_hops(self.player_id, epoch, self.depth))
            if epoch > 0:
                acceptors.add(self.schedule.proxy_of(self.player_id, epoch - 1))
        except KeyError:  # I am no longer in the schedule: nobody forwards for me
            return set()
        return acceptors
