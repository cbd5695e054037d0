"""WatchmenNode: the per-player protocol state machine.

One node plays all the roles of Figure 3 at once.  Each role's state lives
in a collaborator that decides while the node acts (docs/PROTOCOL.md §10):
the **publisher** (:mod:`repro.core.publisher` — what goes to the proxy each
frame, tier by tier), the **proxy** (:mod:`repro.core.clients` — per-client
subscriber tables and tenure records, the epoch handoff), the **roster/
liveness keeper** (:mod:`repro.core.liveness` — who is a legitimate first
hop, who still answers, where to fail over) and the Byzantine **witness**
(:mod:`repro.core.evidence`).  What stays in this class is the receive
pipeline (§9), the subscriber's view of the others and its verifiers, the
wire, the rating sink and the wiring.

Nodes never mutate each other; all communication goes through the
datagram transport, as ``bytes``: a message is framed once, where it is
signed, every receiver verifies the buffer it was handed, and a relay
sends that buffer on untouched.  Cheats plug in as a
:class:`NodeBehaviour` that may rewrite, drop, duplicate or fabricate a
node's outgoing messages — a rewritten message is a different object and
is encoded afresh, so what crosses the wire is what the cheat made.
"""

from __future__ import annotations

from collections import Counter as Tally
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Callable, Iterable, Protocol, Sequence, TypeVar

from repro.core.clients import ClientBook, ClientState
from repro.core.config import (
    ABUSE_RATING,
    BYPASS_RATING,
    BYZANTINE_QUARANTINE_STRIKES,
    CIRCUMSTANTIAL_RATING,
    CLAIM_DEFERRAL_FRAMES,
    FRAME_SECONDS,
    MAX_FAILOVER_ATTEMPTS,
    MAX_RATING,
    WatchmenConfig,
)
from repro.core.delivery import (
    ADMITTED,
    EVICTED,
    FRESH,
    QUARANTINED,
    AckLedger,
    HopLimiter,
    SequenceWindow,
)
from repro.core.evidence import FORGED, VALID, EvidenceLog
from repro.core.liveness import FirstHops
from repro.core.membership import MembershipView
from repro.core.messages import (
    ACKABLE_TYPES,
    SUB_INTEREST,
    AckMessage,
    GameMessage,
    GuidanceMessage,
    HandoffMessage,
    KillClaim,
    MisbehaviorEvidence,
    PositionUpdate,
    ProjectileSpawn,
    RemovalProposal,
    StateUpdate,
    SubscriptionRequest,
)
from repro.core.proxy import ProxySchedule
from repro.core.publisher import Publisher
from repro.core.subscriptions import SubscriptionPlanner
from repro.core.wire import FrameMemo, WireError, encode_signable, seal
from repro.core.verification import (
    AimVerifier,
    CheatRating,
    CheckKind,
    Confidence,
    GuidanceVerifier,
    KillVerifier,
    PositionVerifier,
    ProjectileTracker,
    RatingLog,
    SubscriptionVerifier,
)
from repro.crypto.signatures import HmacSigner
from repro.game.avatar import AvatarSnapshot
from repro.game.deadreckoning import predict_linear
from repro.game.gamemap import GameMap
from repro.game.interest import InteractionRecency, LosCache
from repro.game.vector import Vec3
from repro.game.weapons import WEAPONS
from repro.game.physics import Physics
from repro.obs.registry import Counter, get_registry

__all__ = ["NodeBehaviour", "HonestBehaviour", "WatchmenNode", "NodeMetrics"]


class NodeBehaviour(Protocol):
    """The cheat-injection surface: hooks on a node's externally visible acts.

    The bodies below are the honest defaults (identity hooks), inherited
    by :class:`HonestBehaviour`.  Cheats override some hooks; see
    :mod:`repro.cheats`.
    """

    def mutate_snapshot(self, frame: int, snapshot: AvatarSnapshot) -> AvatarSnapshot:
        del frame
        return snapshot

    def filter_outgoing(
        self, frame: int, message: GameMessage, destination: int
    ) -> list[tuple[GameMessage, int]]:
        del frame
        return [(message, destination)]

    def extra_messages(self, frame: int) -> list[tuple[GameMessage, int]]:
        del frame
        return []

    def observe_incoming(self, frame: int, src: int, message: GameMessage) -> None:
        del frame, src, message


class HonestBehaviour(NodeBehaviour):
    """Identity hooks: play exactly by the protocol."""


_Hook = TypeVar("_Hook", bound=Callable[..., object])


def _overridden(hook: _Hook, default: Callable[..., object]) -> _Hook | None:
    """``hook`` (a behaviour's bound hook), or None where it is ``default``,
    :class:`NodeBehaviour`'s identity version, which a node need not call."""
    return None if getattr(hook, "__func__", None) is default else hook


#: Sent peer to peer, never through a proxy: no first-hop role to triage.
_PEER_TYPES = (AckMessage, HandoffMessage, RemovalProposal, MisbehaviorEvidence)

#: Update-age histogram bounds, in frames (0 = same-frame delivery).
AGE_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0)


class _HandledCounters(dict[type, Counter]):
    """``node.handled.<type name>`` counters, registered on first delivery."""

    def __init__(self) -> None:
        self._registry = get_registry()

    def __missing__(self, kind: type) -> Counter:
        counter = self[kind] = self._registry.counter(f"node.handled.{kind.__name__}")
        return counter


@dataclass
class NodeMetrics:
    """Everything a node measures locally.

    The plain fields are the per-node read API; every observation is also
    mirrored into the :class:`MetricsRegistry` current when the node was
    built, so session totals (counters, the update-age histogram) come for
    free — and cost nothing when that registry is the disabled default.
    Observations nobody reads per node are registry instruments only.
    A verdict lives in ``ratings`` for the rest of the match: ≈ 58 B and no
    object apiece, read in place by the session report (it holds no copy).
    """

    #: received updates per (kind, age in frames)
    update_ages: Tally[tuple[str, int]] = field(default_factory=Tally)
    ratings: RatingLog = field(default_factory=RatingLog)
    signature_failures: int = 0
    replayed_messages: int = 0
    direct_update_violations: int = 0
    forwarded_messages: int = 0

    def __post_init__(self) -> None:
        registry = get_registry()
        self._ctr_signature = registry.counter("node.signature_failures")
        self._ctr_replayed = registry.counter("node.replayed_messages")
        self._ctr_direct = registry.counter("node.direct_update_violations")
        self._ctr_forwarded = registry.counter("node.forwarded_messages")
        self._hist_age = registry.histogram("node.update_age_frames", AGE_BUCKETS)
        self.ratings_emitted = registry.counter("node.ratings_emitted")
        self.ratings_suspicious = registry.counter("node.ratings_suspicious")
        self.frames_signed = registry.counter("node.frames_signed")
        self.failovers = registry.counter("node.proxy_failovers")
        self.acks_sent = registry.counter("node.acks_sent")
        self.ack_retries = registry.counter("node.ack_retries")
        self.ack_retry_exhausted = registry.counter("node.ack_retry_exhausted")
        self.liveness_defenses = registry.counter("node.liveness_defenses")
        self.equivocations = registry.counter("node.equivocations_detected")
        self.quarantines = registry.counter("node.quarantines")
        self.convictions = registry.counter("node.evidence_convictions")
        self.handled = _HandledCounters()

    # ---- recording (each mirrors into the registry) ----------------------

    def count_signature_failure(self) -> None:
        self.signature_failures += 1
        self._ctr_signature.inc()

    def count_replayed_message(self) -> None:
        self.replayed_messages += 1
        self._ctr_replayed.inc()

    def count_direct_update_violation(self) -> None:
        self.direct_update_violations += 1
        self._ctr_direct.inc()

    def count_forwarded_messages(self, count: int) -> None:
        self.forwarded_messages += count
        self._ctr_forwarded.inc(count)

    def record_age(self, kind: str, age: int) -> None:
        self.update_ages[kind, age] += 1
        self._hist_age.record(float(age))


class WatchmenNode:
    """One player's full protocol endpoint."""

    def __init__(
        self,
        player_id: int,
        roster: list[int],
        game_map: GameMap,
        config: WatchmenConfig,
        schedule: ProxySchedule,
        signer: HmacSigner,
        send_many: Callable[[int, Sequence[int], bytes], None],
        behaviour: NodeBehaviour | None = None,
        rating_sink: Callable[[CheatRating], None] | None = None,
        is_server: bool = False,
        los_cache: LosCache | None = None,
        frames: FrameMemo | None = None,
    ) -> None:
        self.player_id = player_id
        #: Hybrid-architecture servers proxy and verify but never publish
        #: an avatar of their own (Section VI "Hybrid architecture").
        self.is_server = is_server
        self.roster = sorted(roster)
        self.config = config
        self.schedule = schedule
        self.signer = signer
        self._send_many = send_many
        self.behaviour = behaviour or HonestBehaviour()
        self._rating_sink = rating_sink
        #: sink into the transport's unified drop accounting (the session
        #: points it at ``DatagramNetwork.count_protocol_drop``)
        self.protocol_drop: Callable[[str], None] = lambda cause: None
        self.metrics = NodeMetrics()
        #: what received buffers decode to (a session shares one memo
        #: between its nodes, the way it shares ``los_cache``); each frame
        #: of mine moves it on, so it holds only what is in flight
        self._frames = frames if frames is not None else FrameMemo()

        # -- the subscriber/witness: a view of the others, and its verifiers --
        physics = Physics(game_map)
        repetition = None
        if config.action_repetition:
            from repro.core.action_repetition import ActionRepetitionVerifier

            repetition = ActionRepetitionVerifier(physics)
        self.action_repetition_verifier = repetition
        self.recency = InteractionRecency()
        self.planner = SubscriptionPlanner(
            player_id, game_map, config, self.recency, los=los_cache
        )
        self.position_verifier = PositionVerifier(physics)
        self.aim_verifier = AimVerifier()
        self.guidance_verifier = GuidanceVerifier()
        self.projectiles = ProjectileTracker()
        self.kill_verifier = KillVerifier(game_map, self.projectiles)
        self.subscription_verifier = SubscriptionVerifier(game_map, config.interest)
        self.membership = MembershipView(
            list(self.roster),
            silence_threshold_frames=config.membership_silence_frames,
        )
        self.known: dict[int, AvatarSnapshot] = {}
        self.current_frame = 0
        self.current_epoch = 0
        self.current_sets = None  # latest PlannedSubscriptions
        self._sequence = 0
        #: Projectile kill claims wait a few frames before judgement so the
        #: corresponding spawn announcement can arrive (a posteriori check).
        self._deferred_claims: list[tuple[int, KillClaim, float]] = []

        # -- the profile rung, resolved here: every mechanism and role below
        # -- is built inert on the paper rung, so no call site carries a fork --
        hardened = config.profile == "hardened"
        #: ack/retry for the critical low-rate messages
        self._acks = AckLedger(ACKABLE_TYPES if hardened else ())
        #: repeat screening, always on; the hardened tier also archives the
        #: first-seen StateUpdate buffers for the equivocation cross-check
        self._window = SequenceWindow(archived=(StateUpdate,) if hardened else ())
        #: per-hop flood defense
        self._hops = HopLimiter(limited=hardened)
        #: the roles (docs/PROTOCOL.md §10): each owns its state and returns
        #: decisions; sending and rating stay here
        self.first_hops = FirstHops(
            player_id,
            schedule,
            self.membership,
            depth=MAX_FAILOVER_ATTEMPTS if hardened else 0,
            silence_frames=config.proxy_silence_threshold_frames,
        )
        self.clients = ClientBook(player_id, config.subscription_retention_frames)
        self.evidence = EvidenceLog(
            player_id, signer, config.epoch_of_frame, hardened=hardened
        )
        self.publisher = Publisher(player_id)

    @property
    def behaviour(self) -> NodeBehaviour:
        """The hooks on this node's externally visible acts."""
        return self._behaviour

    @behaviour.setter
    def behaviour(self, behaviour: NodeBehaviour) -> None:
        # Resolved here, once: a hook left at its identity default is None
        # and never called (an honest node's sends skip the filter, its
        # deliveries the observer, its own snapshot the mutator).
        self._behaviour = behaviour
        self._filter_outgoing = _overridden(
            behaviour.filter_outgoing, NodeBehaviour.filter_outgoing
        )
        self._observe_incoming = _overridden(
            behaviour.observe_incoming, NodeBehaviour.observe_incoming
        )
        self._mutate_snapshot = _overridden(
            behaviour.mutate_snapshot, NodeBehaviour.mutate_snapshot
        )

    # ------------------------------------------------------------------
    # Frame driving (called by the session)
    # ------------------------------------------------------------------

    def on_frame(self, frame: int, own_snapshot: AvatarSnapshot | None = None) -> None:
        """Run one frame of publisher + proxy duties.

        Servers (``is_server``) pass no snapshot and perform only the
        proxy/verification half.
        """
        self.current_frame = frame
        self.current_epoch = epoch = self.config.epoch_of_frame(frame)
        self._frames.advance(frame)

        if frame % self.config.proxy_period_frames == 0:
            # Agreed departures take effect at epoch boundaries ("removed
            # in the next round ... from the proxy pool").
            applied = self.membership.apply_removals(epoch)
            if applied:
                self._apply_roster_removals(applied)
            # Handoffs first so the new proxies are live for this epoch.
            if frame > 0:
                for new_proxy, handoff in self.clients.export_handoffs(
                    frame, epoch, self.first_hops
                ):
                    self._transmit(self._sequenced(handoff), (new_proxy,))
            assigned = self.schedule.clients_of(self.player_id, epoch)
            self.first_hops.open_epoch(epoch, assigned)
            self.clients.open_epoch(assigned)
            # Client records were handed off or dropped just above; the
            # subscription check's held poses of subscribers go with them.
            self.subscription_verifier.forget_observers()

        # -- proxy liveness / failover (Section VI extended; inert at depth 0) --
        if not self.is_server:
            failed_over, orphaned = self.first_hops.update(
                frame, epoch, self.roster, self.current_sets, self.known
            )
            if failed_over:
                self.metrics.failovers.inc()
                self._resubscribe(frame, epoch, targets=None)
            if orphaned:
                self._resubscribe(frame, epoch, targets=orphaned)

        # -- publisher duties (players only) -----------------------------------
        if own_snapshot is not None and not self.is_server:
            if self._mutate_snapshot is not None:
                own_snapshot = self._mutate_snapshot(frame, own_snapshot)
            self.known[self.player_id] = own_snapshot
            proxies = self.first_hops.publish_proxies(frame, epoch)
            for update in self.publisher.updates(frame, own_snapshot):
                self._route_publication(update, proxies)
            self.current_sets = plan = self.planner.plan(
                frame, own_snapshot, self.known
            )
            self._send_subscriptions(frame, proxies, plan.new_interest, plan.new_vision)
            # Queued spawns, then claims, each stamped at send time.
            for queued in self.publisher.drain_claims():
                self._route_publication(queued, proxies)

        # -- deferred projectile-kill judgements -------------------------------
        # (queued in arrival order with a fixed delay, so due-frame order)
        while self._deferred_claims and self._deferred_claims[0][0] <= frame:
            _, claim, confidence = self._deferred_claims.pop(0)
            self._judge_kill_claim_now(claim, confidence)

        # -- churn detection (heartbeats; Section VI) -------------------------
        self._propose_departures(frame, epoch)
        if not self.is_server and self.first_hops.under_challenge(frame):
            # keep heartbeating directly while the challenge window is open
            self._defend_liveness(frame)

        # -- selective-forwarding suspicion (the hardened tier's scan) ---------
        for proxy, subject, dark_for in self.evidence.scan_starvation(
            frame, epoch, self.membership, self.schedule
        ):
            self._rate_violation(
                proxy,
                CIRCUMSTANTIAL_RATING,
                f"player {subject} dark while its proxy stays live "
                "(selective forwarding?)",
                confidence=Confidence.OTHER,
                deviation=float(dark_for),
            )

        # -- proxy duties ----------------------------------------------------
        for rating in self.clients.poll_silence(
            frame, epoch, epoch * self.config.proxy_period_frames, self.first_hops
        ):
            self._emit_rating(rating)
        self.clients.expire(frame)

        # -- reliable delivery: retransmit unacked critical messages ----------
        self._drive_retries(frame)

        # -- behaviour extras (fabricated traffic from cheats) ---------------
        # Extras bypass filter_outgoing: they are already the behaviour's
        # final word (a delay cheat would otherwise re-capture them).
        for message, destination in self.behaviour.extra_messages(frame):
            self._transmit_unfiltered(message, (destination,))

    def estimate_of(self, other_id: int, frame: int) -> AvatarSnapshot | None:
        """What this node would *render* for another avatar at ``frame``.

        Games display remote avatars by dead-reckoning the freshest
        information: the last received snapshot extrapolated along its
        velocity (bounded by the guidance horizon).  The gap between this
        estimate and the avatar's true state is the paper's notion of lag
        ("the difference between the game's state at the player and the
        actual state").
        """
        snapshot = self.known.get(other_id)
        if snapshot is None or not snapshot.alive or frame <= snapshot.frame:
            return snapshot
        extrapolated = predict_linear(snapshot).position_at(frame, FRAME_SECONDS)
        return dataclass_replace(snapshot, frame=frame, position=extrapolated)

    def announce_projectile(
        self, frame: int, weapon: str, origin: Vec3, velocity: Vec3
    ) -> None:
        """Queue the announcement of a short-lived object we created."""
        self.publisher.announce_projectile(frame, weapon, origin, velocity)
        # Our own verifiers also remember our announcements (self-view).
        self.projectiles.record(self.player_id, frame, weapon, origin, velocity)

    def claim_kill(self, frame: int, victim_id: int, weapon: str, distance: float) -> None:
        """Queue a kill claim for publication this frame (from the game)."""
        self.publisher.claim_kill(frame, victim_id, weapon, distance)
        self.recency.record(self.player_id, victim_id, frame)

    def note_interaction(self, other_id: int, frame: int) -> None:
        """Record an interaction (being shot at) for the attention metric."""
        self.recency.record(self.player_id, other_id, frame)

    # ------------------------------------------------------------------
    # Failover re-subscription and reliable delivery
    # ------------------------------------------------------------------

    def _resubscribe(self, frame: int, epoch: int, targets: list[int] | None) -> None:
        """Re-send current subscriptions (all, or for specific targets)."""
        sets = self.current_sets
        if sets is None:
            return
        wanted = sets.interest | sets.vision if targets is None else set(targets)
        self._send_subscriptions(
            frame,
            self.first_hops.publish_proxies(frame, epoch),
            sets.interest & wanted,
            sets.vision & wanted,
        )

    def _drive_retries(self, frame: int) -> None:
        """Retransmit due unacked messages with capped exponential backoff."""
        for pending in self._acks.due(frame):
            if pending.exhausted:
                self.metrics.ack_retry_exhausted.inc()
                if self.evidence.withholds_acks(
                    frame,
                    pending.destination,
                    alive=not self.first_hops.seems_dead(pending.destination, frame),
                ):
                    self._rate_violation(
                        pending.destination,
                        CIRCUMSTANTIAL_RATING,
                        "retry ladder exhausted against a live "
                        "destination (ack withholding?)",
                        confidence=Confidence.OTHER,
                        deviation=float(pending.attempt),
                    )
                continue  # give up; the destination is gone or the path is cut
            message = pending.message
            destination = self.first_hops.retry_destination(
                message, pending.destination, self.current_epoch, frame
            )
            if destination == self.player_id:
                # The walk re-aimed a stage-2 subscription relay or a
                # handoff at the live stand-in, and that is me: run its
                # handler here, once — nobody is left to ack it.
                if isinstance(message, HandoffMessage):
                    self._on_handoff(message)
                elif isinstance(message, SubscriptionRequest):
                    self._on_subscription(self.player_id, message, first_hop=False)
                continue
            # Re-file under the (possibly re-routed) key *before* sending,
            # so the send sees it tracked and keeps the attempt count.
            self._acks.refile(pending, destination, frame)
            self.metrics.ack_retries.inc()
            self._transmit_unfiltered(message, (destination,), pending.buffer)

    def _send_ack(self, src: int, message: GameMessage) -> None:
        """Receipt for an ackable message, back to the sending hop."""
        ack = AckMessage(
            sender_id=self.player_id,
            frame=self.current_frame,
            sequence=self._next_sequence(),
            acked_sender_id=message.sender_id,
            acked_sequence=message.sequence,
        )
        self.metrics.acks_sent.inc()
        self._transmit(ack, (src,))

    def _on_ack(self, src: int, ack: AckMessage) -> None:
        self._acks.settle(src, ack)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def _route_publication(self, message: GameMessage, proxies: list[int]) -> None:
        """First hop of Figure 3: everything goes through the proxy.

        The publisher's message gets its sequence number here, as it is
        routed to ``proxies`` — the scheduled one, preceded during a
        failover by the live candidate (receivers dedup by sequence).
        """
        self._transmit(self._sequenced(message), proxies)

    def _send_subscriptions(
        self,
        frame: int,
        proxies: list[int],
        interest: Iterable[int],
        vision: Iterable[int],
    ) -> None:
        for request in self.publisher.subscriptions(frame, interest, vision):
            self._route_publication(request, proxies)

    # ------------------------------------------------------------------
    # Proxy duties
    # ------------------------------------------------------------------

    def _apply_roster_removals(self, removed: set[int]) -> None:
        """Swap to the reduced schedule every honest node derives alike."""
        self.roster = [p for p in self.roster if p not in removed]
        self.first_hops.reschedule(self.schedule.without_players(removed))
        self.schedule = self.first_hops.schedule
        self.clients.drop(removed)
        for player in removed:
            self.known.pop(player, None)

    def _propose_departures(self, frame: int, epoch: int) -> None:
        """Broadcast signed removal proposals for long-silent players."""
        for subject in self.membership.silent_players(frame, self.player_id):
            if not self.membership.should_propose(subject):
                continue
            self.membership.note_own_proposal(subject)
            proposal = RemovalProposal(
                sender_id=self.player_id,
                subject_id=subject,
                frame=frame,
                sequence=self._next_sequence(),
            )
            # Count our own vote, then broadcast to the current roster —
            # *including* the subject: the signed accusation doubles as a
            # liveness challenge a live player answers (and a dead one
            # cannot), so correlated first-hop loss alone can't evict.
            self.membership.record_proposal(self.player_id, subject, frame, epoch)
            self._broadcast(proposal)

    # repro-mc: commutes[membership] -- record_proposal is a set-insert
    # keyed by (proposer, subject); every delivery in one frame sees the
    # same frame/epoch, so the quorum trip point and the scheduled
    # removal epoch are order-independent within a flush (cross-frame
    # races are the defer decisions the model checker keeps exploring)
    def _on_removal_proposal(self, message: RemovalProposal) -> None:
        if message.subject_id == self.player_id:
            # The roster suspects *me*.  My heartbeats all route through
            # one proxy, so a lossy or dead first hop silences me to
            # everyone at once; answer the challenge with direct bursts
            # that bypass it, for a full removal-delay window (rescind on
            # hearing clears the suspicion wherever a burst lands).
            self.first_hops.challenged(
                self.current_frame + self.config.proxy_period_frames
            )
            self._defend_liveness(self.current_frame)
            return
        self.membership.record_proposal(
            message.sender_id,
            message.subject_id,
            self.current_frame,
            self.current_epoch,
        )

    def _defend_liveness(self, frame: int) -> None:
        """One direct heartbeat burst to the whole roster, rate-limited."""
        snapshot = self.known.get(self.player_id)
        if snapshot is None or self.is_server:
            return
        if not self.first_hops.defense_due(frame):
            return
        self.metrics.liveness_defenses.inc()
        # Skip destinations that treat my traffic as first-hop and re-forward
        # it (my proxies/candidates): the forwarded copy would only repeat
        # the direct one.  They hear my first-hop publications — which
        # refresh their heartbeat — already.
        self._broadcast(
            self._sequenced(self.publisher.heartbeat(frame, snapshot)),
            skip=self.first_hops.acceptors(self.current_epoch),
        )

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def on_message(self, src: int, buffer: bytes) -> None:
        """Entry point for every delivered datagram: open it, dispatch it."""
        try:
            message, signed_end = self._frames.open_frame(buffer)
        except WireError:
            # Fails closed where it enters.  An honest hop only relays
            # what it could open itself, so whoever handed me this
            # either made it or forwarded blind.
            self.protocol_drop("malformed")
            self._rate_violation(src, MAX_RATING, "malformed frame")
            return
        self.metrics.handled[type(message)].inc()
        self._dispatch_message(src, message, buffer, signed_end)

    def _dispatch_message(
        self, src: int, message: GameMessage, buffer: bytes, signed_end: int
    ) -> None:
        """The receive pipeline; docs/PROTOCOL.md §9 tabulates the stages.

        (open frame →) hop admission → envelope (signature) → sequence
        window → ack → first-hop triage → the type's handler.  Each stage
        before the handler may drop the message.  ``message`` is what
        ``buffer`` decodes to; its signature has to cover
        ``buffer[:signed_end]``.
        """
        admission = self._hops.admit(src, self.current_frame)
        if admission is not ADMITTED:
            # Flood defense: the sending hop is over its token budget (or
            # already quarantined) — the message is dropped before any
            # signature work, which is the point: verification is the
            # cost a flooder would otherwise impose.
            if admission is QUARANTINED:
                self._note_quarantine(src)
            self.protocol_drop("quarantine")
            return
        if self._observe_incoming is not None:
            self._observe_incoming(self.current_frame, src, message)
        signed = buffer[:signed_end]
        if not self._verify_envelope(src, message, signed):
            return
        verdict = self._window.screen(message, buffer)
        if isinstance(message, self._acks.ackable):
            # Fresh or repeat alike: the receipt for a duplicate is what
            # stops a retransmitting peer resending a delivered message.
            self._send_ack(src, message)
        if verdict is not FRESH:
            self._screen_duplicate(message, buffer, signed, verdict)
            return
        # First-hop triage, once: did the origin hand me this itself, and
        # am I (recently) a proxy he may legitimately route through?
        sender = message.sender_id
        first_hop = (
            src == sender
            and not isinstance(message, _PEER_TYPES)
            and self.first_hops.accepts_first_hop_from(sender, self.current_epoch)
        )
        if isinstance(message, StateUpdate):
            self._on_state_update(src, message, first_hop)
        elif isinstance(message, GuidanceMessage):
            self._on_guidance(message, first_hop)
        elif isinstance(message, PositionUpdate):
            self._on_position_update(message, first_hop)
        elif isinstance(message, SubscriptionRequest):
            self._on_subscription(src, message, first_hop)
        elif isinstance(message, KillClaim):
            self._on_kill_claim(message, first_hop)
        elif isinstance(message, ProjectileSpawn):
            self._on_projectile_spawn(message, first_hop)
        elif isinstance(message, HandoffMessage):
            self._on_handoff(message)
        elif isinstance(message, RemovalProposal):
            self._on_removal_proposal(message)
        elif isinstance(message, MisbehaviorEvidence):
            self._on_misbehavior_evidence(message)
        elif isinstance(message, AckMessage):
            self._on_ack(src, message)

    # repro-taint: sanitizer
    def _signature_holds(self, message: GameMessage, signed: bytes) -> bool:
        """Did the named sender sign ``signed``, the bytes ``message`` was
        decoded from?  Never remembered: asked again on every delivery."""
        return message.signature is not None and self.signer.verify(
            message.sender_id, signed, message.signature
        )

    # repro-taint: sanitizer
    def _verify_envelope(self, src: int, message: GameMessage, signed: bytes) -> bool:
        """Signature screening on every received message, over ``signed``:
        the signed prefix of the buffer that was actually delivered.  A
        failure is charged to ``src``, the hop that handed it over."""
        if self._signature_holds(message, signed):
            return True
        self.metrics.count_signature_failure()
        why = self.evidence.blame_bad_signature(
            self.current_frame, src, message.sender_id
        )
        if src != message.sender_id:  # a relaying hop: tampered in flight
            self.protocol_drop("tamper")
        self._rate_violation(src, MAX_RATING, why)
        return False

    def _screen_duplicate(
        self, message: GameMessage, buffer: bytes, signed: bytes, verdict: str
    ) -> None:
        """Handle a message whose sequence was already seen (or evicted).

        A repeat is counted and never reprocessed; by itself it is no
        evidence against anyone.  Tracked repeats are first cross-checked
        against the archived original (signed ``StateUpdate``s on the
        hardened rung): same sequence but *different* signed bytes is
        cryptographic equivocation, the one duplicate that is proof of
        misbehavior rather than an artefact.
        """
        if verdict is not EVICTED:
            # An honest repeat is the same buffer again; only a differing
            # one is worth opening.  The archived copy passed the envelope
            # check when it arrived, and passes it again before it is used
            # as evidence.
            archived = self._window.first_seen(message)
            if archived is not None and archived != buffer:
                first, first_end = self._frames.open_frame(archived)
                signed_first = archived[:first_end]
                if signed_first != signed and self._signature_holds(
                    first, signed_first
                ):
                    self._on_equivocation(first, message)
                    return
        self.metrics.count_replayed_message()

    # -- the Byzantine tier (policies and record: ``self.evidence``) ----------

    def _note_quarantine(self, src: int) -> None:
        """A hop just struck out of its token bucket (``HopLimiter``)."""
        self.evidence.quarantined(self.current_frame, src)
        self.metrics.quarantines.inc()
        self._rate_violation(
            src,
            ABUSE_RATING,
            "message flood: token bucket exhausted repeatedly",
            deviation=float(BYZANTINE_QUARANTINE_STRIKES),
        )

    def _on_equivocation(self, archived: StateUpdate, conflict: StateUpdate) -> None:
        """Two validly-signed updates, same sequence, different payloads.

        This is cryptographic proof the *origin* equivocated (no relay can
        forge either signature), so the rating is maximal and the witness
        broadcasts self-certifying evidence that convicts everywhere
        without needing a removal quorum.
        """
        accused = conflict.sender_id
        self.metrics.equivocations.inc()
        first_proof = self.evidence.equivocated(self.current_frame, accused)
        self._rate_violation(
            accused,
            MAX_RATING,
            "equivocation: conflicting signed payloads for "
            f"sequence {conflict.sequence}",
        )
        if not first_proof:
            return  # evidence about him already went out
        evidence = MisbehaviorEvidence(
            sender_id=self.player_id,
            accused_id=accused,
            frame=self.current_frame,
            sequence=self._next_sequence(),
            first=archived,
            second=conflict,
        )
        self._convict_on_evidence(evidence)
        self._broadcast(evidence)

    # repro-mc: commutes[membership] -- convictions are idempotent per subject
    def _on_misbehavior_evidence(self, evidence: MisbehaviorEvidence) -> None:
        verdict = self.evidence.weigh(evidence)  # ignored on the paper rung
        if verdict is VALID:
            self._convict_on_evidence(evidence)
        elif verdict is FORGED:
            # rate the reporter, not the accused
            self._rate_violation(
                evidence.sender_id, ABUSE_RATING, "misbehavior evidence fails verification"
            )

    def _convict_on_evidence(self, evidence: MisbehaviorEvidence) -> None:
        """Schedule a quorum-free removal backed by verified evidence."""
        due_epoch = self.evidence.due_epoch(evidence)
        if self.membership.convict(evidence.accused_id, due_epoch):
            self.metrics.convictions.inc()
            self._rate_violation(
                evidence.accused_id,
                MAX_RATING,
                "verified misbehavior evidence (signed equivocation)",
            )

    # -- state updates ----------------------------------------------------

    # repro-mc: commutes[known] -- per-sender LWW merge, frame-stamp guarded
    def _on_state_update(self, src: int, update: StateUpdate, first_hop: bool) -> None:
        sender = update.sender_id
        if sender == self.player_id:
            return
        if first_hop:
            self._proxy_ingest_update(update)
        elif src == sender:
            # Direct send around the proxy: consistency-cheat attempt.
            self.metrics.count_direct_update_violation()
            self._rate_violation(sender, BYPASS_RATING, "direct state update bypassing proxy")
        else:
            self._consume_state_update(update)

    def _proxy_ingest_update(self, update: StateUpdate) -> None:
        """Proxy side: verify the client's update and fan it out."""
        sender = update.sender_id
        self.membership.heard_from(sender, self.current_frame)
        state = self.clients.state(sender)
        state.update_count += 1
        for rating in state.rate.observe(
            self.player_id, sender, update.frame, self.current_frame, Confidence.PROXY
        ):
            self._emit_rating(rating)
            state.suspicion_flags += 1
        self._verify_pose(update.snapshot, Confidence.PROXY, client=state)
        state.last_snapshot = update.snapshot
        self.known[sender] = update.snapshot
        self._relay(update, state.table.interest_subscribers(self.current_frame))

    def _consume_state_update(self, update: StateUpdate) -> None:
        """Subscriber side: measure age, refresh view, verify."""
        sender = update.sender_id
        self._refresh_view("state", sender, update.frame, update.snapshot)
        self._verify_pose(update.snapshot, self._confidence_about(sender))

    def _verify_pose(
        self,
        snapshot: AvatarSnapshot,
        confidence: float,
        *,
        aim: bool = True,
        client: ClientState | None = None,
    ) -> None:
        """The per-update verifier chain: position, aim, guidance deviation.

        One chain for both vantage points.  A proxy passes its ``client``
        record: suspicious verdicts then also count toward the client's
        handoff summary, and the action-repetition replay check (which
        needs the unbroken first-hop stream) runs when configured.
        Position-only snapshots carry no orientation, so ``aim`` is off.
        """
        me = self.player_id
        rating = self.position_verifier.observe(me, snapshot, confidence)
        if rating is not None:
            self._emit_rating(rating, client)
        if aim:
            rating = self.aim_verifier.observe(me, snapshot, confidence)
            if rating is not None:
                self._emit_rating(rating, client)
        if client is not None and self.action_repetition_verifier is not None:
            rating = self.action_repetition_verifier.observe(me, snapshot, confidence)
            if rating is not None and rating.suspicious:
                self._emit_rating(rating, client)
        rating = self.guidance_verifier.observe_position(me, snapshot, confidence)
        if rating is not None:
            self._emit_rating(rating)

    def _refresh_view(
        self, kind: str, sender: int, frame: int, snapshot: AvatarSnapshot
    ) -> None:
        """Subscriber side of every tier: heartbeat, age sample, view merge."""
        self.membership.heard_from(sender, self.current_frame)
        self.metrics.record_age(kind, max(0, self.current_frame - frame))
        self._merge_known(sender, frame, snapshot)

    def _merge_known(self, sender: int, frame: int, snapshot: AvatarSnapshot) -> None:
        """Last writer wins, by frame stamp: a late arrival never rolls a
        view back (what makes the ``known`` handlers commute)."""
        previous = self.known.get(sender)
        if previous is None or previous.frame <= frame:
            self.known[sender] = snapshot

    def _relay(self, message: GameMessage, audience: Iterable[int]) -> None:
        """Proxy fan-out: forward a client's message to ``audience``, minus
        the client himself and me."""
        sender, me = message.sender_id, self.player_id
        destinations = [d for d in audience if d != sender and d != me]
        self._transmit(message, destinations)
        self.metrics.count_forwarded_messages(len(destinations))

    def _broadcast(self, message: GameMessage, skip: Iterable[int] = ()) -> None:
        """Send directly to every current roster member but me (and ``skip``)."""
        me, roster = self.player_id, self.membership.current_roster()
        self._transmit(message, [d for d in roster if d != me and d not in skip])

    # -- guidance ------------------------------------------------------------

    # repro-mc: commutes[known] -- per-sender LWW merge, frame-stamp guarded
    def _on_guidance(self, message: GuidanceMessage, first_hop: bool) -> None:
        sender = message.sender_id
        if sender == self.player_id:
            return
        if first_hop:
            state = self.clients.state(sender)
            state.last_snapshot = message.snapshot
            self.known[sender] = message.snapshot
            self._relay(message, state.table.vision_subscribers(self.current_frame))
        else:
            self._refresh_view("guidance", sender, message.frame, message.snapshot)
        self.guidance_verifier.observe_guidance(sender, message.prediction)

    # -- infrequent position updates ---------------------------------------

    # repro-mc: commutes[known] -- per-sender LWW merge, frame-stamp guarded
    def _on_position_update(self, message: PositionUpdate, first_hop: bool) -> None:
        sender = message.sender_id
        if sender == self.player_id:
            return
        if first_hop:
            # First-hop traffic is itself a heartbeat: the forwarding
            # proxy must not keep silence evidence armed against a client
            # it is actively relaying for.
            self.membership.heard_from(sender, self.current_frame)
            self._relay(
                message,
                self.clients.others_audience(sender, self.roster, self.current_frame),
            )
            return
        snapshot = message.snapshot
        previous = self.known.get(sender)
        if previous is not None:
            # Merge: position updates carry only identity/position — keep
            # the richer fields from whatever we knew before.
            snapshot = dataclass_replace(
                previous,
                frame=message.frame,
                position=snapshot.position,
                alive=snapshot.alive,
            )
        self._refresh_view("position", sender, message.frame, snapshot)
        self._verify_pose(message.snapshot, self._confidence_about(sender), aim=False)

    # -- subscriptions ----------------------------------------------------------

    # repro-mc: commutes[table] -- expiry-refresh inserts; IS-supersedes-VS
    # resolves the same way in either order
    def _on_subscription(
        self, src: int, request: SubscriptionRequest, first_hop: bool
    ) -> None:
        sender = request.sender_id
        if request.target_id == sender:
            return
        epoch = self.current_epoch
        if src != sender:
            # Stage 2: I should be the target's proxy — record the subscriber.
            if self.first_hops.serves(request.target_id, epoch):
                self.clients.register(request, self.current_frame)
            return
        # Stage 1: I should be the sender's proxy — verify, then relay.
        if not first_hop:
            return
        self._verify_subscription(request)
        try:
            # Relay to the candidate actually serving the target.
            target_proxy = self.first_hops.live_proxy_of(
                request.target_id, epoch, self.current_frame
            )
        except KeyError:
            # Target already evicted from the roster (the game world
            # may lag membership); nothing to relay to.
            return
        if target_proxy == self.player_id:
            self.clients.register(request, self.current_frame)
        else:
            self._transmit(request, (target_proxy,))
            self.metrics.count_forwarded_messages(1)

    def _verify_subscription(self, request: SubscriptionRequest) -> None:
        # Judge against the latest pose of the subscriber; the verifier
        # widens the cone by what it can turn from that pose to the planning
        # frame and discounts the verdict by that gap.  The stamp is the
        # subscriber's own and a request is planned no later than it
        # arrives, so a later stamp is read as now.
        subscriber = self.known.get(request.sender_id)
        target = self.known.get(request.target_id)
        if subscriber is None or target is None:
            return
        frame = min(request.frame, self.current_frame)
        if request.kind == SUB_INTEREST:
            rating = self.subscription_verifier.verify_interest_subscription(
                self.player_id,
                frame,
                subscriber,
                target,
                self.known,
                Confidence.PROXY,
            )
        else:
            rating = self.subscription_verifier.verify_vision_subscription(
                self.player_id, frame, subscriber, target, Confidence.PROXY
            )
        self._emit_rating(rating)
        if rating.suspicious:
            self.clients.state(request.sender_id).suspicion_flags += 1

    # -- kill claims -------------------------------------------------------------

    def _on_kill_claim(self, claim: KillClaim, first_hop: bool) -> None:
        sender = claim.sender_id
        if first_hop:
            self._judge_kill_claim(claim, Confidence.PROXY)
            self._relay(claim, self.clients.witnesses_of(sender, self.current_frame))
        else:
            self._judge_kill_claim(claim, self._confidence_about(sender))

    def _on_projectile_spawn(self, spawn: ProjectileSpawn, first_hop: bool) -> None:
        sender = spawn.sender_id
        if sender == self.player_id:
            return
        rating = self.projectiles.verify_spawn(
            self.player_id,
            spawn.frame,
            sender,
            spawn.weapon,
            spawn.origin,
            spawn.velocity,
            self.known.get(sender),
            Confidence.PROXY if first_hop else self._confidence_about(sender),
        )
        # The proxy's verdict always goes on record; a witness reports
        # only what looks wrong.
        if first_hop or rating.suspicious:
            self._emit_rating(rating)
        if first_hop and rating.suspicious:
            self.clients.state(sender).suspicion_flags += 1
        # Recorded for later kill-claim corroboration.
        self.projectiles.record(
            sender, spawn.frame, spawn.weapon, spawn.origin, spawn.velocity
        )
        if first_hop:
            # Witnesses (the client's subscribers) also track the object.
            self._relay(spawn, self.clients.witnesses_of(sender, self.current_frame))

    def _judge_kill_claim(self, claim: KillClaim, confidence: float) -> None:
        spec = WEAPONS.get(claim.weapon)
        if spec is not None and spec.projectile_speed is not None:
            due = self.current_frame + CLAIM_DEFERRAL_FRAMES
            self._deferred_claims.append((due, claim, confidence))
            return
        self._judge_kill_claim_now(claim, confidence)

    def _judge_kill_claim_now(self, claim: KillClaim, confidence: float) -> None:
        rating = self.kill_verifier.verify(
            self.player_id,
            claim.frame,
            claim.sender_id,
            claim.weapon,
            self.known.get(claim.sender_id),
            self.known.get(claim.victim_id),
            confidence,
            has_full_object_view=self.first_hops.accepts_first_hop_from(
                claim.sender_id, self.current_epoch
            ),
        )
        self._emit_rating(rating)
        self.recency.record(claim.sender_id, claim.victim_id, claim.frame)

    # -- handoff -------------------------------------------------------------------

    # repro-mc: commutes[known, table] -- frame-guarded snapshot merge plus
    # the same expiry-refresh table inserts as _on_subscription
    def _on_handoff(self, message: HandoffMessage) -> None:
        client_id = message.player_id
        if client_id not in self.roster:
            # The client is no longer in my schedule (evicted while this
            # handoff was in flight); a straggler must not crash the node.
            return
        # The outgoing proxy — or, under failover, a stand-in candidate —
        # is a sender any node can verify against the schedule.
        if not self.first_hops.may_route(client_id, message.epoch, message.sender_id):
            self._rate_violation(
                message.sender_id, MAX_RATING, "handoff from a node that was not the proxy"
            )
            return
        if not self.first_hops.serves(client_id, self.current_epoch):
            return
        incoming = self.clients.import_handoff(message, self.current_frame)
        if incoming is not None:
            self._merge_known(client_id, incoming.frame, incoming)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _confidence_about(self, subject_id: int) -> float:
        """My vantage-point confidence about a subject (c_P>c_IS>c_VS>c_O)."""
        if self.first_hops.is_proxy_of(subject_id, self.current_epoch):
            return Confidence.PROXY
        sets = self.current_sets
        if sets is not None:
            if subject_id in sets.interest:
                return Confidence.INTEREST
            if subject_id in sets.vision:
                return Confidence.VISION
        return Confidence.OTHER

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    def _sequenced(self, message: GameMessage) -> GameMessage:
        """A role's unsequenced message, stamped as it is about to leave.

        A field-for-field copy with ``sequence`` set.  The role built (and
        its type's ``__post_init__`` checked) every other field, so this
        neither re-reads the dataclass fields nor re-runs the check, as
        ``dataclasses.replace`` would for every message sent.
        """
        stamped = object.__new__(type(message))
        for name in message.__slots__:
            object.__setattr__(stamped, name, getattr(message, name))
        object.__setattr__(stamped, "sequence", self._next_sequence())
        return stamped

    def _transmit(self, message: GameMessage, destinations: Sequence[int]) -> None:
        """Sign and send through the behaviour hooks and the transport.

        The behaviour filters destination by destination; consecutive
        outputs that are the same message object leave as one send.  With
        no filter (the honest identity) that is one send to them all.
        """
        filter_outgoing, frame = self._filter_outgoing, self.current_frame
        if filter_outgoing is None:
            self._transmit_unfiltered(message, destinations)
            return
        batch_message = message
        batch: list[int] = []
        for destination in destinations:
            for out_message, out_destination in filter_outgoing(
                frame, message, destination
            ):
                if out_message is not batch_message:
                    self._transmit_unfiltered(batch_message, batch)
                    batch_message, batch = out_message, []
                batch.append(out_destination)
        self._transmit_unfiltered(batch_message, batch)

    def _transmit_unfiltered(
        self,
        message: GameMessage,
        destinations: Sequence[int],
        buffer: bytes | None = None,
    ) -> None:
        """Sign once and send to every destination, in order, without
        re-applying the behaviour's filter.

        ``buffer`` is the frame of an earlier send of ``message`` (a
        retransmission goes out as the bytes the first attempt did).
        """
        if not destinations:
            return
        if buffer is None:
            buffer = self._signed(message)
        if isinstance(message, self._acks.ackable):
            for destination in destinations:
                self._acks.track(message, buffer, destination, self.current_frame)
        self._send_many(self.player_id, destinations, buffer)

    def _signed(self, message: GameMessage) -> bytes:
        """The frame ``message`` crosses the wire as.

        A message that already carries a signature is somebody's signed
        frame: it leaves as the buffer it arrived in (or, if a behaviour
        hook swapped the object, as whatever that object encodes to —
        which then fails verification downstream).  An unsigned one is
        mine to sign, and is framed here, once: the signed bytes plus the
        signature field *are* the frame.
        """
        if message.signature is not None:
            return self._frames.frame_of(message)
        # Sign with *our own* key: a node claiming another sender_id
        # (spoofing) produces a signature that fails verification at the
        # receiver, which is exactly how the paper defeats spoofing.
        signable = encode_signable(message)
        self.metrics.frames_signed.inc()
        return seal(signable, self.signer.sign(self.player_id, signable))

    def _emit_rating(
        self, rating: CheatRating, client: ClientState | None = None
    ) -> None:
        """File a verdict; a suspicious one about a ``client`` I proxy also
        counts toward his handoff summary."""
        metrics = self.metrics
        metrics.ratings.append(rating)
        metrics.ratings_emitted.inc()
        if rating.suspicious:
            metrics.ratings_suspicious.inc()
            if client is not None:
                client.suspicion_flags += 1
        if self._rating_sink is not None:
            self._rating_sink(rating)

    def _rate_violation(
        self,
        subject_id: int,
        rating: float,
        detail: str,
        *,
        confidence: float = Confidence.PROXY,
        deviation: float = 1.0,
    ) -> None:
        """Rate a protocol violation: not a game-state check but a breach
        of the message discipline itself (all file under ``CheckKind.RATE``,
        stamped with the current frame)."""
        self._emit_rating(
            CheatRating(
                verifier_id=self.player_id,
                subject_id=subject_id,
                frame=self.current_frame,
                check=CheckKind.RATE,
                rating=rating,
                confidence=confidence,
                deviation=deviation,
                detail=detail,
            )
        )
