"""WatchmenNode: the per-player protocol state machine.

One node plays all three roles of Figure 3 at once:

- **publisher** — each frame it pushes its (signed) state to its current
  proxy: frequent state updates every frame, guidance and position-only
  updates once per second, kill claims when its avatar scores;
- **proxy** — for each client assigned to it by the verifiable schedule it
  keeps the subscriber table, verifies the client's updates/subscriptions/
  claims (proxy-grade confidence), forwards updates to the right audience,
  and hands everything off to the next proxy at epoch boundaries;
- **subscriber/witness** — it maintains a local view of the other avatars
  from received updates, subscribes according to its interest sets, and
  verifies whatever it can see (IS/VS/other-grade confidence).

Nodes never mutate each other; all communication goes through the
datagram transport, as ``bytes``: a message is framed once, where it is
signed, every receiver verifies the buffer it was handed, and a relay
sends that buffer on untouched.  Cheats plug in as a
:class:`NodeBehaviour` that may rewrite, drop, duplicate or fabricate a
node's outgoing messages — a rewritten message is a different object and
is encoded afresh, so what crosses the wire is what the cheat made.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace as dataclass_replace
from typing import Callable, Iterable, Protocol

from repro.core.config import (
    BYZANTINE_QUARANTINE_STRIKES,
    BYZANTINE_STARVATION_FRAMES,
    DEFENSE_INTERVAL_FRAMES,
    FRAMES_PER_SECOND,
    FREQUENT_INTERVAL_FRAMES,
    GUIDANCE_CHECK_FRAMES,
    HANDOFF_DEPTH,
    MAX_FAILOVER_ATTEMPTS,
    WatchmenConfig,
)
from repro.core.delivery import (
    ADMITTED,
    DUPLICATE,
    FRESH,
    QUARANTINED,
    AckLedger,
    HopLimiter,
    SequenceWindow,
)
from repro.core.membership import MembershipView
from repro.core.messages import (
    ACKABLE_TYPES,
    SUB_INTEREST,
    SUB_VISION,
    AckMessage,
    GameMessage,
    GuidanceMessage,
    HandoffMessage,
    HandoffSummary,
    KillClaim,
    MisbehaviorEvidence,
    PositionUpdate,
    ProjectileSpawn,
    RemovalProposal,
    StateUpdate,
    SubscriptionRequest,
)
from repro.core.proxy import ProxySchedule
from repro.core.subscriptions import SubscriberTable, SubscriptionPlanner
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
    RateVerifier,
    SubscriptionVerifier,
)
from repro.crypto.signatures import HmacSigner
from repro.game.avatar import AvatarSnapshot, snapshot_delta_fields
from repro.game.deadreckoning import GuidancePrediction, predict_linear
from repro.game.gamemap import GameMap
from repro.game.interest import InteractionRecency, LosCache
from repro.game.vector import Vec3
from repro.game.weapons import WEAPONS
from repro.game.physics import Physics
from repro.obs.registry import MetricsRegistry, get_registry

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


#: Sent peer to peer, never through a proxy: no first-hop role to triage.
_PEER_TYPES = (AckMessage, HandoffMessage, RemovalProposal, MisbehaviorEvidence)

#: Update-age histogram bounds, in frames (0 = same-frame delivery).
AGE_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0)


@dataclass
class NodeMetrics:
    """Everything a node measures locally.

    The plain fields are the per-node read API; every observation is also
    mirrored into the shared :class:`MetricsRegistry` the node was built
    with, so session totals (counters, the update-age histogram) come for
    free — and cost nothing when that registry is the disabled default.
    """

    registry: InitVar[MetricsRegistry]
    update_ages: list[tuple[str, int]] = field(default_factory=list)  # (kind, frames)
    ratings: list[CheatRating] = field(default_factory=list)
    signature_failures: int = 0
    replayed_messages: int = 0
    direct_update_violations: int = 0
    forwarded_messages: int = 0

    def __post_init__(self, registry: MetricsRegistry) -> None:
        self._ctr_signature = registry.counter("node.signature_failures")
        self._ctr_replayed = registry.counter("node.replayed_messages")
        self._ctr_direct = registry.counter("node.direct_update_violations")
        self._ctr_forwarded = registry.counter("node.forwarded_messages")
        self._ctr_ratings = registry.counter("node.ratings_emitted")
        self._ctr_suspicious = registry.counter("node.ratings_suspicious")
        self._hist_age = registry.histogram("node.update_age_frames", AGE_BUCKETS)

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

    def count_forwarded_message(self) -> None:
        self.forwarded_messages += 1
        self._ctr_forwarded.inc()

    def record_age(self, kind: str, age: int) -> None:
        self.update_ages.append((kind, age))
        self._hist_age.record(float(age))

    def record_rating(self, rating: CheatRating) -> None:
        self.ratings.append(rating)
        self._ctr_ratings.inc()
        if rating.suspicious:
            self._ctr_suspicious.inc()


@dataclass
class _ClientState:
    """Proxy-side state for one client."""

    table: SubscriberTable
    rate: RateVerifier
    last_snapshot: AvatarSnapshot | None = None
    update_count: int = 0
    suspicion_flags: int = 0
    predecessor_summaries: tuple[HandoffSummary, ...] = ()
    #: Recent per-frame snapshots, so subscriptions are verified against
    #: the client's pose *when he planned them*, not his freshest one.
    history: dict[int, AvatarSnapshot] = field(default_factory=dict)

    def remember(self, snapshot: AvatarSnapshot, keep: int = 32) -> None:
        self.history[snapshot.frame] = snapshot
        if len(self.history) > keep:
            for frame in sorted(self.history)[: len(self.history) - keep]:
                del self.history[frame]

    def snapshot_near(self, frame: int, window: int = 4) -> AvatarSnapshot | None:
        """The stored snapshot closest to ``frame`` within ``window``."""
        best = None
        best_gap = window + 1
        for stored_frame, snapshot in self.history.items():
            gap = abs(stored_frame - frame)
            if gap < best_gap:
                best, best_gap = snapshot, gap
        return best


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
        send: Callable[[int, int, bytes], bool],
        behaviour: NodeBehaviour | None = None,
        rating_sink: Callable[[CheatRating], None] | None = None,
        is_server: bool = False,
        registry: MetricsRegistry | None = None,
        los_cache: LosCache | None = None,
        frames: FrameMemo | None = None,
    ) -> None:
        self.player_id = player_id
        #: Hybrid-architecture servers proxy and verify but never publish
        #: an avatar of their own (Section VI "Hybrid architecture").
        self.is_server = is_server
        self.roster = sorted(roster)
        self.game_map = game_map
        self.config = config
        self.schedule = schedule
        self.signer = signer
        self._send_raw = send
        self.behaviour: NodeBehaviour = behaviour or HonestBehaviour()
        self._rating_sink = rating_sink
        obs = registry if registry is not None else get_registry()
        self._obs = obs
        self.metrics = NodeMetrics(obs)
        self._hist_verify = obs.histogram("node.verify_seconds")
        self._hist_handle = obs.histogram("node.on_message_seconds")
        self._handled_by_type: dict[type, object] = {}
        #: what received buffers decode to (a session shares one memo
        #: between its nodes, the way it shares ``los_cache``)
        self._frames = frames if frames is not None else FrameMemo(obs)
        self._ctr_signed = obs.counter("node.frames_signed")

        physics = Physics(game_map)
        self.action_repetition_verifier = None
        if config.action_repetition:
            from repro.core.action_repetition import ActionRepetitionVerifier

            self.action_repetition_verifier = ActionRepetitionVerifier(physics)
        self.recency = InteractionRecency()
        self.planner = SubscriptionPlanner(
            player_id, game_map, config, self.recency, los=los_cache
        )
        self.position_verifier = PositionVerifier(physics)
        self.aim_verifier = AimVerifier(
            max_turn_rate=physics.config.max_turn_rate,
            frame_seconds=config.frame_seconds,
        )
        self.guidance_verifier = GuidanceVerifier(
            config.frame_seconds,
            check_horizon_frames=GUIDANCE_CHECK_FRAMES,
        )
        self.projectiles = ProjectileTracker()
        self.kill_verifier = KillVerifier(game_map, projectiles=self.projectiles)
        self.subscription_verifier = SubscriptionVerifier(game_map, config.interest)

        self.membership = MembershipView(
            list(self.roster),
            silence_threshold_frames=config.membership_silence_frames,
        )
        self.known: dict[int, AvatarSnapshot] = {}
        #: Optional oracle over the player's *own* upcoming movement
        #: (his input intentions).  The paper's guidance messages carry
        #: "AI guidance instructions that enable the player to simulate the
        #: avatar's near-future actions" — in trace replay the publisher's
        #: intent is his recorded future.  Set by the session.
        self.own_future = None  # frame -> AvatarSnapshot | None
        #: Relaxed-first-hop audience lookup ``(publisher, message) ->
        #: destinations``; set by the session (see ``_route_publication``).
        self.audience_oracle = None
        self.current_frame = 0
        self.current_epoch = 0
        self.current_sets = None  # latest PlannedSubscriptions
        self._sequence = 0
        self._clients: dict[int, _ClientState] = {}
        self._pending_kills: list[KillClaim] = []
        self._pending_projectiles: list[ProjectileSpawn] = []
        #: Projectile kill claims wait a few frames before judgement so the
        #: corresponding spawn announcement can arrive (a posteriori check).
        self._deferred_claims: list[tuple[int, KillClaim, float]] = []
        self._last_published: AvatarSnapshot | None = None

        # -- the mode gates, resolved here: each mechanism below is built
        # -- inert in the paper profile, so its call sites carry no fork ------
        #: how far down a player's verifiable candidate walk a first hop
        #: may sit: 0 (the scheduled proxy alone) in the paper's protocol
        self._failover_depth = MAX_FAILOVER_ATTEMPTS if config.resilient else 0
        #: ack/retry for the critical low-rate messages (none ackable
        #: unless ``resilient``)
        self._acks = AckLedger(ACKABLE_TYPES if config.resilient else ())
        #: replay screening, always on; under hardening it also archives
        #: the first-seen signed StateUpdate per (sender, sequence) for the
        #: equivocation detector to cross-check later copies against
        self._window = SequenceWindow(
            archived=(StateUpdate,) if config.byzantine_hardening else ()
        )
        #: per-hop flood defense (unlimited unless hardened)
        self._hops = HopLimiter(limited=config.byzantine_hardening)

        # -- robustness (``config.resilient``, default off) ------------------
        #: the proxy my publications currently route to (failover tracking)
        self._active_proxy: int | None = None
        #: every failover performed: (frame, scheduled_proxy, replacement)
        self.failover_events: list[tuple[int, int, int]] = []
        #: roster members currently presumed crashed (heartbeat silence)
        self._dead_suspects: frozenset[int] = frozenset()
        self._ctr_failovers = obs.counter("node.proxy_failovers")
        self._ctr_acks = obs.counter("node.acks_sent")
        self._ctr_retries = obs.counter("node.ack_retries")
        self._ctr_retry_exhausted = obs.counter("node.ack_retry_exhausted")

        # -- liveness self-defense (always on; silent until challenged) ----
        #: last frame a removal proposal named *this* node; defense bursts
        #: continue for a removal-delay window past it
        self._defense_until_frame: int = -1
        self._last_defense_frame: int = -(10**9)
        self._ctr_defenses = obs.counter("node.liveness_defenses")

        # -- Byzantine hardening (config-gated, default off) ----------------
        #: accused players this node already broadcast evidence about
        self._evidence_emitted: set[int] = set()
        #: (proxy, subject, epoch) starvation suspicions already rated
        self._starvation_rated: set[tuple[int, int, int]] = set()
        #: (frame, src) per quarantine imposed — the chaos harness gates
        #: ``honest_quarantines == 0`` on these
        self.quarantine_events: list[tuple[int, int]] = []
        #: (frame, accused) per cryptographically detected equivocation
        self.equivocation_events: list[tuple[int, int]] = []
        #: (frame, subject, kind) circumstantial byzantine suspicions
        #: (kind: "tamper_hop" | "starvation" | "ack_withhold")
        self.suspicion_events: list[tuple[int, int, str]] = []
        #: sink into the transport's unified drop accounting (the session
        #: points it at ``DatagramNetwork.count_protocol_drop``)
        self.protocol_drop: Callable[[str], None] = lambda cause: None
        self._ctr_equivocations = obs.counter("node.equivocations_detected")
        self._ctr_quarantines = obs.counter("node.quarantines")
        self._ctr_convictions = obs.counter("node.evidence_convictions")

    # ------------------------------------------------------------------
    # Frame driving (called by the session)
    # ------------------------------------------------------------------

    def on_frame(
        self, frame: int, own_snapshot: AvatarSnapshot | None = None
    ) -> None:
        """Run one frame of publisher + proxy duties.

        Servers (``is_server``) pass no snapshot and perform only the
        proxy/verification half.
        """
        self.current_frame = frame
        self.current_epoch = epoch = self.config.epoch_of_frame(frame)

        if frame % self.config.proxy_period_frames == 0:
            # Agreed departures take effect at epoch boundaries ("removed
            # in the next round ... from the proxy pool").
            applied = self.membership.apply_removals(epoch)
            if applied:
                self._apply_roster_removals(applied)
            # Handoffs first so the new proxies are live for this epoch.
            if frame > 0:
                self._perform_handoffs(frame, epoch)
            self._register_epoch_clients(epoch)

        # -- proxy liveness / failover (config-gated; Section VI extended) ----
        if self.config.resilient and not self.is_server:
            self._update_proxy_liveness(frame, epoch)

        # -- publisher duties (players only) -----------------------------------
        if own_snapshot is not None and not self.is_server:
            own_snapshot = self.behaviour.mutate_snapshot(frame, own_snapshot)
            self.known[self.player_id] = own_snapshot
            proxies = self._publish_proxies(frame, epoch)
            self._publish_updates(frame, own_snapshot, proxies)
            self._publish_subscriptions(frame, own_snapshot, proxies)
            self._publish_kill_claims(proxies)

        # -- deferred projectile-kill judgements -------------------------------
        # (queued in arrival order with a fixed delay, so due-frame order)
        while self._deferred_claims and self._deferred_claims[0][0] <= frame:
            _, claim, confidence = self._deferred_claims.pop(0)
            self._judge_kill_claim_now(claim, confidence)

        # -- churn detection (heartbeats; Section VI) -------------------------
        self._propose_departures(frame, epoch)
        if not self.is_server and frame <= self._defense_until_frame:
            # keep heartbeating directly while the challenge window is open
            self._defend_liveness(frame)

        # -- selective-forwarding suspicion (Byzantine hardening, gated) ------
        if self.config.byzantine_hardening:
            self._scan_starvation(frame, epoch)

        # -- proxy duties ----------------------------------------------------
        self._poll_client_silence(frame)
        for state in self._clients.values():
            state.table.expire(frame)

        # -- reliable delivery: retransmit unacked critical messages ----------
        self._drive_retries(frame)

        # -- behaviour extras (fabricated traffic from cheats) ---------------
        # Extras bypass filter_outgoing: they are already the behaviour's
        # final word (a delay cheat would otherwise re-capture them).
        for message, destination in self.behaviour.extra_messages(frame):
            self._transmit_unfiltered(message, destination)

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
        extrapolated = predict_linear(snapshot).position_at(
            frame, self.config.frame_seconds
        )
        return dataclass_replace(snapshot, frame=frame, position=extrapolated)

    def announce_projectile(
        self, frame: int, weapon: str, origin: Vec3, velocity: Vec3
    ) -> None:
        """Queue the announcement of a short-lived object we created."""
        self._pending_projectiles.append(
            ProjectileSpawn(
                sender_id=self.player_id,
                frame=frame,
                sequence=0,  # assigned at send time
                weapon=weapon,
                origin=origin,
                velocity=velocity,
            )
        )
        # Our own verifiers also remember our announcements (self-view).
        self.projectiles.record(self.player_id, frame, weapon, origin, velocity)

    def claim_kill(self, frame: int, victim_id: int, weapon: str, distance: float) -> None:
        """Queue a kill claim for publication this frame (from the game)."""
        self._pending_kills.append(
            KillClaim(
                sender_id=self.player_id,
                victim_id=victim_id,
                frame=frame,
                sequence=0,  # assigned at send time
                weapon=weapon,
                claimed_distance=distance,
            )
        )
        self.recency.record(self.player_id, victim_id, frame)

    def note_interaction(self, other_id: int, frame: int) -> None:
        """Record an interaction (being shot at) for the attention metric."""
        self.recency.record(self.player_id, other_id, frame)

    # ------------------------------------------------------------------
    # Proxy liveness & failover (graceful degradation under ``resilient``)
    # ------------------------------------------------------------------

    def _node_seems_dead(self, node_id: int, frame: int) -> bool:
        """Heartbeat-based crash suspicion, well before the removal quorum.

        The 1 Hz position updates double as heartbeats (Section VI); a
        roster member silent for ``proxy_silence_threshold_frames`` is
        presumed crashed for routing purposes only — membership eviction
        still requires the full quorum protocol.
        """
        if node_id == self.player_id:
            return False
        if node_id in self.membership.removed:
            return True
        if node_id in self.membership.exempt:
            return False
        last = self.membership.last_heard_frame(node_id)
        return (
            last is not None
            and frame - last > self.config.proxy_silence_threshold_frames
        )

    def _live_proxy_of(self, player_id: int, epoch: int, frame: int) -> int:
        """The first legitimate first hop not currently presumed dead."""
        for hop in self.schedule.first_hops(player_id, epoch, self._failover_depth):
            if not self._node_seems_dead(hop, frame):
                return hop
        # every candidate suspect: fall back to the schedule
        return self.schedule.proxy_of(player_id, epoch)

    def _publish_proxies(self, frame: int, epoch: int) -> list[int]:
        """Destinations for this frame's publications.

        Normally just the scheduled proxy.  During failover the live
        candidate comes first, with a concurrent copy to the scheduled
        proxy — if the suspicion was spurious the real proxy keeps
        verifying and forwarding, and if it crashed the copy merely
        evaporates, so either way no client is stranded.
        """
        scheduled = self.schedule.proxy_of(self.player_id, epoch)
        live = self._live_proxy_of(self.player_id, epoch, frame)
        return [scheduled] if live == scheduled else [live, scheduled]

    def _serves(self, player_id: int, epoch: int) -> bool:
        """Am I a legitimate first hop for this player's epoch?

        The scheduled proxy always is; under ``resilient`` so are the
        first ``MAX_FAILOVER_ATTEMPTS`` stand-in candidates.  This is the
        bounded relaxation failover buys: a route is valid iff it hits
        one of those nodes, all of which any verifier can recompute from
        the shared schedule.
        """
        return self.schedule.verify_route(
            player_id, epoch, self.player_id, self._failover_depth
        )

    def _update_proxy_liveness(self, frame: int, epoch: int) -> None:
        """Detect newly-dead proxies; fail over and re-subscribe."""
        suspects = frozenset(
            node
            for node in self.roster
            if node != self.player_id and self._node_seems_dead(node, frame)
        )
        newly_dead = suspects - self._dead_suspects
        self._dead_suspects = suspects

        scheduled = self.schedule.proxy_of(self.player_id, epoch)
        chosen = self._live_proxy_of(self.player_id, epoch, frame)
        if chosen != self._active_proxy:
            previous = self._active_proxy
            self._active_proxy = chosen
            if chosen != scheduled and previous is not None:
                # Genuine failover (not a routine epoch rotation): record
                # it and push our subscriptions through the new route.
                self.failover_events.append((frame, scheduled, chosen))
                self._ctr_failovers.inc()
                self._resubscribe(frame, epoch, targets=None)
        if newly_dead and self.current_sets is not None:
            # A *target's* proxy died: our subscription lives in its
            # table, which the stand-in candidate does not have yet.
            # Re-subscribe so the registration reaches the replacement.
            affected = [
                target
                for target in sorted(
                    self.current_sets.interest | self.current_sets.vision
                )
                if (target in self.known or target in self.roster)
                and self._scheduled_proxy_in(target, epoch, newly_dead)
            ]
            if affected:
                self._resubscribe(frame, epoch, targets=affected)

    def _scheduled_proxy_in(
        self, target: int, epoch: int, suspects: frozenset[int]
    ) -> bool:
        try:
            return self.schedule.proxy_of(target, epoch) in suspects
        except KeyError:
            return False

    def _resubscribe(
        self, frame: int, epoch: int, targets: list[int] | None
    ) -> None:
        """Re-send current subscriptions (all, or for specific targets)."""
        sets = self.current_sets
        if sets is None:
            return
        wanted = sets.interest | sets.vision if targets is None else set(targets)
        self._send_subscriptions(
            frame,
            self._publish_proxies(frame, epoch),
            sets.interest & wanted,
            sets.vision & wanted,
        )

    # ------------------------------------------------------------------
    # Reliable delivery (ack/retry for critical low-rate messages)
    # ------------------------------------------------------------------

    def _drive_retries(self, frame: int) -> None:
        """Retransmit due unacked messages with capped exponential backoff."""
        for pending in self._acks.due(frame):
            if pending.exhausted:
                self._ctr_retry_exhausted.inc()
                if self.config.byzantine_hardening and not self._node_seems_dead(
                    pending.destination, frame
                ):
                    # The whole retry ladder went unanswered while the
                    # destination kept heartbeating: it processes traffic
                    # but never acknowledges (ack withholding) — or the
                    # path is asymmetrically cut, hence the low confidence.
                    self.suspicion_events.append(
                        (frame, pending.destination, "ack_withhold")
                    )
                    self._rate_violation(
                        pending.destination,
                        6.0,
                        "retry ladder exhausted against a live "
                        "destination (ack withholding?)",
                        confidence=Confidence.OTHER,
                        deviation=float(pending.attempt),
                    )
                continue  # give up; the destination is gone or the path is cut
            destination = self._retry_destination(
                pending.message, pending.destination, frame
            )
            # Re-file under the (possibly re-routed) key *before* sending,
            # so the send sees it tracked and keeps the attempt count.
            self._acks.refile(pending, destination, frame)
            self._ctr_retries.inc()
            self._transmit_unfiltered(pending.message, destination, pending.buffer)

    def _retry_destination(
        self, message: GameMessage, current: int, frame: int
    ) -> int:
        """Re-route a retry around a proxy that died since the first send."""
        if not self._node_seems_dead(current, frame):
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
            return self._live_proxy_of(subject, self.current_epoch, frame)
        except KeyError:
            return current

    def _send_ack(self, src: int, message: GameMessage) -> None:
        """Receipt for an ackable message, back to the sending hop."""
        ack = AckMessage(
            sender_id=self.player_id,
            frame=self.current_frame,
            sequence=self._next_sequence(),
            acked_sender_id=message.sender_id,
            acked_sequence=message.sequence,
        )
        self._ctr_acks.inc()
        self._transmit(ack, src)

    def _on_ack(self, src: int, ack: AckMessage) -> None:
        self._acks.settle(src, ack)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def _publish_updates(
        self, frame: int, snapshot: AvatarSnapshot, proxies: list[int]
    ) -> None:
        if frame % FREQUENT_INTERVAL_FRAMES == 0:
            # Delta-code against the previous update; send a keyframe once
            # per second so late receivers resynchronise.
            if self._last_published is None or frame % FRAMES_PER_SECOND == 0:
                delta: tuple[str, ...] = ()
            else:
                delta = tuple(
                    snapshot_delta_fields(self._last_published, snapshot)
                ) or ("yaw",)  # a heartbeat-sized minimal delta
            update = StateUpdate(
                sender_id=self.player_id,
                frame=frame,
                sequence=self._next_sequence(),
                snapshot=snapshot,
                delta_fields=delta,
            )
            self._last_published = snapshot
            self._route_publication(update, proxies)
        if frame % FRAMES_PER_SECOND == 0:  # the 1 Hz tiers
            guidance = GuidanceMessage(
                sender_id=self.player_id,
                frame=frame,
                sequence=self._next_sequence(),
                snapshot=snapshot,
                prediction=self._guidance_prediction(frame, snapshot),
            )
            self._route_publication(guidance, proxies)
            self._route_publication(self._heartbeat(frame, snapshot), proxies)

    def _heartbeat(self, frame: int, snapshot: AvatarSnapshot) -> PositionUpdate:
        """The 1 Hz position-only tier, which doubles as the liveness beacon."""
        return PositionUpdate(
            sender_id=self.player_id,
            frame=frame,
            sequence=self._next_sequence(),
            snapshot=snapshot.position_only(),
        )

    def _guidance_prediction(self, frame: int, snapshot: AvatarSnapshot) -> GuidancePrediction:
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
                dt = self.config.frame_seconds * GUIDANCE_CHECK_FRAMES
                velocity = (ahead.position - snapshot.position) / dt
                return GuidancePrediction(
                    frame=frame,
                    origin=snapshot.position,
                    velocity=velocity,
                    yaw=snapshot.yaw,
                    horizon_frames=horizon,
                )
        return predict_linear(snapshot, horizon)

    def _route_publication(self, message: GameMessage, proxies: list[int]) -> None:
        """First hop of Figure 3: everything goes through the proxy.

        ``proxies`` normally holds just the scheduled proxy; during a
        failover it is [live candidate, scheduled proxy] (receivers dedup
        by sequence).  With ``relax_first_hop`` (Section VI, optimization
        3) updates go straight to the audience, with concurrent copies to
        the proxies for verification.  A node cannot compute locally whose
        IS/VS it is in, so that audience comes from ``audience_oracle`` —
        the session's stand-in for the proxy piggybacking its subscriber
        list back to the publisher.
        """
        if (
            self.config.relax_first_hop
            and self.audience_oracle is not None
            and not isinstance(message, SubscriptionRequest)
        ):
            for destination in self.audience_oracle(self.player_id, message):
                self._transmit(message, destination)
        for proxy in proxies:
            self._transmit(message, proxy)

    def _publish_subscriptions(
        self, frame: int, snapshot: AvatarSnapshot, proxies: list[int]
    ) -> None:
        plan = self.planner.plan(frame, snapshot, self.known)
        self.current_sets = plan
        self._send_subscriptions(frame, proxies, plan.new_interest, plan.new_vision)

    def _send_subscriptions(
        self,
        frame: int,
        proxies: list[int],
        interest: Iterable[int],
        vision: Iterable[int],
    ) -> None:
        for kind, targets in ((SUB_INTEREST, interest), (SUB_VISION, vision)):
            for target in sorted(targets):
                request = SubscriptionRequest(
                    sender_id=self.player_id,
                    target_id=target,
                    kind=kind,
                    frame=frame,
                    sequence=self._next_sequence(),
                )
                self._route_publication(request, proxies)

    def _publish_kill_claims(self, proxies: list[int]) -> None:
        """Announce queued spawns, then claims, each stamped at send time."""
        for queued in (*self._pending_projectiles, *self._pending_kills):
            self._route_publication(
                dataclass_replace(queued, sequence=self._next_sequence()), proxies
            )
        self._pending_projectiles.clear()
        self._pending_kills.clear()

    # ------------------------------------------------------------------
    # Proxy duties
    # ------------------------------------------------------------------

    def _perform_handoffs(self, frame: int, new_epoch: int) -> None:
        """End-of-tenure: ship each client's state to its next proxy."""
        for client_id in list(self._clients):
            # Hand off to the candidate that will actually serve the
            # client next epoch (under failover the scheduled one may be dead).
            new_proxy = self._live_proxy_of(client_id, new_epoch, frame)
            if new_proxy == self.player_id:
                continue  # re-elected; keep serving
            # A verifiable stand-in that actually served the client during
            # the ending epoch hands off like a real proxy.
            was_proxy = (
                self.schedule.proxy_of(client_id, new_epoch - 1) == self.player_id
            ) or (
                self._clients[client_id].update_count > 0
                and self._serves(client_id, new_epoch - 1)
            )
            if not was_proxy:
                # Ghost entry from grace-period traffic; only the real
                # outgoing proxy performs the handoff.
                del self._clients[client_id]
                continue
            state = self._clients.pop(client_id)
            interest, vision = state.table.export_sets(frame)
            my_summary = HandoffSummary(
                player_id=client_id,
                epoch=new_epoch - 1,
                proxy_id=self.player_id,
                last_snapshot=state.last_snapshot,
                update_count=state.update_count,
                suspicion_flags=state.suspicion_flags,
            )
            summaries = (my_summary,) + state.predecessor_summaries[
                : HANDOFF_DEPTH - 1
            ]
            handoff = HandoffMessage(
                sender_id=self.player_id,
                player_id=client_id,
                epoch=new_epoch - 1,
                sequence=self._next_sequence(),
                interest_subscribers=interest,
                vision_subscribers=vision,
                summaries=summaries,
            )
            self._transmit(handoff, new_proxy)

    def _register_epoch_clients(self, epoch: int) -> None:
        """Create state for every client the schedule assigns us this epoch.

        The schedule is known to everyone, so a proxy watches its clients
        from the epoch's first frame — a client that never sends anything
        (escaping) is caught by the silence poll, not ignored.
        """
        for client_id in self.schedule.clients_of(self.player_id, epoch):
            if client_id != self.player_id:
                self._client_state(client_id)

    def _apply_roster_removals(self, removed: set[int]) -> None:
        """Swap to the reduced schedule every honest node derives alike."""
        self.roster = [p for p in self.roster if p not in removed]
        self.schedule = self.schedule.without_players(removed)
        for player in removed:
            self._clients.pop(player, None)
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
            self.membership.record_proposal(
                self.player_id, subject, frame, epoch
            )
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
            self._defense_until_frame = max(
                self._defense_until_frame,
                self.current_frame + self.config.proxy_period_frames,
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
        if frame - self._last_defense_frame < DEFENSE_INTERVAL_FRAMES:
            return
        snapshot = self.known.get(self.player_id)
        if snapshot is None or self.is_server:
            return
        self._last_defense_frame = frame
        self._ctr_defenses.inc()
        # Skip destinations that treat my traffic as first-hop and re-forward
        # it (my proxies/candidates): the forwarded copy would collide with
        # the direct one and read as a replay.  They hear my first-hop
        # publications — which refresh their heartbeat — already.
        self._broadcast(
            self._heartbeat(frame, snapshot), skip=self._first_hop_acceptors(frame)
        )

    def _first_hop_acceptors(self, frame: int) -> set[int]:
        """Nodes that accept-and-forward my direct traffic (see
        ``_accepts_first_hop_from``) — recomputed sender-side from the
        same shared schedule."""
        epoch = self.current_epoch
        try:
            acceptors = set(
                self.schedule.first_hops(self.player_id, epoch, self._failover_depth)
            )
            if epoch > 0:
                acceptors.add(self.schedule.proxy_of(self.player_id, epoch - 1))
        except KeyError:  # I am no longer in the schedule: nobody forwards for me
            return set()
        return acceptors

    def _client_state(self, client_id: int) -> _ClientState:
        state = self._clients.get(client_id)
        if state is None:
            state = _ClientState(
                table=SubscriberTable(
                    client_id=client_id,
                    retention_frames=self.config.subscription_retention_frames,
                ),
                rate=RateVerifier(expected_interval_frames=FREQUENT_INTERVAL_FRAMES),
            )
            self._clients[client_id] = state
        return state

    def _poll_client_silence(self, frame: int) -> None:
        epoch_start = self.current_epoch * self.config.proxy_period_frames
        for client_id, state in self._clients.items():
            if not self._is_proxy_of(client_id):
                continue  # grace-period ghost; the new proxy watches now
            rating = state.rate.check_silence(
                self.player_id,
                client_id,
                frame,
                Confidence.PROXY,
                not_before_frame=epoch_start,
            )
            if rating is not None:
                self._emit_rating(rating)
                state.suspicion_flags += 1
            elif frame > 0 and state.rate.last_arrival_wallclock(client_id) is None:
                # Dead air since we took over: a client that sent nothing
                # at all this tenure is escaping (or unreachable).
                silent_for = frame - epoch_start
                grace = 16  # handoff + first-hop latency
                if silent_for > grace:
                    self._rate_violation(
                        client_id,
                        min(10.0, 5.0 + 0.2 * (silent_for - grace)),
                        f"no traffic at all for {silent_for} frames (escaping?)",
                        deviation=float(silent_for),
                    )
                    state.suspicion_flags += 1

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def on_message(self, src: int, buffer: bytes) -> None:
        """Entry point for every delivered datagram: open it, dispatch it."""
        with self._hist_handle.time():
            try:
                message, signed_end = self._frames.open_frame(buffer)
            except WireError:
                # Fails closed where it enters.  An honest hop only relays
                # what it could open itself, so whoever handed me this
                # either made it or forwarded blind.
                self.protocol_drop("malformed")
                self._rate_violation(src, 10.0, "malformed frame")
                return
            counter = self._handled_by_type.get(type(message))
            if counter is None:
                counter = self._obs.counter(
                    f"node.handled.{type(message).__name__}"
                )
                self._handled_by_type[type(message)] = counter
            counter.inc()
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
        # ``src == self.player_id`` is a retry looped back onto myself (see
        # ``_transmit_unfiltered``): no hop to police, nobody to receipt.
        if src != self.player_id:
            admission = self._hops.admit(src, self.current_frame)
            if admission is not ADMITTED:
                # Flood defense: the sending hop is over its token budget
                # (or already quarantined) — the message is dropped before
                # any signature work, which is the point: verification is
                # the cost a flooder would otherwise impose.
                if admission is QUARANTINED:
                    self._note_quarantine(src)
                self.protocol_drop("quarantine")
                return
        self.behaviour.observe_incoming(self.current_frame, src, message)
        signed = buffer[:signed_end]
        with self._hist_verify.time():
            accepted = self._verify_envelope(src, message, signed)
        if not accepted:
            return
        verdict = self._window.screen(message, buffer)
        if src != self.player_id and isinstance(message, self._acks.ackable):
            # Fresh or repeat alike: the receipt for a duplicate is what
            # stops a retransmitting peer resending a delivered message.
            self._send_ack(src, message)
        if verdict is not FRESH:
            self._screen_duplicate(
                message, buffer, signed, tracked=verdict is DUPLICATE
            )
            return
        # First-hop triage, once: did the origin hand me this itself, and
        # am I (recently) a proxy he may legitimately route through?
        sender = message.sender_id
        first_hop = (
            src == sender
            and not isinstance(message, _PEER_TYPES)
            and self._accepts_first_hop_from(sender)
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
        the signed prefix of the buffer that was actually delivered."""
        if self._signature_holds(message, signed):
            return True
        self.metrics.count_signature_failure()
        if self.config.byzantine_hardening and src != message.sender_id:
            # A relayed message that fails its origin signature was
            # mutated *in flight*: the origin's signing path either
            # produces valid bytes or nothing.  Blame the relaying hop,
            # not the named sender — that is exactly the tampering-proxy
            # attack the signatures exist to catch.
            self.protocol_drop("tamper")
            self.suspicion_events.append((self.current_frame, src, "tamper_hop"))
            self._rate_violation(
                src, 10.0, "relayed message fails its signature (tampering hop)"
            )
        else:
            self._rate_violation(
                message.sender_id, 10.0, "invalid or missing signature"
            )
        return False

    def _screen_duplicate(
        self, message: GameMessage, buffer: bytes, signed: bytes, *, tracked: bool
    ) -> None:
        """Handle a message whose sequence was already seen (or evicted).

        ``tracked`` duplicates are first cross-checked against the
        archived original (signed ``StateUpdate``s under hardening): same
        sequence but *different* signed bytes is cryptographic
        equivocation, the one duplicate that is proof of misbehavior
        rather than an artefact.  An evicted sequence is *always* screened
        silently — never reprocessed and never treated as cheat evidence.
        """
        if tracked:
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
        if tracked and not self.config.resilient:
            # With the robustness layer on, duplicates are an expected
            # artefact of dual-send failover, retransmissions and network
            # duplication — screened silently instead of convicting an
            # honest sender.  Without it a tracked repeat is a replay.
            self._rate_violation(
                message.sender_id, 10.0, f"replayed sequence {message.sequence}"
            )

    # -- Byzantine hardening ----------------------------------------------

    def _note_quarantine(self, src: int) -> None:
        """A hop just struck out of its token bucket (``HopLimiter``)."""
        self.quarantine_events.append((self.current_frame, src))
        self._ctr_quarantines.inc()
        self._rate_violation(
            src,
            8.0,
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
        self._ctr_equivocations.inc()
        self.equivocation_events.append((self.current_frame, accused))
        self._rate_violation(
            accused,
            10.0,
            "equivocation: conflicting signed payloads for "
            f"sequence {conflict.sequence}",
        )
        if accused in self._evidence_emitted:
            return
        self._evidence_emitted.add(accused)
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
        if not self.config.byzantine_hardening:
            return
        if self._evidence_is_valid(evidence):
            self._convict_on_evidence(evidence)
        else:
            # An invalid evidence message is itself an accusation forgery
            # attempt (or corruption); rate the reporter, not the accused.
            self._rate_violation(
                evidence.sender_id, 8.0, "misbehavior evidence fails verification"
            )

    def _evidence_is_valid(self, evidence: MisbehaviorEvidence) -> bool:
        """Re-verify the self-certifying proof; trust nothing about it."""
        first, second = evidence.first, evidence.second
        if (
            first.sender_id != evidence.accused_id
            or second.sender_id != evidence.accused_id
        ):
            return False
        if evidence.accused_id == self.player_id:
            return False  # nodes do not convict themselves on hearsay
        if first.sequence != second.sequence:
            return False
        # The nested updates have no buffer of their own: the evidence
        # frame carries them as fields, so their signed bytes are rebuilt.
        signed_first, signed_second = encode_signable(first), encode_signable(second)
        if signed_first == signed_second:
            return False  # identical retransmission, not equivocation
        return self._signature_holds(first, signed_first) and self._signature_holds(
            second, signed_second
        )

    def _convict_on_evidence(self, evidence: MisbehaviorEvidence) -> None:
        """Schedule a quorum-free removal backed by verified evidence.

        The due epoch is a pure function of the *evidence* frame, so every
        node that accepts the same evidence schedules the same removal
        epoch and membership views stay in agreement at quiescence.
        """
        due_epoch = (
            self.config.epoch_of_frame(evidence.frame)
            + self.membership.effective_delay_epochs
        )
        if self.membership.convict(evidence.accused_id, due_epoch):
            self._ctr_convictions.inc()
            self._rate_violation(
                evidence.accused_id,
                10.0,
                "verified misbehavior evidence (signed equivocation)",
            )

    def _scan_starvation(self, frame: int, epoch: int) -> None:
        """Selective-forwarding suspicion: a peer is dark while its proxy is live.

        If we have not heard *anything* attributable to a subject for
        ``BYZANTINE_STARVATION_FRAMES`` but the subject's proxy is
        demonstrably alive (heard within one publishing interval), the
        likeliest explanation is the proxy eating the subject's traffic.
        Low-confidence rating only — partitions look the same from here,
        and the defense-burst machinery is what actually protects the
        victim from eviction.
        """
        if frame == 0 or frame % FRAMES_PER_SECOND != 0:
            return
        for subject in self.membership.current_roster():
            if subject == self.player_id or subject in self.membership.exempt:
                continue
            last = self.membership.last_heard_frame(subject)
            if last is None or frame - last <= BYZANTINE_STARVATION_FRAMES:
                continue
            if self.membership.proposal_count(subject) > 0:
                continue  # removal machinery already has the case
            # Blame the proxy that held the subject when he went dark, not
            # the current one: the detection lag spans an epoch boundary,
            # and after rotation the starving proxy is the *previous* hop.
            dark_epoch = self.config.epoch_of_frame(last + 1)
            proxy = self.schedule.proxy_of(subject, dark_epoch)
            if proxy in (self.player_id, subject):
                continue
            proxy_last = self.membership.last_heard_frame(proxy)
            if proxy_last is None or frame - proxy_last > FRAMES_PER_SECOND:
                continue  # proxy not demonstrably alive; could be a partition
            key = (proxy, subject, epoch)
            if key in self._starvation_rated:
                continue
            self._starvation_rated.add(key)
            self.suspicion_events.append((frame, proxy, "starvation"))
            self._rate_violation(
                proxy,
                6.0,
                f"player {subject} dark while its proxy stays live "
                "(selective forwarding?)",
                confidence=Confidence.OTHER,
                deviation=float(frame - last),
            )

    # -- state updates ----------------------------------------------------

    # repro-mc: commutes[known] -- per-sender LWW merge, frame-stamp guarded
    def _on_state_update(self, src: int, update: StateUpdate, first_hop: bool) -> None:
        sender = update.sender_id
        if sender == self.player_id:
            return
        if first_hop:
            self._proxy_ingest_update(update)
        elif src == sender and not self.config.relax_first_hop:
            # Direct send around the proxy: consistency-cheat attempt.
            self.metrics.count_direct_update_violation()
            self._rate_violation(sender, 9.0, "direct state update bypassing proxy")
        else:
            self._consume_state_update(update)

    def _proxy_ingest_update(self, update: StateUpdate) -> None:
        """Proxy side: verify the client's update and fan it out."""
        sender = update.sender_id
        self.membership.heard_from(sender, self.current_frame)
        state = self._client_state(sender)
        state.update_count += 1
        for rating in state.rate.observe(
            self.player_id, sender, update.frame, self.current_frame, Confidence.PROXY
        ):
            self._emit_rating(rating)
            state.suspicion_flags += 1
        self._verify_pose(update.snapshot, Confidence.PROXY, client=state)
        state.last_snapshot = update.snapshot
        state.remember(update.snapshot)
        self.known[sender] = update.snapshot
        if not self.config.relax_first_hop:  # else the publisher sent directly
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
        client: _ClientState | None = None,
    ) -> None:
        """The per-update verifier chain: position, aim, guidance deviation.

        One chain for both vantage points.  A proxy passes its ``client``
        record: suspicious verdicts then also count toward the client's
        handoff summary, and the action-repetition replay check (which
        needs the unbroken first-hop stream) runs when configured.
        Position-only snapshots carry no orientation, so ``aim`` is off.
        """
        verdicts = [self.position_verifier.observe(self.player_id, snapshot, confidence)]
        if aim:
            verdicts.append(
                self.aim_verifier.observe(self.player_id, snapshot, confidence)
            )
        if client is not None and self.action_repetition_verifier is not None:
            replay = self.action_repetition_verifier.observe(
                self.player_id, snapshot, confidence
            )
            if replay is not None and replay.suspicious:
                verdicts.append(replay)
        for rating in verdicts:
            if rating is not None:
                self._emit_rating(rating)
                if client is not None and rating.suspicious:
                    client.suspicion_flags += 1
        guidance_rating = self.guidance_verifier.observe_position(
            self.player_id, snapshot, confidence, calibrate=True
        )
        if guidance_rating is not None:
            self._emit_rating(guidance_rating)

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
        for destination in audience:
            if destination != message.sender_id and destination != self.player_id:
                self._transmit(message, destination)
                self.metrics.count_forwarded_message()

    def _broadcast(
        self, message: GameMessage, skip: Iterable[int] = ()
    ) -> None:
        """Send directly to every current roster member but me (and ``skip``)."""
        for destination in self.membership.current_roster():
            if destination != self.player_id and destination not in skip:
                self._transmit(message, destination)

    # -- guidance ------------------------------------------------------------

    # repro-mc: commutes[known] -- per-sender LWW merge, frame-stamp guarded
    def _on_guidance(self, message: GuidanceMessage, first_hop: bool) -> None:
        sender = message.sender_id
        if sender == self.player_id:
            return
        if first_hop:
            state = self._client_state(sender)
            state.last_snapshot = message.snapshot
            self.known[sender] = message.snapshot
            if not self.config.relax_first_hop:  # else the publisher sent directly
                self._relay(
                    message, state.table.vision_subscribers(self.current_frame)
                )
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
                message, self._others_audience(sender, self._client_state(sender))
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
        self._verify_pose(
            message.snapshot, self._confidence_about(sender), aim=False
        )

    def _others_audience(self, sender: int, state: _ClientState) -> list[int]:
        """Everyone outside the sender's IS/VS subscriber lists.

        "any player outside the VS and IS belongs to the others set ...
        this subscription type is assigned by default".
        """
        interest = state.table.interest_subscribers(self.current_frame)
        vision = state.table.vision_subscribers(self.current_frame)
        return [
            player
            for player in self.roster
            if player not in interest and player not in vision
        ]

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
            if self._serves(request.target_id, epoch):
                self._register_subscription(request)
            return
        # Stage 1: I should be the sender's proxy — verify, then relay.
        if not first_hop:
            return
        self._verify_subscription(request)
        try:
            # Relay to the candidate actually serving the target.
            target_proxy = self._live_proxy_of(
                request.target_id, epoch, self.current_frame
            )
        except KeyError:
            # Target already evicted from the roster (the game world
            # may lag membership); nothing to relay to.
            return
        if target_proxy == self.player_id:
            self._register_subscription(request)
        else:
            self._transmit(request, target_proxy)
            self.metrics.count_forwarded_message()

    def _verify_subscription(self, request: SubscriptionRequest) -> None:
        # Judge against the subscriber's pose at (or just after) the frame
        # he planned the subscription — he may have spun away since, and
        # honest subscriptions must not be convicted for that.
        state = self._clients.get(request.sender_id)
        subscriber = None
        if state is not None:
            subscriber = state.snapshot_near(request.frame + 1)
        if subscriber is None:
            subscriber = self.known.get(request.sender_id)
        target = self.known.get(request.target_id)
        if subscriber is None or target is None:
            return
        if request.kind == SUB_INTEREST:
            rating = self.subscription_verifier.verify_interest_subscription(
                self.player_id,
                request.frame,
                subscriber,
                target,
                self.known,
                Confidence.PROXY,
            )
        else:
            rating = self.subscription_verifier.verify_vision_subscription(
                self.player_id, request.frame, subscriber, target, Confidence.PROXY
            )
        self._emit_rating(rating)
        if rating.suspicious:
            self._client_state(request.sender_id).suspicion_flags += 1

    def _register_subscription(self, request: SubscriptionRequest) -> None:
        state = self._client_state(request.target_id)
        if request.kind == SUB_INTEREST:
            state.table.add_interest(request.sender_id, self.current_frame)
        else:
            state.table.add_vision(request.sender_id, self.current_frame)

    # -- kill claims -------------------------------------------------------------

    def _on_kill_claim(self, claim: KillClaim, first_hop: bool) -> None:
        sender = claim.sender_id
        if first_hop:
            self._judge_kill_claim(claim, Confidence.PROXY)
            self._relay(claim, self._witnesses_of(sender))
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
            self._client_state(sender).suspicion_flags += 1
        # Recorded for later kill-claim corroboration.
        self.projectiles.record(
            sender, spawn.frame, spawn.weapon, spawn.origin, spawn.velocity
        )
        if first_hop:
            # Witnesses (the client's subscribers) also track the object.
            self._relay(spawn, self._witnesses_of(sender))

    def _witnesses_of(self, client_id: int) -> set[int]:
        """A client's IS and VS subscribers: who sees his shots land."""
        table = self._client_state(client_id).table
        return table.interest_subscribers(
            self.current_frame
        ) | table.vision_subscribers(self.current_frame)

    def _judge_kill_claim(self, claim: KillClaim, confidence: float) -> None:
        spec = WEAPONS.get(claim.weapon)
        if spec is not None and spec.projectile_speed is not None:
            self._deferred_claims.append((self.current_frame + 4, claim, confidence))
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
            has_full_object_view=self._accepts_first_hop_from(claim.sender_id),
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
        if not self.schedule.verify_route(
            client_id, message.epoch, message.sender_id, self._failover_depth
        ):
            self._rate_violation(
                message.sender_id, 10.0, "handoff from a node that was not the proxy"
            )
            return
        if not self._serves(client_id, self.current_epoch):
            return
        state = self._client_state(client_id)
        state.table.import_sets(
            message.interest_subscribers,
            message.vision_subscribers,
            self.current_frame,
        )
        state.predecessor_summaries = message.summaries
        if message.summaries and message.summaries[0].last_snapshot is not None:
            incoming = message.summaries[0].last_snapshot
            state.last_snapshot = incoming
            self._merge_known(client_id, incoming.frame, incoming)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _is_proxy_of(self, player_id: int) -> bool:
        return self.schedule.verify_proxy(
            player_id, self.current_epoch, self.player_id
        )

    def _accepts_first_hop_from(self, player_id: int) -> bool:
        """Was I this player's proxy recently enough to accept his traffic?

        Messages sent in the last frames of an epoch can arrive after the
        renewal; the outgoing proxy still accepts (and forwards) them
        instead of flagging an honest sender.  With failover enabled a
        verifiable stand-in candidate also accepts first-hop traffic.
        """
        epoch = self.current_epoch
        return self._serves(player_id, epoch) or (
            epoch > 0
            and self.schedule.verify_proxy(player_id, epoch - 1, self.player_id)
        )

    def _confidence_about(self, subject_id: int) -> float:
        """My vantage-point confidence about a subject (c_P>c_IS>c_VS>c_O)."""
        if self._is_proxy_of(subject_id):
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

    def _transmit(self, message: GameMessage, destination: int) -> None:
        """Sign and send through the behaviour hooks and the transport."""
        for out_message, out_destination in self.behaviour.filter_outgoing(
            self.current_frame, message, destination
        ):
            self._transmit_unfiltered(out_message, out_destination)

    def _transmit_unfiltered(
        self, message: GameMessage, destination: int, buffer: bytes | None = None
    ) -> None:
        """Sign and send without re-applying the behaviour's filter.

        ``buffer`` is the frame of an earlier send of ``message`` (a
        retransmission goes out as the bytes the first attempt did).
        """
        if buffer is None:
            buffer = self._signed(message)
        if destination == self.player_id:
            # Loopback.  One caller gets here: ``_drive_retries`` re-aiming
            # a stage-2 subscription relay or a handoff at the live
            # stand-in for a dead proxy, when that stand-in is me.  The
            # signed buffer takes the ordinary receive path.
            self.on_message(self.player_id, buffer)
            return
        self._acks.track(message, buffer, destination, self.current_frame)
        self._send_raw(self.player_id, destination, buffer)

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
        self._ctr_signed.inc()
        return seal(signable, self.signer.sign(self.player_id, signable))

    def _emit_rating(self, rating: CheatRating) -> None:
        self.metrics.record_rating(rating)
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
