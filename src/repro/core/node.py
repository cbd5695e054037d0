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
datagram transport.  Cheats plug in as a :class:`NodeBehaviour` that may
rewrite, drop, duplicate or fabricate a node's outgoing messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Callable, Protocol

from repro.core.config import (
    ACK_RETRY_BASE_FRAMES,
    ACK_RETRY_MAX_ATTEMPTS,
    ACK_RETRY_MAX_BACKOFF_FRAMES,
    BYZANTINE_QUARANTINE_FRAMES,
    BYZANTINE_QUARANTINE_STRIKES,
    BYZANTINE_RATE_BURST,
    BYZANTINE_RATE_MSGS_PER_FRAME,
    BYZANTINE_STARVATION_FRAMES,
    DEFENSE_INTERVAL_FRAMES,
    FRAMES_PER_SECOND,
    FREQUENT_INTERVAL_FRAMES,
    GUIDANCE_CHECK_FRAMES,
    HANDOFF_DEPTH,
    MAX_FAILOVER_ATTEMPTS,
    WatchmenConfig,
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
    signable_bytes,
)
from repro.core.proxy import ProxySchedule
from repro.core.subscriptions import SubscriberTable, SubscriptionPlanner
from repro.core.wire import encoded_size
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
from repro.game.physics import Physics
from repro.obs.registry import (
    NULL_COUNTER,
    NULL_HISTOGRAM,
    MetricsRegistry,
    get_registry,
)

__all__ = ["NodeBehaviour", "HonestBehaviour", "WatchmenNode", "NodeMetrics"]


class NodeBehaviour(Protocol):
    """The cheat-injection surface: hooks on a node's externally visible acts.

    Honest nodes use :class:`HonestBehaviour` (identity hooks).  Cheats
    override some hooks; see :mod:`repro.cheats`.
    """

    def mutate_snapshot(
        self, frame: int, snapshot: AvatarSnapshot
    ) -> AvatarSnapshot: ...

    def filter_outgoing(
        self, frame: int, message: GameMessage, destination: int
    ) -> list[tuple[GameMessage, int]]: ...

    def extra_messages(self, frame: int) -> list[tuple[GameMessage, int]]: ...


class HonestBehaviour:
    """Identity hooks: play exactly by the protocol."""

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


#: Update-age histogram bounds, in frames (0 = same-frame delivery).
AGE_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0)


@dataclass
class NodeMetrics:
    """Everything a node measures locally.

    The plain fields remain the per-node read API; :meth:`bind` wires the
    same observations into a shared :class:`MetricsRegistry` so session
    totals (counters, the update-age histogram) come for free.  Unbound
    instances feed null singletons — zero overhead, no registry needed.
    """

    update_ages: list[tuple[str, int]] = field(default_factory=list)  # (kind, frames)
    ratings: list[CheatRating] = field(default_factory=list)
    signature_failures: int = 0
    replayed_messages: int = 0
    direct_update_violations: int = 0
    forwarded_messages: int = 0

    def __post_init__(self) -> None:
        self._ctr_signature = NULL_COUNTER
        self._ctr_replayed = NULL_COUNTER
        self._ctr_direct = NULL_COUNTER
        self._ctr_forwarded = NULL_COUNTER
        self._ctr_ratings = NULL_COUNTER
        self._ctr_suspicious = NULL_COUNTER
        self._hist_age = NULL_HISTOGRAM

    def bind(self, registry: MetricsRegistry) -> None:
        """Mirror this node's observations into session-wide instruments."""
        self._ctr_signature = registry.counter("node.signature_failures")
        self._ctr_replayed = registry.counter("node.replayed_messages")
        self._ctr_direct = registry.counter("node.direct_update_violations")
        self._ctr_forwarded = registry.counter("node.forwarded_messages")
        self._ctr_ratings = registry.counter("node.ratings_emitted")
        self._ctr_suspicious = registry.counter("node.ratings_suspicious")
        self._hist_age = registry.histogram("node.update_age_frames", AGE_BUCKETS)

    def ages_of(self, kind: str | None = None) -> list[int]:
        return [age for k, age in self.update_ages if kind is None or k == kind]

    # ---- recording (each mirrors into the bound registry) ----------------

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


@dataclass
class _PendingSend:
    """One critical message awaiting its hop-by-hop ack (reliable delivery)."""

    message: GameMessage  # already signed; retransmissions reuse the bytes
    destination: int
    next_frame: int  # when the next retransmission fires
    attempt: int = 0  # retransmissions performed so far


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
        send: Callable[[int, int, GameMessage, int], bool],
        behaviour: NodeBehaviour | None = None,
        rating_sink: Callable[[CheatRating], None] | None = None,
        is_server: bool = False,
        registry: MetricsRegistry | None = None,
        los_cache: LosCache | None = None,
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
        self.metrics = NodeMetrics()
        self.metrics.bind(obs)
        self._hist_verify = obs.histogram("node.verify_seconds")
        self._hist_handle = obs.histogram("node.on_message_seconds")
        self._handled_by_type: dict[type, object] = {}

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
        self.current_frame = 0
        self.current_sets = None  # latest PlannedSubscriptions
        self._sequence = 0
        self._seen_sequences: dict[int, set[int]] = {}
        self._clients: dict[int, _ClientState] = {}
        self._pending_kills: list[KillClaim] = []
        self._pending_projectiles: list[ProjectileSpawn] = []
        #: Projectile kill claims wait a few frames before judgement so the
        #: corresponding spawn announcement can arrive (a posteriori check).
        self._deferred_claims: list[tuple[int, KillClaim, float]] = []
        self._last_published: AvatarSnapshot | None = None

        # -- robustness (``config.resilient``, default off) ------------------
        #: how far down a player's verifiable candidate walk a first hop
        #: may sit: 0 (the scheduled proxy alone) in the paper's protocol
        self._failover_depth = MAX_FAILOVER_ATTEMPTS if config.resilient else 0
        #: (destination, original sender, sequence) -> awaiting ack
        self._pending_acks: dict[tuple[int, int, int], _PendingSend] = {}
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
        #: per-sender low watermark: sequences at or below were evicted
        #: from the dedup window and screen as *silent* duplicates
        self._seen_watermark: dict[int, int] = {}
        #: first-seen signed StateUpdate per (sender, sequence): what the
        #: equivocation detector cross-checks later copies against
        self._update_archive: dict[int, dict[int, StateUpdate]] = {}
        #: accused players this node already broadcast evidence about
        self._evidence_emitted: set[int] = set()
        #: token-bucket state per transmitting hop: (tokens, last frame)
        self._rate_buckets: dict[int, tuple[float, int]] = {}
        self._rate_strikes: dict[int, int] = {}
        self._quarantined_until: dict[int, int] = {}
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
        #: optional sink into the transport's unified drop accounting
        #: (set by the session to ``DatagramNetwork.count_protocol_drop``)
        self.protocol_drop: Callable[[str], None] | None = None
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
        epoch = self.config.epoch_of_frame(frame)

        # Agreed departures take effect at epoch boundaries ("removed in
        # the next round ... from the proxy pool").
        if frame % self.config.proxy_period_frames == 0:
            applied = self.membership.apply_removals(epoch)
            if applied:
                self._apply_roster_removals(applied)

        # Handoffs first so the new proxies are live for this epoch.
        if frame > 0 and frame % self.config.proxy_period_frames == 0:
            self._perform_handoffs(frame, epoch)
        if frame % self.config.proxy_period_frames == 0:
            self._register_epoch_clients(epoch)

        # -- proxy liveness / failover (config-gated; Section VI extended) ----
        if self.config.resilient and not self.is_server:
            self._update_proxy_liveness(frame, epoch)

        # -- publisher duties (players only) -----------------------------------
        if own_snapshot is not None and not self.is_server:
            own_snapshot = self.behaviour.mutate_snapshot(frame, own_snapshot)
            self.known[self.player_id] = own_snapshot
            my_proxy = self.schedule.proxy_of(self.player_id, epoch)
            proxies = self._publish_proxies(frame, epoch, my_proxy)
            self._publish_updates(frame, own_snapshot, proxies)
            self._publish_subscriptions(frame, own_snapshot, proxies)
            self._publish_kill_claims(frame, proxies)

        # -- deferred projectile-kill judgements -------------------------------
        due = [c for c in self._deferred_claims if c[0] <= frame]
        if due:
            self._deferred_claims = [
                c for c in self._deferred_claims if c[0] > frame
            ]
            for _, claim, confidence in due:
                self._judge_kill_claim_now(claim, confidence)

        # -- churn detection (heartbeats; Section VI) -------------------------
        self._propose_departures(frame, epoch)
        if not self.is_server:
            self._drive_defense(frame)

        # -- selective-forwarding suspicion (Byzantine hardening, gated) ------
        if self.config.byzantine_hardening:
            self._scan_starvation(frame, epoch)

        # -- proxy duties ----------------------------------------------------
        self._poll_client_silence(frame)
        for state in self._clients.values():
            state.table.expire(frame)

        # -- reliable delivery: retransmit unacked critical messages ----------
        if self.config.resilient:
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
        if snapshot is None:
            return None
        ahead = min(max(0, frame - snapshot.frame), FRAMES_PER_SECOND)
        if ahead == 0 or not snapshot.alive:
            return snapshot
        extrapolated = snapshot.position + snapshot.velocity * (
            ahead * self.config.frame_seconds
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

    def _publish_proxies(self, frame: int, epoch: int, scheduled: int) -> list[int]:
        """Destinations for this frame's publications.

        Normally just the scheduled proxy.  During failover the live
        candidate comes first, with a concurrent copy to the scheduled
        proxy — if the suspicion was spurious the real proxy keeps
        verifying and forwarding, and if it crashed the copy merely
        evaporates, so either way no client is stranded.
        """
        live = self._live_proxy_of(self.player_id, epoch, frame)
        if live == scheduled:
            return [scheduled]
        return [live, scheduled]

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
                if target in self.known or target in self.roster
            ]
            affected = [
                target
                for target in affected
                if self._scheduled_proxy_in(target, epoch, newly_dead)
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
        scheduled = self.schedule.proxy_of(self.player_id, epoch)
        proxies = self._publish_proxies(frame, epoch, scheduled)
        for kind, members in (
            (SUB_INTEREST, sorted(sets.interest)),
            (SUB_VISION, sorted(sets.vision)),
        ):
            for target in members:
                if targets is not None and target not in targets:
                    continue
                request = SubscriptionRequest(
                    sender_id=self.player_id,
                    target_id=target,
                    kind=kind,
                    frame=frame,
                    sequence=self._next_sequence(),
                )
                for proxy in proxies:
                    self._transmit(request, proxy)

    # ------------------------------------------------------------------
    # Reliable delivery (ack/retry for critical low-rate messages)
    # ------------------------------------------------------------------

    def _register_pending(self, message: GameMessage, destination: int) -> None:
        """Start tracking an ackable send (no-op for retransmissions)."""
        key = (destination, message.sender_id, message.sequence)
        if key not in self._pending_acks:
            self._pending_acks[key] = _PendingSend(
                message=message,
                destination=destination,
                next_frame=self.current_frame + ACK_RETRY_BASE_FRAMES,
            )

    def _drive_retries(self, frame: int) -> None:
        """Retransmit due unacked messages with capped exponential backoff."""
        due = sorted(
            key for key, p in self._pending_acks.items() if p.next_frame <= frame
        )
        for key in due:
            pending = self._pending_acks.pop(key, None)
            if pending is None:
                continue
            if pending.attempt >= ACK_RETRY_MAX_ATTEMPTS:
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
                    self._emit_rating(
                        CheatRating(
                            verifier_id=self.player_id,
                            subject_id=pending.destination,
                            frame=frame,
                            check=CheckKind.RATE,
                            rating=6.0,
                            confidence=Confidence.OTHER,
                            deviation=float(pending.attempt),
                            detail=(
                                "retry ladder exhausted against a live "
                                "destination (ack withholding?)"
                            ),
                        )
                    )
                continue  # give up; the destination is gone or the path is cut
            pending.attempt += 1
            backoff = min(
                ACK_RETRY_BASE_FRAMES * (2 ** pending.attempt),
                ACK_RETRY_MAX_BACKOFF_FRAMES,
            )
            pending.next_frame = frame + backoff
            destination = self._retry_destination(
                pending.message, pending.destination, frame
            )
            pending.destination = destination
            # Re-file under the (possibly re-routed) key *before* sending,
            # so _register_pending sees it and keeps the attempt count.
            self._pending_acks[
                (destination, pending.message.sender_id, pending.message.sequence)
            ] = pending
            self._ctr_retries.inc()
            self._transmit_unfiltered(pending.message, destination)

    def _retry_destination(
        self, message: GameMessage, current: int, frame: int
    ) -> int:
        """Re-route a retry around a proxy that died since the first send."""
        if not self._node_seems_dead(current, frame):
            return current
        epoch = self.config.epoch_of_frame(frame)
        try:
            if (
                isinstance(message, (SubscriptionRequest, KillClaim))
                and message.sender_id == self.player_id
            ):
                return self._live_proxy_of(self.player_id, epoch, frame)
            if (
                isinstance(message, SubscriptionRequest)
                and message.sender_id != self.player_id
            ):
                # Stage-2 relay: re-aim at the target's live proxy.
                return self._live_proxy_of(message.target_id, epoch, frame)
            if isinstance(message, HandoffMessage):
                return self._live_proxy_of(message.player_id, epoch, frame)
        except KeyError:
            return current
        return current  # direct sends (proposals, witness copies): keep

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
        self._pending_acks.pop((src, ack.acked_sender_id, ack.acked_sequence), None)

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
            position = PositionUpdate(
                sender_id=self.player_id,
                frame=frame,
                sequence=self._next_sequence(),
                snapshot=snapshot.position_only(),
            )
            self._route_publication(position, proxies)

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
        the proxies for verification.
        """
        if not self.config.relax_first_hop or isinstance(
            message, SubscriptionRequest
        ):
            for proxy in proxies:
                self._transmit(message, proxy)
            return
        audience = self._direct_audience(message)
        for destination in audience:
            self._transmit(message, destination)
        for proxy in proxies:  # concurrent verification copy
            self._transmit(message, proxy)

    def _direct_audience(self, message: GameMessage) -> list[int]:
        """Relaxed-mode audience; mirrors the proxy's forwarding rules.

        The node only knows its audience through what its proxy told it at
        the latest handoff; we approximate with its own subscriber table if
        it happens to be its own proxy's client record, falling back to the
        symmetric heuristic (players whose IS/VS I am likely in cannot be
        computed locally), so relaxed mode broadcasts frequent updates to
        players that have *me* in their planned sets — which the session
        wires through the shared subscriber oracle.
        """
        oracle = getattr(self, "audience_oracle", None)
        if oracle is None:
            return []
        return oracle(self.player_id, message)

    def _publish_subscriptions(
        self, frame: int, snapshot: AvatarSnapshot, proxies: list[int]
    ) -> None:
        plan = self.planner.plan(frame, snapshot, self.known)
        self.current_sets = plan
        for target in sorted(plan.new_interest):
            request = SubscriptionRequest(
                sender_id=self.player_id,
                target_id=target,
                kind=SUB_INTEREST,
                frame=frame,
                sequence=self._next_sequence(),
            )
            for proxy in proxies:
                self._transmit(request, proxy)
        for target in sorted(plan.new_vision):
            request = SubscriptionRequest(
                sender_id=self.player_id,
                target_id=target,
                kind=SUB_VISION,
                frame=frame,
                sequence=self._next_sequence(),
            )
            for proxy in proxies:
                self._transmit(request, proxy)

    def _publish_kill_claims(self, frame: int, proxies: list[int]) -> None:
        for spawn in self._pending_projectiles:
            stamped = ProjectileSpawn(
                sender_id=spawn.sender_id,
                frame=spawn.frame,
                sequence=self._next_sequence(),
                weapon=spawn.weapon,
                origin=spawn.origin,
                velocity=spawn.velocity,
            )
            for proxy in proxies:
                self._transmit(stamped, proxy)
        self._pending_projectiles.clear()
        for claim in self._pending_kills:
            stamped = KillClaim(
                sender_id=claim.sender_id,
                victim_id=claim.victim_id,
                frame=claim.frame,
                sequence=self._next_sequence(),
                weapon=claim.weapon,
                claimed_distance=claim.claimed_distance,
            )
            for proxy in proxies:
                self._transmit(stamped, proxy)
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
            for destination in self.membership.current_roster():
                if destination != self.player_id:
                    self._transmit(proposal, destination)

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
        epoch = self.config.epoch_of_frame(self.current_frame)
        self.membership.record_proposal(
            message.sender_id,
            message.subject_id,
            self.current_frame,
            epoch,
        )

    def _drive_defense(self, frame: int) -> None:
        """Keep heartbeating directly while the challenge window is open."""
        if frame <= self._defense_until_frame:
            self._defend_liveness(frame)

    def _defend_liveness(self, frame: int) -> None:
        """One direct heartbeat burst to the whole roster, rate-limited."""
        if frame - self._last_defense_frame < DEFENSE_INTERVAL_FRAMES:
            return
        snapshot = self.known.get(self.player_id)
        if snapshot is None or self.is_server:
            return
        self._last_defense_frame = frame
        self._ctr_defenses.inc()
        update = PositionUpdate(
            sender_id=self.player_id,
            frame=frame,
            sequence=self._next_sequence(),
            snapshot=snapshot.position_only(),
        )
        # Skip destinations that treat my traffic as first-hop and re-forward
        # it (my proxies/candidates): the forwarded copy would collide with
        # the direct one and read as a replay.  They hear my first-hop
        # publications — which refresh their heartbeat — already.
        forwarders = self._first_hop_acceptors(frame)
        for destination in self.membership.current_roster():
            if destination != self.player_id and destination not in forwarders:
                self._transmit(update, destination)

    def _first_hop_acceptors(self, frame: int) -> set[int]:
        """Nodes that accept-and-forward my direct traffic (see
        ``_accepts_first_hop_from``) — recomputed sender-side from the
        same shared schedule."""
        epoch = self.config.epoch_of_frame(frame)
        acceptors: set[int] = set()
        try:
            acceptors.update(
                self.schedule.first_hops(self.player_id, epoch, self._failover_depth)
            )
            if epoch > 0:
                acceptors.add(self.schedule.proxy_of(self.player_id, epoch - 1))
        except KeyError:
            pass
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
        epoch_start = (
            self.config.epoch_of_frame(frame) * self.config.proxy_period_frames
        )
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
            if rating is None:
                # Dead air since we took over: a client that sent nothing
                # at all this tenure is escaping (or unreachable).
                last = state.rate.last_arrival_wallclock(client_id)
                silent_for = frame - max(
                    epoch_start, last if last is not None else -(10**9)
                )
                grace = 16  # handoff + first-hop latency
                if last is None and frame > 0 and silent_for > grace:
                    rating = CheatRating(
                        verifier_id=self.player_id,
                        subject_id=client_id,
                        frame=frame,
                        check=CheckKind.RATE,
                        rating=min(10.0, 5.0 + 0.2 * (silent_for - grace)),
                        confidence=Confidence.PROXY,
                        deviation=float(silent_for),
                        detail=f"no traffic at all for {silent_for} frames (escaping?)",
                    )
            if rating is not None:
                self._emit_rating(rating)
                state.suspicion_flags += 1

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def on_message(self, src: int, message: GameMessage) -> None:
        """Entry point for every delivered datagram payload."""
        counter = self._handled_by_type.get(type(message))
        if counter is None:
            counter = self._obs.counter(f"node.handled.{type(message).__name__}")
            self._handled_by_type[type(message)] = counter
        counter.inc()
        with self._hist_handle.time():
            self._dispatch_message(src, message)

    def _dispatch_message(self, src: int, message: GameMessage) -> None:
        if (
            self.config.byzantine_hardening
            and src != self.player_id
            and not self._rate_limit_admit(src)
        ):
            # Flood defense: the sending hop is over its token budget (or
            # already quarantined) — the message is dropped before any
            # signature work, which is the point: verification is the cost
            # a flooder would otherwise impose.
            self._count_protocol_drop("quarantine")
            return
        observe = getattr(self.behaviour, "observe_incoming", None)
        if observe is not None:
            observe(self.current_frame, src, message)
        with self._hist_verify.time():
            accepted = self._verify_envelope(src, message)
        if not accepted:
            return
        if (
            self.config.resilient
            and src != self.player_id
            and isinstance(message, ACKABLE_TYPES)
        ):
            self._send_ack(src, message)
        if isinstance(message, StateUpdate):
            self._on_state_update(src, message)
        elif isinstance(message, GuidanceMessage):
            self._on_guidance(src, message)
        elif isinstance(message, PositionUpdate):
            self._on_position_update(src, message)
        elif isinstance(message, SubscriptionRequest):
            self._on_subscription(src, message)
        elif isinstance(message, KillClaim):
            self._on_kill_claim(src, message)
        elif isinstance(message, ProjectileSpawn):
            self._on_projectile_spawn(src, message)
        elif isinstance(message, HandoffMessage):
            self._on_handoff(message)
        elif isinstance(message, RemovalProposal):
            self._on_removal_proposal(message)
        elif isinstance(message, MisbehaviorEvidence):
            self._on_misbehavior_evidence(src, message)
        elif isinstance(message, AckMessage):
            self._on_ack(src, message)

    def _verify_envelope(self, src: int, message: GameMessage) -> bool:  # repro-taint: sanitizer
        """Signature + replay screening on every received message."""
        if message.signature is None or not self.signer.verify(
            message.sender_id, signable_bytes(message), message.signature
        ):
            self.metrics.count_signature_failure()
            if self.config.byzantine_hardening and src != message.sender_id:
                # A relayed message that fails its origin signature was
                # mutated *in flight*: the origin's signing path either
                # produces valid bytes or nothing.  Blame the relaying hop,
                # not the named sender — that is exactly the tampering-proxy
                # attack the signatures exist to catch.
                self._count_protocol_drop("tamper")
                self.suspicion_events.append(
                    (self.current_frame, src, "tamper_hop")
                )
                self._emit_rating(
                    CheatRating(
                        verifier_id=self.player_id,
                        subject_id=src,
                        frame=self.current_frame,
                        check=CheckKind.RATE,
                        rating=10.0,
                        confidence=Confidence.PROXY,
                        deviation=1.0,
                        detail="relayed message fails its signature (tampering hop)",
                    )
                )
                return False
            self._emit_rating(
                CheatRating(
                    verifier_id=self.player_id,
                    subject_id=message.sender_id,
                    frame=self.current_frame,
                    check=CheckKind.RATE,
                    rating=10.0,
                    confidence=Confidence.PROXY,
                    deviation=1.0,
                    detail="invalid or missing signature",
                )
            )
            return False
        seen = self._seen_sequences.setdefault(message.sender_id, set())
        if message.sequence <= self._seen_watermark.get(message.sender_id, -1):
            # Below the eviction watermark: this sequence was tracked once
            # and its tombstone has been garbage-collected.  A late
            # retransmit landing here is indistinguishable from a replay,
            # so it is *always* screened silently — never reprocessed (the
            # pre-watermark code silently accepted these) and never treated
            # as cheat evidence.
            return self._screen_duplicate(src, message, tracked=False)
        if message.sequence in seen:
            return self._screen_duplicate(src, message, tracked=True)
        seen.add(message.sequence)
        if self.config.byzantine_hardening and isinstance(message, StateUpdate):
            # First-seen signed update per (sender, sequence): the archive
            # the equivocation detector cross-checks duplicates against.
            self._update_archive.setdefault(message.sender_id, {})[
                message.sequence
            ] = message
        if len(seen) > 4096:  # bounded memory; old sequences cannot return
            kept = sorted(seen)
            # The watermark is the highest evicted sequence: everything at
            # or below it is "seen" by fiat, so eviction can never turn a
            # stale retransmit into fresh (reprocessed) traffic.
            self._seen_watermark[message.sender_id] = kept[-2049]
            self._seen_sequences[message.sender_id] = set(kept[-2048:])
            archive = self._update_archive.get(message.sender_id)
            if archive:
                watermark = kept[-2049]
                for sequence in [s for s in archive if s <= watermark]:
                    del archive[sequence]
        return True

    def _screen_duplicate(
        self, src: int, message: GameMessage, *, tracked: bool
    ) -> bool:
        """Handle a message whose sequence was already seen (or evicted).

        ``tracked`` duplicates of a signed ``StateUpdate`` are first
        cross-checked against the archived original: same sequence but
        *different* signed bytes is cryptographic equivocation, the one
        duplicate that is proof of misbehavior rather than an artefact.
        """
        if (
            tracked
            and self.config.byzantine_hardening
            and isinstance(message, StateUpdate)
        ):
            archived = self._update_archive.get(message.sender_id, {}).get(
                message.sequence
            )
            if archived is not None and signable_bytes(archived) != signable_bytes(
                message
            ):
                self._on_equivocation(src, archived, message)
                return False
        self.metrics.count_replayed_message()
        if not tracked or self.config.resilient:
            # With the robustness layer on, duplicates are an expected
            # artefact of dual-send failover, retransmissions and
            # network duplication — screen them silently instead of
            # convicting an honest sender.  The ack still goes out so a
            # retransmitting peer stops resending a delivered message.
            if (
                self.config.resilient
                and src != self.player_id
                and isinstance(message, ACKABLE_TYPES)
            ):
                self._send_ack(src, message)
            return False
        self._emit_rating(
            CheatRating(
                verifier_id=self.player_id,
                subject_id=message.sender_id,
                frame=self.current_frame,
                check=CheckKind.RATE,
                rating=10.0,
                confidence=Confidence.PROXY,
                deviation=1.0,
                detail=f"replayed sequence {message.sequence}",
            )
        )
        return False

    # -- Byzantine hardening ----------------------------------------------

    def _count_protocol_drop(self, cause: str) -> None:
        """Fold a protocol-layer rejection into the transport's drop books."""
        if self.protocol_drop is not None:
            self.protocol_drop(cause)

    def _rate_limit_admit(self, src: int) -> bool:
        """Token-bucket admission per sending hop, with bounded quarantine.

        Honest links carry a few messages per frame (epoch bursts stay
        well under the burst allowance), so they never strike; a flooder
        drains its bucket within a couple of frames, accumulates strikes
        and is silenced for ``BYZANTINE_QUARANTINE_FRAMES`` — bounded, so a false
        positive self-heals instead of becoming an eviction.
        """
        frame = self.current_frame
        until = self._quarantined_until.get(src)
        if until is not None:
            if frame < until:
                return False
            # Quarantine served: fresh bucket, strikes forgiven.
            del self._quarantined_until[src]
            self._rate_strikes.pop(src, None)
            self._rate_buckets.pop(src, None)
        tokens, last = self._rate_buckets.get(
            src, (float(BYZANTINE_RATE_BURST), frame)
        )
        tokens = min(
            float(BYZANTINE_RATE_BURST),
            tokens + (frame - last) * BYZANTINE_RATE_MSGS_PER_FRAME,
        )
        if tokens >= 1.0:
            self._rate_buckets[src] = (tokens - 1.0, frame)
            return True
        self._rate_buckets[src] = (tokens, frame)
        strikes = self._rate_strikes.get(src, 0) + 1
        self._rate_strikes[src] = strikes
        if strikes >= BYZANTINE_QUARANTINE_STRIKES:
            self._quarantined_until[src] = frame + BYZANTINE_QUARANTINE_FRAMES
            self._rate_strikes[src] = 0
            self.quarantine_events.append((frame, src))
            self._ctr_quarantines.inc()
            self._emit_rating(
                CheatRating(
                    verifier_id=self.player_id,
                    subject_id=src,
                    frame=frame,
                    check=CheckKind.RATE,
                    rating=8.0,
                    confidence=Confidence.PROXY,
                    deviation=float(strikes),
                    detail="message flood: token bucket exhausted repeatedly",
                )
            )
        return False

    def _on_equivocation(
        self, src: int, archived: StateUpdate, conflict: StateUpdate
    ) -> None:
        """Two validly-signed updates, same sequence, different payloads.

        This is cryptographic proof the *origin* equivocated (no relay can
        forge either signature), so the rating is maximal and the witness
        broadcasts self-certifying evidence that convicts everywhere
        without needing a removal quorum.
        """
        accused = conflict.sender_id
        self._ctr_equivocations.inc()
        self.equivocation_events.append((self.current_frame, accused))
        self._emit_rating(
            CheatRating(
                verifier_id=self.player_id,
                subject_id=accused,
                frame=self.current_frame,
                check=CheckKind.RATE,
                rating=10.0,
                confidence=Confidence.PROXY,
                deviation=1.0,
                detail=(
                    "equivocation: conflicting signed payloads for "
                    f"sequence {conflict.sequence}"
                ),
            )
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
        for destination in self.membership.current_roster():
            if destination != self.player_id:
                self._transmit(evidence, destination)

    # repro-mc: commutes[membership] -- convictions are idempotent per subject
    def _on_misbehavior_evidence(
        self, src: int, evidence: MisbehaviorEvidence
    ) -> None:
        if not self.config.byzantine_hardening:
            return
        if not self._evidence_is_valid(evidence):
            # An invalid evidence message is itself an accusation forgery
            # attempt (or corruption); rate the reporter, not the accused.
            self._emit_rating(
                CheatRating(
                    verifier_id=self.player_id,
                    subject_id=evidence.sender_id,
                    frame=self.current_frame,
                    check=CheckKind.RATE,
                    rating=8.0,
                    confidence=Confidence.PROXY,
                    deviation=1.0,
                    detail="misbehavior evidence fails verification",
                )
            )
            return
        self._convict_on_evidence(evidence)

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
        if signable_bytes(first) == signable_bytes(second):
            return False  # identical retransmission, not equivocation
        for inner in (first, second):
            if inner.signature is None or not self.signer.verify(
                inner.sender_id, signable_bytes(inner), inner.signature
            ):
                return False
        return True

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
            self._emit_rating(
                CheatRating(
                    verifier_id=self.player_id,
                    subject_id=evidence.accused_id,
                    frame=self.current_frame,
                    check=CheckKind.RATE,
                    rating=10.0,
                    confidence=Confidence.PROXY,
                    deviation=1.0,
                    detail="verified misbehavior evidence (signed equivocation)",
                )
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
            self._emit_rating(
                CheatRating(
                    verifier_id=self.player_id,
                    subject_id=proxy,
                    frame=frame,
                    check=CheckKind.RATE,
                    rating=6.0,
                    confidence=Confidence.OTHER,
                    deviation=float(frame - last),
                    detail=(
                        f"player {subject} dark while its proxy stays live "
                        "(selective forwarding?)"
                    ),
                )
            )

    # -- state updates ----------------------------------------------------

    # repro-mc: commutes[known] -- per-sender LWW merge, frame-stamp guarded
    def _on_state_update(self, src: int, update: StateUpdate) -> None:
        sender = update.sender_id
        if sender == self.player_id:
            return
        if src == sender:
            # First hop: only legitimate when I am the proxy (or relaxed mode).
            if self._accepts_first_hop_from(sender):
                self._proxy_ingest_update(update)
                return
            if not self.config.relax_first_hop:
                # Direct send around the proxy: consistency-cheat attempt.
                self.metrics.count_direct_update_violation()
                self._emit_rating(
                    CheatRating(
                        verifier_id=self.player_id,
                        subject_id=sender,
                        frame=self.current_frame,
                        check=CheckKind.RATE,
                        rating=9.0,
                        confidence=Confidence.PROXY,
                        deviation=1.0,
                        detail="direct state update bypassing proxy",
                    )
                )
                return
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
        position_rating = self.position_verifier.observe(
            self.player_id, update.snapshot, Confidence.PROXY
        )
        if position_rating is not None:
            self._emit_rating(position_rating)
            if position_rating.suspicious:
                state.suspicion_flags += 1
        aim_rating = self.aim_verifier.observe(
            self.player_id, update.snapshot, Confidence.PROXY
        )
        if aim_rating is not None:
            self._emit_rating(aim_rating)
            if aim_rating.suspicious:
                state.suspicion_flags += 1
        if self.action_repetition_verifier is not None:
            replay_rating = self.action_repetition_verifier.observe(
                self.player_id, update.snapshot, Confidence.PROXY
            )
            if replay_rating is not None and replay_rating.suspicious:
                self._emit_rating(replay_rating)
                state.suspicion_flags += 1
        guidance_rating = self.guidance_verifier.observe_position(
            self.player_id, update.snapshot, Confidence.PROXY, calibrate=True
        )
        if guidance_rating is not None:
            self._emit_rating(guidance_rating)

        state.last_snapshot = update.snapshot
        state.remember(update.snapshot)
        self.known[sender] = update.snapshot

        if self.config.relax_first_hop:
            return  # publisher already sent directly; we only verified
        for subscriber in state.table.interest_subscribers(self.current_frame):
            if subscriber not in (sender, self.player_id):
                self._transmit(update, subscriber)
                self.metrics.count_forwarded_message()

    def _consume_state_update(self, update: StateUpdate) -> None:
        """Subscriber side: measure age, refresh view, verify."""
        sender = update.sender_id
        self.membership.heard_from(sender, self.current_frame)
        self._record_age("state", update.frame)
        previous = self.known.get(sender)
        if previous is None or previous.frame <= update.frame:
            self.known[sender] = update.snapshot
        confidence = self._confidence_about(sender)
        rating = self.position_verifier.observe(
            self.player_id, update.snapshot, confidence
        )
        if rating is not None:
            self._emit_rating(rating)
        aim_rating = self.aim_verifier.observe(
            self.player_id, update.snapshot, confidence
        )
        if aim_rating is not None:
            self._emit_rating(aim_rating)
        guidance_rating = self.guidance_verifier.observe_position(
            self.player_id, update.snapshot, confidence, calibrate=True
        )
        if guidance_rating is not None:
            self._emit_rating(guidance_rating)

    # -- guidance ------------------------------------------------------------

    # repro-mc: commutes[known] -- per-sender LWW merge, frame-stamp guarded
    def _on_guidance(self, src: int, message: GuidanceMessage) -> None:
        sender = message.sender_id
        if sender == self.player_id:
            return
        if src == sender and self._accepts_first_hop_from(sender):
            state = self._client_state(sender)
            state.last_snapshot = message.snapshot
            self.known[sender] = message.snapshot
            self.guidance_verifier.observe_guidance(sender, message.prediction)
            if self.config.relax_first_hop:
                return
            for subscriber in state.table.vision_subscribers(self.current_frame):
                if subscriber not in (sender, self.player_id):
                    self._transmit(message, subscriber)
                    self.metrics.count_forwarded_message()
            return
        self.membership.heard_from(sender, self.current_frame)
        self._record_age("guidance", message.frame)
        previous = self.known.get(sender)
        if previous is None or previous.frame <= message.frame:
            self.known[sender] = message.snapshot
        self.guidance_verifier.observe_guidance(sender, message.prediction)

    # -- infrequent position updates ---------------------------------------

    # repro-mc: commutes[known] -- per-sender LWW merge, frame-stamp guarded
    def _on_position_update(self, src: int, message: PositionUpdate) -> None:
        sender = message.sender_id
        if sender == self.player_id:
            return
        if src == sender and self._accepts_first_hop_from(sender):
            # First-hop traffic is itself a heartbeat: the forwarding
            # proxy must not keep silence evidence armed against a client
            # it is actively relaying for.
            self.membership.heard_from(sender, self.current_frame)
            state = self._client_state(sender)
            audience = self._others_audience(sender, state)
            for destination in audience:
                self._transmit(message, destination)
                self.metrics.count_forwarded_message()
            return
        self.membership.heard_from(sender, self.current_frame)
        self._record_age("position", message.frame)
        previous = self.known.get(sender)
        if previous is None:
            self.known[sender] = message.snapshot
        elif previous.frame <= message.frame:
            # Merge: position updates carry only identity/position — keep
            # the richer fields from whatever we knew before.
            self.known[sender] = dataclass_replace(
                previous,
                frame=message.frame,
                position=message.snapshot.position,
                alive=message.snapshot.alive,
            )
        rating = self.position_verifier.observe(
            self.player_id, message.snapshot, self._confidence_about(sender)
        )
        if rating is not None:
            self._emit_rating(rating)
        guidance_rating = self.guidance_verifier.observe_position(
            self.player_id,
            message.snapshot,
            self._confidence_about(sender),
            calibrate=True,
        )
        if guidance_rating is not None:
            self._emit_rating(guidance_rating)

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
            if player not in (sender, self.player_id)
            and player not in interest
            and player not in vision
        ]

    # -- subscriptions ----------------------------------------------------------

    # repro-mc: commutes[table] -- expiry-refresh inserts; IS-supersedes-VS
    # resolves the same way in either order
    def _on_subscription(self, src: int, request: SubscriptionRequest) -> None:
        sender = request.sender_id
        if request.target_id == sender:
            return
        if src == sender:
            # Stage 1: I should be the sender's proxy — verify, then relay.
            if not self._accepts_first_hop_from(sender):
                return
            self._verify_subscription(request)
            epoch = self.config.epoch_of_frame(self.current_frame)
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
            return
        # Stage 2: I should be the target's proxy — record the subscriber.
        epoch = self.config.epoch_of_frame(self.current_frame)
        if self._serves(request.target_id, epoch):
            self._register_subscription(request)

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

    def _on_kill_claim(self, src: int, claim: KillClaim) -> None:
        sender = claim.sender_id
        if src == sender and self._accepts_first_hop_from(sender):
            self._judge_kill_claim(claim, Confidence.PROXY)
            state = self._client_state(sender)
            witnesses = state.table.interest_subscribers(
                self.current_frame
            ) | state.table.vision_subscribers(self.current_frame)
            for witness in witnesses:
                if witness not in (sender, self.player_id):
                    self._transmit(claim, witness)
                    self.metrics.count_forwarded_message()
            return
        self._judge_kill_claim(claim, self._confidence_about(sender))

    def _on_projectile_spawn(self, src: int, spawn: ProjectileSpawn) -> None:
        sender = spawn.sender_id
        if sender == self.player_id:
            return
        if src == sender and self._accepts_first_hop_from(sender):
            rating = self.projectiles.verify_spawn(
                self.player_id,
                spawn.frame,
                sender,
                spawn.weapon,
                spawn.origin,
                spawn.velocity,
                self.known.get(sender),
                Confidence.PROXY,
            )
            self._emit_rating(rating)
            if rating.suspicious:
                self._client_state(sender).suspicion_flags += 1
            self.projectiles.record(
                sender, spawn.frame, spawn.weapon, spawn.origin, spawn.velocity
            )
            # Witnesses (the client's subscribers) also track the object.
            state = self._client_state(sender)
            witnesses = state.table.interest_subscribers(
                self.current_frame
            ) | state.table.vision_subscribers(self.current_frame)
            for witness in witnesses:
                if witness not in (sender, self.player_id):
                    self._transmit(spawn, witness)
                    self.metrics.count_forwarded_message()
            return
        # Witness side: record for later kill-claim corroboration.
        rating = self.projectiles.verify_spawn(
            self.player_id,
            spawn.frame,
            sender,
            spawn.weapon,
            spawn.origin,
            spawn.velocity,
            self.known.get(sender),
            self._confidence_about(sender),
        )
        if rating.suspicious:
            self._emit_rating(rating)
        self.projectiles.record(
            sender, spawn.frame, spawn.weapon, spawn.origin, spawn.velocity
        )

    def _judge_kill_claim(self, claim: KillClaim, confidence: float) -> None:
        from repro.game.weapons import WEAPONS as _WEAPONS

        spec = _WEAPONS.get(claim.weapon)
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
            self._emit_rating(
                CheatRating(
                    verifier_id=self.player_id,
                    subject_id=message.sender_id,
                    frame=self.current_frame,
                    check=CheckKind.RATE,
                    rating=10.0,
                    confidence=Confidence.PROXY,
                    deviation=1.0,
                    detail="handoff from a node that was not the proxy",
                )
            )
            return
        if not self._serves(client_id, self.config.epoch_of_frame(self.current_frame)):
            return
        state = self._client_state(client_id)
        state.table.import_sets(
            message.interest_subscribers,
            message.vision_subscribers,
            self.current_frame,
        )
        state.predecessor_summaries = message.summaries
        if message.summaries and message.summaries[0].last_snapshot is not None:
            state.last_snapshot = message.summaries[0].last_snapshot
            existing = self.known.get(client_id)
            incoming = message.summaries[0].last_snapshot
            if existing is None or existing.frame <= incoming.frame:
                self.known[client_id] = incoming

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _is_proxy_of(self, player_id: int) -> bool:
        epoch = self.config.epoch_of_frame(self.current_frame)
        try:
            return self.schedule.proxy_of(player_id, epoch) == self.player_id
        except KeyError:
            return False

    def _accepts_first_hop_from(self, player_id: int) -> bool:
        """Was I this player's proxy recently enough to accept his traffic?

        Messages sent in the last frames of an epoch can arrive after the
        renewal; the outgoing proxy still accepts (and forwards) them
        instead of flagging an honest sender.  With failover enabled a
        verifiable stand-in candidate also accepts first-hop traffic.
        """
        epoch = self.config.epoch_of_frame(self.current_frame)
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
        if destination == self.player_id:
            self.on_message(self.player_id, message)
            return
        for out_message, out_destination in self.behaviour.filter_outgoing(
            self.current_frame, message, destination
        ):
            self._transmit_unfiltered(out_message, out_destination)

    def _transmit_unfiltered(self, message: GameMessage, destination: int) -> None:
        """Sign and send without re-applying the behaviour's filter."""
        if destination == self.player_id:
            self.on_message(self.player_id, message)
            return
        signed = self._signed(message)
        if self.config.resilient and isinstance(signed, ACKABLE_TYPES):
            self._register_pending(signed, destination)
        # Charge what actually crosses the wire: the canonical binary
        # frame.  The nominal bit model (message_size_bits) survives as
        # the paper-arithmetic cross-check in the crypto_overhead bench.
        size = encoded_size(signed)
        self._send_raw(self.player_id, destination, signed, size)

    def _signed(self, message: GameMessage) -> GameMessage:
        if message.signature is not None:
            return message
        # Sign with *our own* key: a node claiming another sender_id
        # (spoofing) produces a signature that fails verification at the
        # receiver, which is exactly how the paper defeats spoofing.
        signature = self.signer.sign(self.player_id, signable_bytes(message))
        return type(message)(
            **{
                name: getattr(message, name)
                for name in message.__dataclass_fields__
                if name != "signature"
            },
            signature=signature,
        )

    def _record_age(self, kind: str, stamped_frame: int) -> None:
        age = max(0, self.current_frame - stamped_frame)
        self.metrics.record_age(kind, age)

    def _emit_rating(self, rating: CheatRating) -> None:
        self.metrics.record_rating(rating)
        if self._rating_sink is not None:
            self._rating_sink(rating)
