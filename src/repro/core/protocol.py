"""WatchmenSession: a full protocol run of N nodes over the simulated WAN.

This is the reproduction's equivalent of the paper's replay engine: it
takes a recorded :class:`~repro.game.trace.GameTrace`, instantiates one
:class:`~repro.core.node.WatchmenNode` per player, wires them through the
:class:`~repro.net.transport.DatagramNetwork` (latency matrix + loss +
jitter), and replays the game frame by frame — "generate the same network
traffic repeatedly and under different networking and proxy architectures
to measure different aspects of the performance".

Outputs: update-age distributions (Figure 7), bandwidth per node, every
cheat rating emitted by every verifier (Figure 6), and the reputation
board's state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Collection, Iterator

from repro.core.config import FRAME_SECONDS, MAX_USEFUL_AGE_FRAMES, WatchmenConfig
from repro.core.node import HonestBehaviour, NodeBehaviour, WatchmenNode
from repro.core.proxy import ProxySchedule
from repro.core.reputation import ReputationBoard
from repro.core.verification import CheatRating, RatingLog
from repro.core.wire import TAG_NAMES, FrameMemo
from repro.crypto.signatures import HmacSigner
from repro.faults.byzantine import ByzantineBehaviour
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.game.gamemap import GameMap, make_longest_yard
from repro.game.avatar import AvatarSnapshot
from repro.game.interest import LosCache
from repro.game.trace import GameTrace, ShotEvent
from repro.net.events import EventQueue
from repro.net.latency import LatencyMatrix, king_like
from repro.net.transport import DatagramNetwork, NetworkConfig
from repro.obs.registry import get_registry
from repro.obs.stats import nearest_rank

__all__ = ["SessionReport", "WatchmenSession"]


class _Concatenation(Collection[CheatRating]):
    """The nodes' rating logs read one after another, in place."""

    def __init__(self, logs: list[RatingLog]) -> None:
        self._logs = logs

    def __len__(self) -> int:
        return sum(map(len, self._logs))

    def __iter__(self) -> Iterator[CheatRating]:
        return chain.from_iterable(self._logs)

    def __contains__(self, rating: object) -> bool:
        return any(rating in log for log in self._logs)


@dataclass
class SessionReport:
    """Aggregated observations from one session run."""

    num_players: int
    num_frames: int
    age_histogram: dict[int, int] = field(default_factory=dict)
    age_histogram_by_kind: dict[str, dict[int, int]] = field(default_factory=dict)
    mean_upload_kbps: float = 0.0
    max_upload_kbps: float = 0.0
    messages_sent: int = 0
    #: Every datagram that died anywhere: in flight (loss, a fault) or
    #: refused by the receiving protocol layer.
    messages_lost: int = 0
    #: The same deaths, broken down (loss | partition | crashed | schedule
    #: | malformed | tamper | quarantine).
    dropped_by_cause: dict[str, int] = field(default_factory=dict)
    #: Every verdict, node by node in filing order: a read-only view of the nodes'
    #: logs.  Iterate it; ``list(...)`` if you must index a session's worth.
    ratings: Collection[CheatRating] = ()
    banned: set[int] = field(default_factory=set)
    server_upload_kbps: dict[int, float] = field(default_factory=dict)
    view_errors: list[float] = field(default_factory=list)
    #: node -> frame it crash-stopped (fault injection), if any
    crashed: dict[int, int] = field(default_factory=dict)
    #: total proxy failovers performed across all nodes
    proxy_failovers: int = 0
    #: Byzantine hardening telemetry (all zero with the gate off):
    #: equivocation detections across all witnesses, evidence-backed
    #: convictions recorded, quarantine impositions, and messages the
    #: protocol layer itself refused (tamper + quarantine drops, plus
    #: malformed frames, which are refused in every profile).
    equivocations_detected: int = 0
    evidence_convictions: int = 0
    quarantines: int = 0
    rejected_by_protocol: int = 0

    def view_error_stats(self) -> dict[str, float]:
        """Mean / median / p95 rendered-view error (game units)."""
        if not self.view_errors:
            return {}
        ordered = sorted(self.view_errors)
        return {
            "mean": sum(ordered) / len(ordered),
            "median": ordered[len(ordered) // 2],
            "p95": nearest_rank(ordered, 0.95, presorted=True),
        }

    def age_pdf(self) -> dict[int, float]:
        """P(age = k frames) over all received updates — Figure 7's PDF."""
        total = sum(self.age_histogram.values())
        if total == 0:
            return {}
        return {
            age: count / total for age, count in sorted(self.age_histogram.items())
        }

    def stale_fraction(self) -> float:
        """Fraction of received updates at least ``MAX_USEFUL_AGE_FRAMES``
        old — the Quake bound past which an update counts as lost."""
        total = sum(self.age_histogram.values())
        if total == 0:
            return 0.0
        stale = sum(
            count for age, count in self.age_histogram.items() if age >= MAX_USEFUL_AGE_FRAMES
        )
        return stale / total


class WatchmenSession:
    """Wire a trace, a latency model and (optionally) cheats; then run."""

    def __init__(
        self,
        trace: GameTrace,
        game_map: GameMap | None = None,
        config: WatchmenConfig | None = None,
        latency: LatencyMatrix | None = None,
        network_config: NetworkConfig | None = None,
        behaviours: dict[int, NodeBehaviour] | None = None,
        reputation: ReputationBoard | None = None,
        faults: FaultSchedule | None = None,
        view_error_stride: int | None = None,
        servers: int = 0,
        server_only_proxies: bool = True,
        server_weight: int = 4,
        proxy_pool: list[int] | None = None,
        pool_weights: dict[int, int] | None = None,
    ) -> None:
        self.trace = trace
        self.game_map = game_map or make_longest_yard()
        self.config = config or WatchmenConfig()
        self.reputation = reputation or ReputationBoard()
        #: Observability: the process-wide registry current at build time
        #: (disabled unless a caller wrapped build + run in
        #: ``use_registry``); nodes, schedule and transport bind the same.
        self.obs = get_registry()
        #: sample the rendered-view error every k frames (None = off)
        self.view_error_stride = view_error_stride
        self.view_errors: list[float] = []
        roster = trace.player_ids()
        if len(roster) < 2:
            raise ValueError("a session needs at least two players")
        if servers < 0:
            raise ValueError("servers must be non-negative")
        # Hybrid architecture (Section VI): trusted game servers join the
        # proxy pool — exclusively (every player proxied by a server) or
        # weighted alongside the players.
        self.server_ids = [max(roster) + 1 + i for i in range(servers)]

        total_endpoints = len(roster) + len(self.server_ids)
        self.queue = EventQueue()
        self.network = DatagramNetwork(
            self.queue,
            latency or king_like(total_endpoints, seed=trace.seed),
            network_config or NetworkConfig(seed=trace.seed),
            kinds=TAG_NAMES,
        )
        if self.network.latency.size < total_endpoints:
            raise ValueError("latency matrix too small for players + servers")
        if self.server_ids:
            if server_only_proxies:
                pool = list(self.server_ids)
                weights = None
            else:
                pool = roster + self.server_ids
                weights = {s: server_weight for s in self.server_ids}
            self.schedule = ProxySchedule(
                roster,
                common_seed=self.config.common_seed,
                proxy_period_frames=self.config.proxy_period_frames,
                proxy_pool=pool,
                pool_weights=weights,
                infrastructure=self.server_ids,
            )
        else:
            self.schedule = ProxySchedule(
                roster,
                common_seed=self.config.common_seed,
                proxy_period_frames=self.config.proxy_period_frames,
                proxy_pool=proxy_pool,
                pool_weights=pool_weights,
            )
        # Fault injection (robustness experiments): built after the proxy
        # schedule so declarative proxy-kill faults can be resolved to
        # concrete victims.  None (or an empty schedule) leaves the run
        # bit-identical to a fault-free one — the injector draws from its
        # own RNG lane and only when faults are active.
        self.fault_injector: FaultInjector | None = None
        if faults is not None:
            self.fault_injector = FaultInjector(faults)
            self.fault_injector.resolve(self.schedule, self.config)
            self.network.attach_faults(self.fault_injector)
        #: node -> frame it crash-stopped during this run
        self.crashed: dict[int, int] = {}
        #: optional per-frame hooks: ``on_frame_begin`` fires before any
        #: node runs (the tape recorder stamps frame boundaries here),
        #: ``on_frame_end`` after (chaos harness samples staleness there)
        self.on_frame_begin: Callable[[int], None] | None = None
        self.on_frame_end: Callable[[int], None] | None = None

        self.signer = HmacSigner(signature_bits=self.config.signature_bits)
        for player_id in roster + self.server_ids:
            self.signer.register(player_id)

        #: One symmetric LOS cache shared by every node's planner for the
        #: current frame (cleared at the top of each tick).  Node views
        #: differ (dead reckoning), so entries are keyed by exact eye
        #: positions — sharing never changes results, only avoids repeats.
        self.los_cache = LosCache(self.game_map)
        #: One frame memo for every node: a buffer that reaches many of
        #: them is decoded (with full validation) by the first and looked
        #: up by the rest; each still verifies the signature for itself.
        self.frames = FrameMemo()

        behaviours = dict(behaviours or {})
        #: Players running under a Byzantine fault entry this run (the
        #: chaos harness separates their removals from false evictions).
        self.byzantine_ids: set[int] = set()
        if faults is not None and faults.byzantine:
            self.byzantine_ids = set(faults.byzantine_node_ids())
            for player_id in self.byzantine_ids:
                if player_id not in roster:
                    raise ValueError(
                        f"byzantine fault names unknown player {player_id}"
                    )
                behaviours[player_id] = ByzantineBehaviour(
                    inner=behaviours.get(player_id) or HonestBehaviour(),
                    faults=faults.byzantine_for(player_id),
                )
        self.nodes: dict[int, WatchmenNode] = {}
        for node_id in roster + self.server_ids:
            behaviour = behaviours.get(node_id)
            node = WatchmenNode(
                player_id=node_id,
                roster=roster,
                game_map=self.game_map,
                config=self.config,
                schedule=self.schedule,
                signer=self.signer,
                send_many=self.network.send_many,
                behaviour=behaviour,
                rating_sink=self.reputation.submit_rating,
                is_server=node_id in self.server_ids,
                los_cache=self.los_cache,
                frames=self.frames,
            )
            if isinstance(behaviour, ByzantineBehaviour):
                behaviour.bind(node)
            # Seed frame-0 knowledge: FPS "players are usually aware of all
            # entities of the game" when the match starts.
            node.known = dict(trace.frames[0])
            # Protocol-layer rejections (malformed, tamper, quarantine) flow
            # into the transport's unified drop books so messages_lost and
            # dropped_by_cause stay one coherent account.
            node.protocol_drop = self.network.count_protocol_drop
            if not node.is_server:
                node.publisher.own_future = self._future_oracle_for(node_id)
            self.nodes[node_id] = node
            self.network.register(node_id, node.on_message)

        self._kills_by_frame: dict[int, list] = {}
        for kill in trace.kills:
            self._kills_by_frame.setdefault(kill.frame, []).append(kill)
        self._shots_by_frame: dict[int, list] = {}
        for shot in trace.shots:
            self._shots_by_frame.setdefault(shot.frame, []).append(shot)

    # ------------------------------------------------------------------

    def _future_oracle_for(
        self, player_id: int
    ) -> Callable[[int], AvatarSnapshot | None]:
        """The player's own upcoming movement (his input intentions)."""

        def future(frame: int) -> AvatarSnapshot | None:
            if 0 <= frame < self.trace.num_frames:
                return self.trace.frames[frame][player_id]
            return None

        return future

    # ------------------------------------------------------------------

    def run(self, max_frames: int | None = None) -> SessionReport:
        """Replay the trace through the protocol and aggregate the metrics."""
        num_frames = self.trace.num_frames
        if max_frames is not None:
            num_frames = min(num_frames, max_frames)
        dt = FRAME_SECONDS

        for frame in range(num_frames):
            self.queue.schedule_at(frame * dt, lambda f=frame: self._tick(f))
        self.queue.run()
        return self._report(num_frames)

    def _tick(self, frame: int) -> None:
        if self.on_frame_begin is not None:
            self.on_frame_begin(frame)

        # New frame: reset the shared LOS memo before any planner runs.
        self.los_cache.begin_frame(frame)

        # Scheduled crash-stops (churn, fault injection): the machine is
        # gone — no more sends, no more receives.  The remaining nodes
        # must detect and agree on it.
        if self.fault_injector is not None:
            for node_id in self.fault_injector.begin_frame(frame):
                self.crashed[node_id] = frame
                self.network.unregister(node_id)

        # Feed game interactions first: the killer publishes a claim this
        # frame; both parties update their interaction-recency trackers.
        for shot in self._shots_by_frame.get(frame, ()):
            self.nodes[shot.shooter_id].note_interaction(shot.target_id, frame)
            self.nodes[shot.target_id].note_interaction(shot.shooter_id, frame)
            self._announce_projectile_if_any(frame, shot)
        for kill in self._kills_by_frame.get(frame, ()):
            self.nodes[kill.killer_id].claim_kill(
                frame, kill.victim_id, kill.weapon, kill.distance
            )
            self.nodes[kill.victim_id].note_interaction(kill.killer_id, frame)

        snapshots = self.trace.frames[frame]
        for player_id in self.trace.player_ids():
            if player_id in self.crashed:
                continue
            self.nodes[player_id].on_frame(frame, snapshots[player_id])
        for server_id in self.server_ids:
            if server_id in self.crashed:
                continue
            self.nodes[server_id].on_frame(frame)

        if self.view_error_stride and frame % self.view_error_stride == 0:
            self._sample_view_error(frame, snapshots)

        if self.on_frame_end is not None:
            self.on_frame_end(frame)

    def _sample_view_error(
        self, frame: int, snapshots: dict[int, AvatarSnapshot]
    ) -> None:
        """Lag sample: rendered estimate vs true position, all pairs."""
        for observer_id in self.trace.player_ids():
            if observer_id in self.crashed:
                continue
            node = self.nodes[observer_id]
            for subject_id, truth in snapshots.items():
                if subject_id == observer_id or not truth.alive:
                    continue
                if subject_id in self.crashed:
                    continue  # the trace keeps moving him; the game lost him
                estimate = node.estimate_of(subject_id, frame)
                if estimate is None:
                    continue
                self.view_errors.append(estimate.position.distance_to(truth.position))

    def _announce_projectile_if_any(self, frame: int, shot: ShotEvent) -> None:
        """Projectile shots create short-lived objects the shooter announces."""
        from repro.game.weapons import WEAPONS

        spec = WEAPONS.get(shot.weapon)
        if spec is None or spec.projectile_speed is None:
            return
        shooter = self.trace.frames[frame][shot.shooter_id]
        target = self.trace.frames[frame][shot.target_id]
        direction = (target.position - shooter.position).normalized()
        self.nodes[shot.shooter_id].announce_projectile(
            frame,
            shot.weapon,
            shooter.position,
            direction * spec.projectile_speed,
        )

    # ------------------------------------------------------------------

    def _report(self, num_frames: int) -> SessionReport:
        report = SessionReport(
            num_players=len(self.nodes) - len(self.server_ids),
            num_frames=num_frames,
            ratings=_Concatenation([node.metrics.ratings for node in self.nodes.values()]),
        )
        total_ages: Counter[int] = Counter()
        by_kind: dict[str, Counter[int]] = {}
        for node in self.nodes.values():
            for (kind, age), count in node.metrics.update_ages.items():
                total_ages[age] += count
                by_kind.setdefault(kind, Counter())[age] += count
        report.age_histogram = dict(total_ages)
        report.age_histogram_by_kind = {
            kind: dict(counter) for kind, counter in by_kind.items()
        }
        player_ids = self.trace.player_ids()
        uploads = [self.network.meter.upload_kbps(p) for p in player_ids]
        report.mean_upload_kbps = sum(uploads) / len(uploads)
        report.max_upload_kbps = max(uploads)
        report.server_upload_kbps = {
            server: self.network.meter.upload_kbps(server)
            for server in self.server_ids
        }
        report.messages_sent = self.network.sent
        # Unified accounting: a datagram the receiving protocol layer
        # refused is as lost as one dropped in flight.
        report.messages_lost = self.network.lost + self.network.rejected_by_protocol
        report.rejected_by_protocol = self.network.rejected_by_protocol
        report.equivocations_detected = sum(
            len(node.evidence.equivocation_events) for node in self.nodes.values()
        )
        report.quarantines = sum(
            len(node.evidence.quarantine_events) for node in self.nodes.values()
        )
        report.evidence_convictions = sum(
            len(node.membership.convicted) for node in self.nodes.values()
        )
        report.dropped_by_cause = dict(self.network.dropped_by_cause)
        report.crashed = dict(self.crashed)
        report.proxy_failovers = sum(
            len(node.first_hops.failover_events) for node in self.nodes.values()
        )
        report.banned = self.reputation.banned()
        report.view_errors = list(self.view_errors)
        # Bandwidth gauges: the paper's headline per-node kbps, exported
        # through the registry so snapshots carry them.
        self.obs.gauge("session.players").set(report.num_players)
        self.obs.gauge("session.frames").set(num_frames)
        self.obs.gauge("net.upload_kbps.mean").set(report.mean_upload_kbps)
        self.obs.gauge("net.upload_kbps.max").set(report.max_upload_kbps)
        for server, kbps in report.server_upload_kbps.items():
            self.obs.gauge(f"net.upload_kbps.server.{server}").set(kbps)
        return report
