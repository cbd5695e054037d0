"""Tape scenarios: the single construction path for recordable runs.

A :class:`TapeScenario` captures *everything* a tape needs to rebuild the
run that produced it — player count, frame count, every RNG lane's seed,
the map, the latency model, the network weather, the chaos scenario, and
the cheat roster.  Record and verify both go through
:func:`TapeScenario.make_session`, so a divergence between them can only
come from the protocol itself, never from construction drift.

Cheats are declared as :class:`CheatSpec` rows (kind + JSON-safe params)
and instantiated through :data:`CHEAT_FACTORIES`; the environment hooks
some cheats need (proxy lookup, rosters) are attached with the same
:func:`repro.analysis.detection.wire_cheat` used by the detection
experiments, keeping taped cheaters identical to studied ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from repro.analysis.detection import wire_cheat
from repro.cheats.base import CheatBehaviour
from repro.cheats.state import (
    FakeKillCheat,
    GuidanceLieCheat,
    SpeedHack,
    TeleportCheat,
)
from repro.core.config import WatchmenConfig
from repro.core.protocol import WatchmenSession
from repro.faults.chaos import (
    ChaosScenario,
    build_schedule,
    byzantine_scenarios,
    default_scenarios,
)
from repro.faults.schedule import FaultSchedule
from repro.game.gamemap import GameMap, make_corridors, make_longest_yard
from repro.game.simulator import generate_trace
from repro.game.trace import GameTrace
from repro.net.latency import LatencyMatrix, king_like, peerwise_like, uniform_lan
from repro.net.transport import NetworkConfig

__all__ = [
    "CheatSpec",
    "TapeScenario",
    "CHEAT_FACTORIES",
    "GOLDEN_PRESETS",
    "make_cheat",
]

MAP_FACTORIES: dict[str, Callable[[], GameMap]] = {
    "longest-yard": make_longest_yard,
    "corridors": make_corridors,
}

#: cheat kinds a tape may declare; params must stay JSON-safe
CHEAT_FACTORIES: dict[str, Callable[..., CheatBehaviour]] = {
    "speed-hack": SpeedHack,
    "teleport": TeleportCheat,
    "fake-kill": FakeKillCheat,
    "guidance-lie": GuidanceLieCheat,
}


@dataclass(frozen=True, slots=True)
class CheatSpec:
    """One cheater: which player runs which cheat, with which knobs."""

    player_id: int
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in CHEAT_FACTORIES:
            raise ValueError(
                f"unknown cheat kind {self.kind!r} "
                f"(known: {', '.join(sorted(CHEAT_FACTORIES))})"
            )

    def to_json(self) -> dict[str, Any]:
        return {
            "player_id": self.player_id,
            "kind": self.kind,
            "params": dict(self.params),
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "CheatSpec":
        return CheatSpec(
            player_id=data["player_id"],
            kind=data["kind"],
            params=dict(data.get("params", {})),
        )


def make_cheat(spec: CheatSpec) -> CheatBehaviour:
    """Instantiate a cheat from its declarative spec."""
    return CHEAT_FACTORIES[spec.kind](**spec.params)


@dataclass(frozen=True, slots=True)
class TapeScenario:
    """Everything needed to deterministically rebuild a recorded run."""

    players: int
    frames: int
    seed: int
    map_name: str = "longest-yard"
    npc_fraction: float = 0.0
    latency: str = "king"  # "king" | "peerwise" | "lan"
    loss_rate: float = 0.01
    jitter_ms: float = 3.0
    loss_model: str = "iid"  # "iid" | "gilbert-elliott"
    servers: int = 0
    #: chaos scenario name from :func:`repro.faults.chaos.default_scenarios`
    #: or :func:`repro.faults.chaos.byzantine_scenarios` (provenance only —
    #: the *materialised* schedule embedded in the tape is authoritative at
    #: verify time), or None for a fault-free run
    chaos: str | None = None
    #: the ``WatchmenConfig.profile`` rung, serialized as three flags (the
    #: tape format is frozen) that must agree: all off is ``paper``, all on
    #: is ``hardened`` (:meth:`with_chaos_flags` adopts the named chaos
    #: scenario's rung)
    failover: bool = True
    reliable: bool = True
    hardening: bool = True
    cheats: tuple[CheatSpec, ...] = ()
    #: model-checker envelope (``repro mc`` counterexample tapes only):
    #: config overrides, controlled message types, decision window, fault
    #: budgets, and the violating delivery schedule.  ``None`` for every
    #: ordinary tape — and omitted from the JSON form so the golden
    #: corpus fingerprints are untouched.  See ``repro.mc.controller``.
    mc: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.map_name not in MAP_FACTORIES:
            raise ValueError(f"unknown map {self.map_name!r}")
        if self.latency not in ("king", "peerwise", "lan"):
            raise ValueError(f"unknown latency model {self.latency!r}")
        cheaters = [spec.player_id for spec in self.cheats]
        if len(cheaters) != len(set(cheaters)):
            raise ValueError("at most one cheat per player")
        for spec in self.cheats:
            if not 0 <= spec.player_id < self.players:
                raise ValueError(f"cheater {spec.player_id} outside roster")

    # ---- serialisation -----------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        data = {
            "players": self.players,
            "frames": self.frames,
            "seed": self.seed,
            "map_name": self.map_name,
            "npc_fraction": self.npc_fraction,
            "latency": self.latency,
            "loss_rate": self.loss_rate,
            "jitter_ms": self.jitter_ms,
            "loss_model": self.loss_model,
            "servers": self.servers,
            "chaos": self.chaos,
            "failover": self.failover,
            "reliable": self.reliable,
            "hardening": self.hardening,
            "cheats": [spec.to_json() for spec in self.cheats],
        }
        if self.mc is not None:
            data["mc"] = dict(self.mc)
        return data

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "TapeScenario":
        fields = dict(data)
        fields["cheats"] = tuple(
            CheatSpec.from_json(row) for row in fields.get("cheats", ())
        )
        return TapeScenario(**fields)

    # ---- construction ------------------------------------------------------

    def make_map(self) -> GameMap:
        return MAP_FACTORIES[self.map_name]()

    def make_trace(self, game_map: GameMap | None = None) -> GameTrace:
        """Simulate the deathmatch this tape records the protocol run of."""
        trace = generate_trace(
            num_players=self.players,
            num_frames=self.frames,
            seed=self.seed,
            npc_fraction=self.npc_fraction,
            game_map=game_map if game_map is not None else self.make_map(),
        )
        trace.map_name = self.map_name
        return trace

    def _chaos_entry(self) -> "ChaosScenario":
        by_name = {
            entry.name: entry
            for entry in default_scenarios() + byzantine_scenarios()
        }
        if self.chaos not in by_name:
            raise ValueError(
                f"unknown chaos scenario {self.chaos!r} "
                f"(known: {', '.join(sorted(by_name))})"
            )
        return by_name[self.chaos]

    def make_faults(self, roster: list[int]) -> FaultSchedule | None:
        """Materialise the chaos scenario's faults (record time only)."""
        if self.chaos is None:
            return None
        schedule, _ = build_schedule(
            self._chaos_entry(), roster, self.frames, self.seed
        )
        return schedule

    def with_chaos_flags(self) -> "TapeScenario":
        """Adopt the named chaos scenario's rung as the three flags, and its
        bursty (Gilbert–Elliott) loss model when it asks for one."""
        if self.chaos is None:
            return self
        entry = self._chaos_entry()
        hardened = entry.profile == "hardened"
        return replace(
            self,
            failover=hardened,
            reliable=hardened,
            hardening=hardened,
            loss_model="gilbert-elliott" if entry.burst_loss else self.loss_model,
        )

    def make_latency(self, size: int) -> LatencyMatrix:
        if self.latency == "king":
            return king_like(size, seed=self.seed)
        if self.latency == "peerwise":
            return peerwise_like(size, seed=self.seed)
        return uniform_lan(size)

    def make_config(self) -> WatchmenConfig:
        if not self.failover == self.reliable == self.hardening:
            raise ValueError(
                "failover, reliable and hardening are one rung and must "
                "agree: all False is paper, all True is hardened"
            )
        settings: dict[str, Any] = {
            "profile": "hardened" if self.hardening else "paper"
        }
        if self.mc is not None:
            settings.update(self.mc.get("config", {}))
        return WatchmenConfig(**settings)

    def make_session(
        self,
        trace: GameTrace,
        faults: FaultSchedule | None = None,
        game_map: GameMap | None = None,
    ) -> WatchmenSession:
        """The one session-construction path record and verify share.

        ``trace`` is the embedded (or freshly simulated) deathmatch;
        ``faults`` is the *materialised* schedule — pass the tape's copy
        when verifying so a recorded chaos run replays the identical
        fault plan even if scenario-building logic changes later.
        """
        game_map = game_map if game_map is not None else self.make_map()
        config = self.make_config()
        behaviours: dict[int, CheatBehaviour] = {}
        for spec in self.cheats:
            cheat = make_cheat(spec)
            wire_cheat(cheat, spec.player_id, trace, game_map, config)
            behaviours[spec.player_id] = cheat
        session = WatchmenSession(
            trace,
            game_map=game_map,
            config=config,
            latency=self.make_latency(self.players + self.servers),
            network_config=NetworkConfig(
                loss_rate=self.loss_rate,
                jitter_ms=self.jitter_ms,
                loss_model=self.loss_model,
                seed=trace.seed,
            ),
            behaviours=behaviours or None,
            faults=faults,
            servers=self.servers,
        )
        if self.mc is not None:
            # Deferred import: repro.mc drives sessions through this module,
            # so a top-level import would be circular.  The controller must
            # install *here*, before any recorder hooks attach, so record
            # and verify chain the frame hooks in the same order.
            from repro.mc.controller import McController

            McController.from_json(self.mc).install(session)
        return session


#: the committed golden corpus (see ``tests/tapes/`` and ``make tapes``):
#: small, seeded, a few hundred frames — one honest baseline, one chaos
#: run with a materialised fault schedule, one Byzantine equivocation run
#: under hardening, one cheater-heavy match
GOLDEN_PRESETS: dict[str, TapeScenario] = {
    "normal": TapeScenario(players=8, frames=220, seed=42),
    "chaos": TapeScenario(
        players=10, frames=240, seed=7, chaos="proxy_kill_midepoch"
    ).with_chaos_flags(),
    "byzantine": TapeScenario(
        players=10, frames=240, seed=17, chaos="byz_equivocation"
    ).with_chaos_flags(),
    "cheater": TapeScenario(
        players=8,
        frames=220,
        seed=2013,
        cheats=(
            CheatSpec(1, "speed-hack", {"factor": 2.5, "cheat_rate": 0.2, "seed": 11}),
            CheatSpec(3, "fake-kill", {"victim_ids": [0, 2], "cheat_rate": 0.05,
                                       "seed": 12}),
            CheatSpec(5, "guidance-lie", {"cheat_rate": 0.5, "seed": 13}),
            CheatSpec(6, "teleport", {"distance": 500.0, "cheat_rate": 0.03,
                                      "seed": 14}),
        ),
    ),
}
