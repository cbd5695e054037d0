"""The deathmatch simulator: generates game traces Quake-III-style.

This replaces the paper's enhanced Quake III as the trace source.  It runs
the standard discrete event-loop ("in each frame the states of the entities
are updated") at 50 ms frames, advancing bot-controlled avatars with real
physics, resolving shots/kills/pickups, and recording everything into a
:class:`~repro.game.trace.GameTrace`.

Everything is seeded: the same (seed, players, frames, map) produces an
identical trace, which the replay-based experiments rely on.
"""

from __future__ import annotations

import math
from random import Random
from dataclasses import dataclass

from repro.core.config import FRAME_SECONDS
from repro.game.avatar import AvatarState
from repro.game.bots import BotController, HumanlikeBot, WaypointBot
from repro.game.gamemap import GameMap, make_longest_yard
from repro.game.interest import InteractionRecency, LosCache
from repro.game.items import ItemManager
from repro.game.physics import Physics, PhysicsConfig
from repro.game.trace import GameTrace, KillEvent, ShotEvent, TraceEvent
from repro.game.vector import Vec3
from repro.game.weapons import WEAPONS, resolve_shot
from repro.obs.registry import get_registry

__all__ = ["SimulationConfig", "DeathmatchSimulator", "generate_trace"]

RESPAWN_DELAY_FRAMES = 40  # 2 s at 50 ms frames


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Parameters of one simulated deathmatch."""

    num_players: int = 48
    num_frames: int = 1200
    seed: int = 7
    npc_fraction: float = 0.0  # fraction of players driven by WaypointBot
    frame_seconds: float = FRAME_SECONDS

    def __post_init__(self) -> None:
        if self.num_players < 2:
            raise ValueError("a deathmatch needs at least two players")
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")
        if not 0.0 <= self.npc_fraction <= 1.0:
            raise ValueError("npc_fraction must be in [0, 1]")


class DeathmatchSimulator:
    """Runs a full deathmatch and records a trace."""

    def __init__(
        self,
        config: SimulationConfig | None = None,
        game_map: GameMap | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.game_map = game_map or make_longest_yard()
        obs = get_registry()
        self._ctr_shots = obs.counter("sim.shots")
        self._ctr_kills = obs.counter("sim.kills")
        self.rng = Random(self.config.seed)
        self.physics = Physics(
            self.game_map, PhysicsConfig(frame_seconds=self.config.frame_seconds)
        )
        self.items = ItemManager(self.game_map)
        #: Per-frame symmetric LOS cache shared by every bot controller:
        #: bot A seeing bot B is the same geometric query as B seeing A, so
        #: each frame computes roughly half the naive LOS volume.
        self.los = LosCache(self.game_map)
        self.recency = InteractionRecency()
        self.avatars: dict[int, AvatarState] = {}
        self.controllers: dict[int, BotController] = {}
        self._last_shot_frame: dict[int, int] = {}
        self._spawn_players()

    # ---- setup ---------------------------------------------------------------

    def _spawn_players(self) -> None:
        num_npcs = int(round(self.config.num_players * self.config.npc_fraction))
        spawn_points = self.game_map.respawn_points
        for player_id in range(self.config.num_players):
            spawn = spawn_points[player_id % len(spawn_points)]
            jitter = Vec3(
                self.rng.uniform(-40.0, 40.0), self.rng.uniform(-40.0, 40.0), 0.0
            )
            avatar = AvatarState(player_id=player_id, position=spawn + jitter)
            avatar.yaw = self.rng.uniform(-math.pi, math.pi)
            self.avatars[player_id] = avatar
            controller_rng = Random(self.config.seed * 1_000_003 + player_id)
            if player_id < num_npcs:
                self.controllers[player_id] = WaypointBot(
                    player_id, self.game_map, controller_rng, los=self.los
                )
            else:
                self.controllers[player_id] = HumanlikeBot(
                    player_id, self.game_map, controller_rng, los=self.los
                )
            self._last_shot_frame[player_id] = -10_000

    # ---- main loop -------------------------------------------------------------

    def run(self) -> GameTrace:
        trace = GameTrace(
            map_name=self.game_map.name,
            num_players=self.config.num_players,
            frame_seconds=self.config.frame_seconds,
            seed=self.config.seed,
        )
        for frame in range(self.config.num_frames):
            self._step_frame(frame, trace)
        return trace

    def _step_frame(self, frame: int, trace: GameTrace) -> None:
        self.los.begin_frame(frame)
        self.items.tick(frame)
        self._respawn_dead(frame)

        snapshots = {
            pid: avatar.snapshot(frame) for pid, avatar in self.avatars.items()
        }

        # 1. Controllers decide based on the *start-of-frame* world view.
        decisions = {}
        for player_id, controller in self.controllers.items():
            if not self.avatars[player_id].alive:
                continue
            decisions[player_id] = controller.decide(
                frame, snapshots[player_id], snapshots, self.items
            )

        # 2. Kinematics, batched through the flat-array physics kernel
        # (bit-identical to per-avatar Physics.step — tests enforce it).
        moving = list(decisions.items())
        batch = []
        for player_id, decision in moving:
            avatar = self.avatars[player_id]
            batch.append(
                (avatar.position, avatar.velocity, avatar.yaw, decision.intent)
            )
        for (player_id, _), result in zip(moving, self.physics.step_many(batch)):
            avatar = self.avatars[player_id]
            avatar.position = result.position
            avatar.velocity = result.velocity
            avatar.yaw = result.yaw
            avatar.on_ground = result.on_ground
            if result.fall_damage > 0:
                avatar.take_damage(result.fall_damage)
            if result.fell_in_void and avatar.alive:
                avatar.take_damage(10_000)
            if not avatar.alive:
                self._mark_death(frame, player_id, killer_id=None, trace=trace)

        # 3. Combat.
        for player_id, decision in decisions.items():
            if decision.shoot_at is None:
                continue
            self._resolve_shot(frame, player_id, decision.shoot_at, trace)

        # 4. Pickups.
        for avatar in self.avatars.values():
            for pickup in self.items.try_pickups(avatar, frame):
                trace.events.append(
                    TraceEvent(
                        frame=frame,
                        kind="pickup",
                        payload={
                            "player_id": pickup.player_id,
                            "item": pickup.item_name,
                            "item_kind": pickup.item_kind,
                        },
                    )
                )

        # 5. Record the end-of-frame state.
        trace.record_frame(
            {pid: avatar.snapshot(frame) for pid, avatar in self.avatars.items()}
        )

    # ---- combat ------------------------------------------------------------------

    def _resolve_shot(
        self, frame: int, shooter_id: int, target_id: int, trace: GameTrace
    ) -> None:
        shooter = self.avatars[shooter_id]
        target = self.avatars.get(target_id)
        if target is None or not shooter.alive or not target.alive:
            return
        spec = WEAPONS.get(shooter.weapon)
        if spec is None or shooter.ammo < spec.ammo_per_shot:
            return
        if frame - self._last_shot_frame[shooter_id] < spec.refire_frames:
            return
        self._last_shot_frame[shooter_id] = frame
        shooter.ammo -= spec.ammo_per_shot
        self._ctr_shots.inc()

        outcome = resolve_shot(
            self.game_map,
            spec,
            shooter.position,
            shooter.yaw,
            target.position,
            frame_seconds=self.config.frame_seconds,
            roll=self.rng.random(),
        )
        trace.shots.append(
            ShotEvent(
                frame=frame,
                shooter_id=shooter_id,
                target_id=target_id,
                weapon=spec.name,
                hit=outcome.hit,
                damage=outcome.damage,
                distance=outcome.distance,
                visible=outcome.visible,
            )
        )
        self.recency.record(shooter_id, target_id, frame)
        if outcome.hit:
            target.take_damage(outcome.damage)
            if not target.alive:
                shooter.kills += 1
                self._ctr_kills.inc()
                trace.kills.append(
                    KillEvent(
                        frame=frame,
                        killer_id=shooter_id,
                        victim_id=target_id,
                        weapon=spec.name,
                        distance=outcome.distance,
                    )
                )
                self._mark_death(frame, target_id, shooter_id, trace)

    def _mark_death(
        self, frame: int, player_id: int, killer_id: int | None, trace: GameTrace
    ) -> None:
        avatar = self.avatars[player_id]
        avatar.deaths += 1
        avatar.respawn_at_frame = frame + RESPAWN_DELAY_FRAMES
        trace.events.append(
            TraceEvent(
                frame=frame,
                kind="death",
                payload={"player_id": player_id, "killer_id": killer_id},
            )
        )

    def _respawn_dead(self, frame: int) -> None:
        for avatar in self.avatars.values():
            if avatar.alive:
                continue
            if avatar.respawn_at_frame is not None and frame >= avatar.respawn_at_frame:
                spawn = self.rng.choice(self.game_map.respawn_points)
                avatar.respawn(spawn, frame)
                avatar.yaw = self.rng.uniform(-math.pi, math.pi)


def generate_trace(
    num_players: int = 48,
    num_frames: int = 1200,
    seed: int = 7,
    npc_fraction: float = 0.0,
    game_map: GameMap | None = None,
) -> GameTrace:
    """Convenience wrapper: run one deathmatch and return its trace."""
    config = SimulationConfig(
        num_players=num_players,
        num_frames=num_frames,
        seed=seed,
        npc_fraction=npc_fraction,
    )
    return DeathmatchSimulator(config, game_map=game_map).run()
