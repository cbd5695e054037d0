"""Bot controllers that drive avatars to generate realistic traces.

The paper's traces come from 48-player Quake III deathmatches (humans and
NPCs).  Our substitute controllers reproduce the *statistical* properties
the experiments depend on:

- hotspot-concentrated presence around items and the central platform
  (Figure 1): bots seek items, and the important items cluster spatially;
- NPC vs human distinction (Figure 1a vs 1b): :class:`WaypointBot` follows
  predetermined paths ("NPCs tend to use predetermined paths and
  locations"), :class:`HumanlikeBot` mixes noisy item-seeking, combat
  pursuit and retreat;
- attention dynamics (IS churn, interaction recency): bots turn towards and
  chase visible enemies and fire at them.

Controllers are pure policies: given the world view for a frame they emit a
:class:`BotDecision` (movement intent + optional shot).  The simulator owns
all mutation, so controllers stay trivially testable.
"""

from __future__ import annotations

import math
from random import Random
from dataclasses import dataclass
from typing import Protocol

from repro.game.avatar import AvatarSnapshot
from repro.game.gamemap import GameMap, eye_position
from repro.game.items import ItemManager
from repro.game.physics import MoveIntent
from repro.game.vector import Vec3
from repro.game.weapons import WEAPONS

__all__ = ["BotDecision", "BotController", "HumanlikeBot", "WaypointBot", "LosProvider"]


class LosProvider(Protocol):
    """Anything answering line-of-sight queries (a map or a per-frame cache)."""

    def line_of_sight(self, eye: Vec3, target: Vec3) -> bool:
        ...

ENGAGE_RANGE = 1500.0
LOW_HEALTH = 35


@dataclass(frozen=True, slots=True)
class BotDecision:
    """A controller's output for one frame."""

    intent: MoveIntent
    shoot_at: int | None = None  # target player id, or None


class BotController:
    """Base class: common perception and steering helpers."""

    def __init__(
        self,
        player_id: int,
        game_map: GameMap,
        rng: Random,
        los: "LosProvider | None" = None,
    ) -> None:
        self.player_id = player_id
        self.game_map = game_map
        #: LOS provider: the map itself, or a shared per-frame cache the
        #: simulator passes so the symmetric A-sees-B test is computed once
        #: across all bots of a frame.  Results are identical either way.
        self.los: LosProvider = los if los is not None else game_map
        self.rng = rng
        self._goal: Vec3 | None = None
        self._goal_expires = 0

    # -- subclass hook -------------------------------------------------------

    def decide(
        self,
        frame: int,
        me: AvatarSnapshot,
        everyone: dict[int, AvatarSnapshot],
        items: ItemManager,
    ) -> BotDecision:
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------

    def _visible_enemies(
        self, me: AvatarSnapshot, everyone: dict[int, AvatarSnapshot]
    ) -> list[AvatarSnapshot]:
        """Alive enemies in engage range with line of sight, nearest first.

        Flat hot-loop version of ``_visible_enemies_reference``
        (``tests/reference/game.py``): the range check inlines
        ``distance_to`` with hoisted observer coordinates, and the sort
        reuses each distance instead of recomputing it per comparison.
        Distances are bit-identical and the sort is stable, so the returned
        order matches the reference exactly (property tests enforce it).
        """
        enemies: list[AvatarSnapshot] = []
        my_eye = eye_position(me.position)
        my_position = me.position
        mx, my_y, mz = my_position.x, my_position.y, my_position.z
        my_id = self.player_id
        line_of_sight = self.los.line_of_sight
        sqrt = math.sqrt
        distances: dict[int, float] = {}
        for other_id, snap in everyone.items():
            if other_id == my_id or not snap.alive:
                continue
            snap_position = snap.position
            dx = snap_position.x - mx
            dy = snap_position.y - my_y
            dz = snap_position.z - mz
            distance = sqrt(dx * dx + dy * dy + dz * dz)
            if distance > ENGAGE_RANGE:
                continue
            if line_of_sight(my_eye, eye_position(snap_position)):
                enemies.append(snap)
                distances[other_id] = distance
        enemies.sort(key=lambda s: distances[s.player_id])
        return enemies

    def _steer_towards(
        self, me: AvatarSnapshot, goal: Vec3, speed: float = 320.0
    ) -> MoveIntent:
        offset = (goal - me.position).with_z(0.0)
        if offset.length() < 24.0:
            return MoveIntent(wish_speed=0.0, yaw=me.yaw)
        direction = offset.normalized()
        jump = goal.z > me.position.z + 20.0 and self.rng.random() < 0.3
        return MoveIntent(
            wish_direction=direction,
            wish_speed=speed,
            jump=jump,
            yaw=direction.yaw(),
        )

    @staticmethod
    def _aim_at(me: AvatarSnapshot, target: AvatarSnapshot) -> float:
        return (target.position - me.position).yaw()


class HumanlikeBot(BotController):
    """Noisy goal-driven play: items, combat pursuit, retreat.

    Priorities each frame:

    1. low health → run for the nearest health item;
    2. visible enemy → face it, strafe, fire when roughly on target;
    3. otherwise → head for a desirable item (weapons/armor weighted high,
       which concentrates presence on the hotspot platforms), with goal
       re-picks on a noisy timer.
    """

    _KIND_WEIGHTS = {"weapon": 5.0, "armor": 4.0, "powerup": 4.0, "health": 2.0, "ammo": 1.0}

    def decide(
        self,
        frame: int,
        me: AvatarSnapshot,
        everyone: dict[int, AvatarSnapshot],
        items: ItemManager,
    ) -> BotDecision:
        if me.health <= LOW_HEALTH:
            target = items.nearest_available(me.position, "health")
            if target is not None:
                return BotDecision(self._steer_towards(me, target.spec.position))

        enemies = self._visible_enemies(me, everyone)
        # Spawn-armed bots rush a real weapon first unless cornered —
        # the classic opening that funnels everyone to the weapon spots.
        if me.weapon == "machinegun" and (
            not enemies
            or enemies[0].position.distance_to(me.position) > 500.0
        ):
            weapon_item = items.nearest_available(me.position, "weapon")
            if weapon_item is not None:
                return BotDecision(
                    self._steer_towards(me, weapon_item.spec.position)
                )
        if enemies:
            enemy = enemies[0]
            yaw_to_enemy = self._aim_at(me, enemy)
            aim_error = abs(
                (yaw_to_enemy - me.yaw + math.pi) % (2.0 * math.pi) - math.pi
            )
            spec = WEAPONS.get(me.weapon, WEAPONS["machinegun"])
            shoot = (
                aim_error < 4.0 * spec.spread + 0.05
                and me.ammo >= spec.ammo_per_shot
                and self.rng.random() < 0.8
            )
            # Strafe perpendicular to the enemy while keeping aim on it.
            strafe_sign = 1.0 if (frame // 30 + self.player_id) % 2 == 0 else -1.0
            strafe = Vec3.from_yaw(yaw_to_enemy + strafe_sign * math.pi / 2.0)
            closing = Vec3.from_yaw(yaw_to_enemy)
            direction = (strafe * 0.7 + closing * 0.5).normalized()
            intent = MoveIntent(
                wish_direction=direction,
                wish_speed=300.0,
                jump=self.rng.random() < 0.05,
                yaw=yaw_to_enemy,
            )
            return BotDecision(intent, enemy.player_id if shoot else None)

        goal = self._current_goal(frame, me, items)
        return BotDecision(self._steer_towards(me, goal))

    def _current_goal(
        self, frame: int, me: AvatarSnapshot, items: ItemManager
    ) -> Vec3:
        if self._goal is not None and frame < self._goal_expires:
            if self._goal.distance_to(me.position) > 48.0:
                return self._goal
        candidates = items.available_items()
        if candidates:
            weights = [
                self._KIND_WEIGHTS.get(inst.spec.kind, 1.0)
                / (1.0 + inst.spec.position.distance_to(me.position) / 800.0)
                for inst in candidates
            ]
            chosen = self.rng.choices(candidates, weights=weights, k=1)[0]
            self._goal = chosen.spec.position
        else:
            self._goal = self.rng.choice(self.game_map.respawn_points)
        self._goal_expires = frame + self.rng.randint(60, 200)
        return self._goal


class WaypointBot(BotController):
    """An NPC that patrols a fixed waypoint loop, firing opportunistically.

    The loop is derived deterministically from the map's items and respawn
    points, giving the ridge-like NPC heatmap of Figure 1(b).
    """

    def __init__(
        self,
        player_id: int,
        game_map: GameMap,
        rng: Random,
        los: LosProvider | None = None,
    ) -> None:
        super().__init__(player_id, game_map, rng, los=los)
        anchors = list(game_map.item_positions()) + list(game_map.respawn_points)
        if not anchors:
            raise ValueError("map has no anchors to build a patrol loop")
        start = player_id % len(anchors)
        stride = 1 + player_id % 3
        self.waypoints = [anchors[(start + i * stride) % len(anchors)] for i in range(6)]
        self._index = 0

    def decide(
        self,
        frame: int,
        me: AvatarSnapshot,
        everyone: dict[int, AvatarSnapshot],
        items: ItemManager,
    ) -> BotDecision:
        enemies = self._visible_enemies(me, everyone)
        shoot_at = None
        yaw = None
        if enemies:
            enemy = enemies[0]
            yaw = self._aim_at(me, enemy)
            spec = WEAPONS.get(me.weapon, WEAPONS["machinegun"])
            if me.ammo >= spec.ammo_per_shot and self.rng.random() < 0.5:
                shoot_at = enemy.player_id

        waypoint = self.waypoints[self._index]
        if waypoint.distance_to(me.position) < 64.0:
            self._index = (self._index + 1) % len(self.waypoints)
            waypoint = self.waypoints[self._index]
        intent = self._steer_towards(me, waypoint, speed=280.0)
        if yaw is not None:
            intent = MoveIntent(
                wish_direction=intent.wish_direction,
                wish_speed=intent.wish_speed,
                jump=intent.jump,
                yaw=yaw,
            )
        return BotDecision(intent, shoot_at)
