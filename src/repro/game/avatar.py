"""Avatar state: everything an update message can carry about a player.

"The state of an avatar typically includes its position, aim, objects it
owns, health, etc." — this module defines that state, its snapshot form
(what goes on the wire) and the delta between snapshots (updates are
delta-coded in Quake III and in our size model).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.game.vector import Vec3

__all__ = ["AvatarState", "AvatarSnapshot", "snapshot_delta_fields"]

MAX_HEALTH = 100
MAX_ARMOR = 100


@dataclass
class AvatarState:
    """Mutable, authoritative state of one avatar inside the simulator."""

    player_id: int
    position: Vec3 = field(default_factory=Vec3)
    velocity: Vec3 = field(default_factory=Vec3)
    yaw: float = 0.0
    health: int = MAX_HEALTH
    armor: int = 0
    weapon: str = "machinegun"
    ammo: int = 100
    on_ground: bool = True
    alive: bool = True
    kills: int = 0
    deaths: int = 0
    respawn_at_frame: int | None = None

    def take_damage(self, amount: int) -> int:
        """Apply ``amount`` damage (armor absorbs 2/3); return health dealt."""
        if amount < 0:
            raise ValueError("damage must be non-negative")
        if not self.alive:
            return 0
        absorbed = min(self.armor, (amount * 2) // 3)
        self.armor -= absorbed
        dealt = amount - absorbed
        self.health -= dealt
        if self.health <= 0:
            self.health = 0
            self.alive = False
        return dealt

    def heal(self, amount: int, cap: int = MAX_HEALTH) -> None:
        self.health = min(cap, self.health + amount)

    def respawn(self, position: Vec3, frame: int) -> None:
        self.position = position
        self.velocity = Vec3.zero()
        self.health = MAX_HEALTH
        self.armor = 0
        self.weapon = "machinegun"
        self.ammo = 100
        self.alive = True
        self.respawn_at_frame = frame

    def snapshot(self, frame: int) -> "AvatarSnapshot":
        return AvatarSnapshot(
            player_id=self.player_id,
            frame=frame,
            position=self.position,
            velocity=self.velocity,
            yaw=self.yaw,
            health=self.health,
            armor=self.armor,
            weapon=self.weapon,
            ammo=self.ammo,
            alive=self.alive,
        )


@dataclass(frozen=True, slots=True)
class AvatarSnapshot:
    """Immutable per-frame view of an avatar — the payload of state updates."""

    player_id: int
    frame: int
    position: Vec3
    velocity: Vec3
    yaw: float
    health: int
    armor: int
    weapon: str
    ammo: int
    alive: bool

    def position_only(self) -> "AvatarSnapshot":
        """Strip everything but identity/position — the 'Others' update."""
        return AvatarSnapshot(
            player_id=self.player_id,
            frame=self.frame,
            position=self.position,
            velocity=Vec3.zero(),
            yaw=0.0,
            health=0,
            armor=0,
            weapon="",
            ammo=0,
            alive=self.alive,
        )


def snapshot_delta_fields(
    old: AvatarSnapshot | None, new: AvatarSnapshot
) -> list[str]:
    """Field names that changed between two snapshots (delta coding).

    Quake III updates are delta-coded: "updates show high temporal
    similarities and can be delta-coded, only including the differences".
    The wire-size model charges per changed field.
    """
    if old is None or old.player_id != new.player_id:
        return [
            "position",
            "velocity",
            "yaw",
            "health",
            "armor",
            "weapon",
            "ammo",
            "alive",
        ]
    changed: list[str] = []
    if old.position != new.position:
        changed.append("position")
    if old.velocity != new.velocity:
        changed.append("velocity")
    if old.yaw != new.yaw:
        changed.append("yaw")
    if old.health != new.health:
        changed.append("health")
    if old.armor != new.armor:
        changed.append("armor")
    if old.weapon != new.weapon:
        changed.append("weapon")
    if old.ammo != new.ammo:
        changed.append("ammo")
    if old.alive != new.alive:
        changed.append("alive")
    return changed
