"""Movement physics envelope: the rules verifiers check updates against.

Watchmen verifies that "movements follow game physics (e.g., gravity,
limited velocity, angular speed, permitted position)".  This module is the
single source of truth for those rules — the simulator moves avatars with
it, and the verification layer re-uses it to rate position updates, so an
honest trace is physics-clean by construction and speed hacks are exactly
the updates that violate it.

Numbers follow Quake III: 320 u/s run speed, 800 u/s² gravity, 270 u/s jump
velocity, 50 ms frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import FRAME_SECONDS, MAX_GROUND_SPEED, MAX_TURN_RATE
from repro.game.gamemap import GameMap
from repro.game.vector import Vec3, clamp

__all__ = ["PhysicsConfig", "MoveIntent", "MoveResult", "Physics"]


@dataclass(frozen=True, slots=True)
class PhysicsConfig:
    """Tunable movement envelope (defaults match Quake III)."""

    frame_seconds: float = FRAME_SECONDS
    max_ground_speed: float = MAX_GROUND_SPEED
    max_air_speed: float = 360.0
    gravity: float = 800.0
    jump_velocity: float = 270.0
    max_turn_rate: float = MAX_TURN_RATE  # rad/s — human mouse flicks are fast
    max_fall_speed: float = 900.0  # terminal velocity (air drag clamp)
    step_height: float = 18.0
    fall_damage_speed: float = 580.0  # vertical impact speed causing damage
    fall_damage_per_speed: float = 0.05
    void_z: float = -400.0  # below this an avatar falls out of the world

    def __post_init__(self) -> None:
        if self.frame_seconds <= 0:
            raise ValueError("frame_seconds must be positive")
        if self.max_ground_speed <= 0 or self.max_air_speed <= 0:
            raise ValueError("speed caps must be positive")

    @property
    def max_frame_distance(self) -> float:
        """The farthest an honest avatar can travel in one frame (any mode)."""
        return max(self.max_ground_speed, self.max_air_speed) * self.frame_seconds


@dataclass(frozen=True, slots=True)
class MoveIntent:
    """What a player asks his avatar to do in one frame."""

    wish_direction: Vec3 = Vec3()  # desired horizontal direction (normalised)
    wish_speed: float = 0.0  # desired horizontal speed, clamped by physics
    jump: bool = False
    yaw: float = 0.0  # desired view yaw after the frame


@dataclass(frozen=True, slots=True)
class MoveResult:
    """Outcome of advancing an avatar's kinematics by one frame."""

    position: Vec3
    velocity: Vec3
    yaw: float
    on_ground: bool
    fall_damage: int
    fell_in_void: bool


class Physics:
    """Frame-step kinematics over a :class:`GameMap`."""

    def __init__(self, game_map: GameMap, config: PhysicsConfig | None = None) -> None:
        self.game_map = game_map
        self._config = config or PhysicsConfig()
        # The legality envelope of one frame.  Each bound method is its
        # config expression times ``frames``, and ``x * 1`` is ``x``, so
        # ``unit * frames`` is that method's value, bit for bit.
        self._travel_unit = self.max_horizontal_travel(1)
        self._ascent_unit = self.max_ascent(1)
        self._descent_unit = self.max_descent(1)

    @property
    def config(self) -> PhysicsConfig:
        """The movement envelope, fixed for this object's lifetime: the
        per-frame units above are read from it once."""
        return self._config

    # ---- stepping ----------------------------------------------------------

    def step(
        self,
        position: Vec3,
        velocity: Vec3,
        yaw: float,
        intent: MoveIntent,
    ) -> MoveResult:
        """Advance one frame of kinematics, honouring every rule verifiers use."""
        cfg = self.config
        dt = cfg.frame_seconds

        floor = self.game_map.floor_height(position)
        on_ground = floor is not None and position.z <= floor + 0.5

        # Horizontal control: full control on ground, reduced in the air.
        speed_cap = cfg.max_ground_speed if on_ground else cfg.max_air_speed
        wish_speed = clamp(intent.wish_speed, 0.0, speed_cap)
        wish = intent.wish_direction.with_z(0.0).normalized() * wish_speed
        if on_ground:
            horizontal = wish
        else:
            current = velocity.with_z(0.0)
            horizontal = current.lerp(wish, 0.15)  # limited air control
            if horizontal.horizontal_length() > cfg.max_air_speed:
                horizontal = horizontal.normalized() * cfg.max_air_speed

        # Vertical: jumps and gravity.
        vz = velocity.z
        if on_ground:
            vz = cfg.jump_velocity if intent.jump else 0.0
        vz = max(vz - cfg.gravity * dt, -cfg.max_fall_speed)

        new_velocity = Vec3(horizontal.x, horizontal.y, vz)
        new_position = position + new_velocity * dt
        new_position = self.game_map.clamp_to_bounds(new_position)

        # Walls: moving laterally into a solid whose top is more than a
        # step above us blocks the horizontal motion (no climbing pillars).
        target_floor = self.game_map.floor_height(new_position)
        if (
            target_floor is not None
            and target_floor > position.z + cfg.step_height
            and new_position.z < target_floor
        ):
            new_velocity = Vec3(0.0, 0.0, vz)
            new_position = Vec3(position.x, position.y, position.z + vz * dt)
            new_position = self.game_map.clamp_to_bounds(new_position)

        # Land on floors (with step-up tolerance).
        fall_damage = 0
        landed_floor = self.game_map.floor_height(new_position)
        if landed_floor is not None and new_position.z <= landed_floor:
            impact = max(0.0, -new_velocity.z)
            if impact > cfg.fall_damage_speed:
                fall_damage = int(
                    (impact - cfg.fall_damage_speed) * cfg.fall_damage_per_speed
                )
            new_position = new_position.with_z(landed_floor)
            new_velocity = new_velocity.with_z(0.0)
            grounded = True
        else:
            grounded = False

        # Turn-rate limit.
        new_yaw = self._turn_towards(yaw, intent.yaw, cfg.max_turn_rate * dt)

        fell = new_position.z < cfg.void_z
        return MoveResult(
            position=new_position,
            velocity=new_velocity,
            yaw=new_yaw,
            on_ground=grounded,
            fall_damage=fall_damage,
            fell_in_void=fell,
        )

    def step_many(
        self,
        batch: "list[tuple[Vec3, Vec3, float, MoveIntent]]",
    ) -> list[MoveResult]:
        """Advance one frame for a whole roster — the flat-array kernel.

        Bit-identical to calling :meth:`step` per entry (property tests
        enforce it): every float expression below mirrors the scalar path
        operation-for-operation, including apparent no-ops like
        ``+ 0.0 * 0.0`` (the ``z`` term of a dot product over a vector
        whose ``z`` is exactly ``0.0``).  The speedup comes from hoisting
        config/map lookups out of the per-avatar loop, querying floors via
        :meth:`GameMap.floor_height_xy`, and doing the vector algebra on
        plain floats instead of intermediate ``Vec3`` instances.
        """
        cfg = self.config
        dt = cfg.frame_seconds
        game_map = self.game_map
        floor_height_xy = game_map.floor_height_xy
        bounds_min = game_map.bounds_min
        bounds_max = game_map.bounds_max
        bmin_x, bmin_y, bmin_z = bounds_min.x, bounds_min.y, bounds_min.z
        bmax_x, bmax_y, bmax_z = bounds_max.x, bounds_max.y, bounds_max.z
        max_ground_speed = cfg.max_ground_speed
        max_air_speed = cfg.max_air_speed
        gravity_dt = cfg.gravity * dt
        neg_max_fall = -cfg.max_fall_speed
        jump_velocity = cfg.jump_velocity
        step_height = cfg.step_height
        fall_damage_speed = cfg.fall_damage_speed
        fall_damage_per_speed = cfg.fall_damage_per_speed
        void_z = cfg.void_z
        max_turn = cfg.max_turn_rate * dt
        neg_max_turn = -max_turn
        pi = math.pi
        two_pi = 2.0 * math.pi
        sqrt = math.sqrt
        hypot = math.hypot
        results: list[MoveResult] = []
        append = results.append

        for position, velocity, yaw, intent in batch:
            px, py, pz = position.x, position.y, position.z
            floor = floor_height_xy(px, py)
            on_ground = floor is not None and pz <= floor + 0.5

            # Horizontal control (clamp / with_z(0) / normalized, inlined).
            speed_cap = max_ground_speed if on_ground else max_air_speed
            wish_speed = intent.wish_speed
            wish_speed = (
                0.0
                if wish_speed < 0.0
                else speed_cap if wish_speed > speed_cap else wish_speed
            )
            direction = intent.wish_direction
            wx, wy = direction.x, direction.y
            norm = sqrt(wx * wx + wy * wy + 0.0 * 0.0)
            if norm < 1e-12:
                wish_x = 0.0 * wish_speed
                wish_y = 0.0 * wish_speed
            else:
                wish_x = (wx / norm) * wish_speed
                wish_y = (wy / norm) * wish_speed
            if on_ground:
                hx, hy = wish_x, wish_y
            else:
                cx, cy = velocity.x, velocity.y
                hx = cx + (wish_x - cx) * 0.15
                hy = cy + (wish_y - cy) * 0.15
                if hypot(hx, hy) > max_air_speed:
                    hnorm = sqrt(hx * hx + hy * hy + 0.0 * 0.0)
                    if hnorm < 1e-12:
                        hx = 0.0 * max_air_speed
                        hy = 0.0 * max_air_speed
                    else:
                        hx = (hx / hnorm) * max_air_speed
                        hy = (hy / hnorm) * max_air_speed

            # Vertical: jumps and gravity.
            vz = velocity.z
            if on_ground:
                vz = jump_velocity if intent.jump else 0.0
            vz = max(vz - gravity_dt, neg_max_fall)

            nx = min(max(px + hx * dt, bmin_x), bmax_x)
            ny = min(max(py + hy * dt, bmin_y), bmax_y)
            nz = min(max(pz + vz * dt, bmin_z), bmax_z)

            # Walls block lateral motion into a too-tall solid.
            target_floor = floor_height_xy(nx, ny)
            if (
                target_floor is not None
                and target_floor > pz + step_height
                and nz < target_floor
            ):
                hx = 0.0
                hy = 0.0
                nx = min(max(px, bmin_x), bmax_x)
                ny = min(max(py, bmin_y), bmax_y)
                nz = min(max(pz + vz * dt, bmin_z), bmax_z)
                landed_floor = floor_height_xy(nx, ny)
            else:
                # floor_height is pure: the scalar path's second query on
                # the unchanged position would return the same value.
                landed_floor = target_floor

            # Land on floors (with step-up tolerance).
            fall_damage = 0
            if landed_floor is not None and nz <= landed_floor:
                impact = max(0.0, -vz)
                if impact > fall_damage_speed:
                    fall_damage = int(
                        (impact - fall_damage_speed) * fall_damage_per_speed
                    )
                nz = landed_floor
                out_vz = 0.0
                grounded = True
            else:
                out_vz = vz
                grounded = False

            # Turn-rate limit (_turn_towards, inlined).
            delta = (intent.yaw - yaw + pi) % two_pi - pi
            delta = (
                neg_max_turn
                if delta < neg_max_turn
                else max_turn if delta > max_turn else delta
            )
            new_yaw = (yaw + delta + pi) % two_pi - pi

            append(
                MoveResult(
                    position=Vec3(nx, ny, nz),
                    velocity=Vec3(hx, hy, out_vz),
                    yaw=new_yaw,
                    on_ground=grounded,
                    fall_damage=fall_damage,
                    fell_in_void=nz < void_z,
                )
            )
        return results

    @staticmethod
    def _turn_towards(current: float, target: float, max_delta: float) -> float:
        """Rotate ``current`` towards ``target`` by at most ``max_delta`` rad."""
        import math

        delta = (target - current + math.pi) % (2.0 * math.pi) - math.pi
        delta = clamp(delta, -max_delta, max_delta)
        result = current + delta
        return (result + math.pi) % (2.0 * math.pi) - math.pi

    # ---- legality checks (shared with repro.core.verification) -------------

    def max_horizontal_travel(self, frames: int) -> float:
        """Maximum legal horizontal displacement across ``frames`` frames."""
        if frames < 0:
            raise ValueError("frames must be non-negative")
        return self.config.max_frame_distance * frames

    def max_descent(self, frames: int) -> float:
        """Maximum legal drop: terminal velocity the whole time."""
        if frames < 0:
            raise ValueError("frames must be non-negative")
        return self.config.max_fall_speed * self.config.frame_seconds * frames

    def max_ascent(self, frames: int) -> float:
        """Maximum legal rise: repeated jumps (plus step-ups)."""
        if frames < 0:
            raise ValueError("frames must be non-negative")
        dt = self.config.frame_seconds
        return (self.config.jump_velocity * dt + self.config.step_height) * frames

    def displacement_excess(self, start: Vec3, end: Vec3, frames: int) -> float:
        """How far beyond the physics envelope a displacement is (in units).

        Checked component-wise — "gravity, limited velocity" are separate
        rules — so a 2× horizontal speed hack cannot hide inside the
        free-fall vertical allowance.  Returns 0 for legal movement.  The
        three bounds are the methods above, as their per-frame units times
        ``frames``.
        """
        if frames <= 0:
            return start.distance_to(end)
        # ``end - start`` on plain floats (``hypot`` as ``horizontal_length`` takes it)
        dz = end.z - start.z
        horizontal_excess = max(
            0.0,
            math.hypot(end.x - start.x, end.y - start.y)
            - self._travel_unit * frames,
        )
        if dz >= 0:
            vertical_excess = max(0.0, dz - self._ascent_unit * frames)
        else:
            vertical_excess = max(0.0, -dz - self._descent_unit * frames)
        return max(horizontal_excess, vertical_excess)
