"""The game substrate's retained naive implementations, kept verbatim.

Each function is the body the matching fast path in ``repro.game``
replaced, moved here unchanged once the exactness gates became its only
callers; it shares no arithmetic with the kernel it gates.  The two
``GameMap`` scans, the three ``Box`` tests they are built from and the bot
perception scan were methods: they keep ``self`` as their first parameter,
so ``monkeypatch.setattr(GameMap,
"line_of_sight", line_of_sight_naive)`` swaps the fast scan out of a whole
session.  The only edit is the call that follows from that:
``compute_sets_reference`` reaches ``line_of_sight_naive(game_map, ...)``
as a function, not as a method of the map (and ``line_of_sight_naive``
reaches ``box_contains`` / ``box_intersects_segment``, and
``floor_height_naive`` reaches ``box_contains_xy``, the same way).
``floor_height_xy_naive`` is no twin but an adapter: it puts
``floor_height_naive`` behind ``floor_height_xy``'s signature, so a session
can be run with the batched physics kernel's floor query swapped too.

==========================================  ====================================
reference                                   gates
==========================================  ====================================
``compute_sets_reference``                  ``compute_sets`` / ``compute_all_sets``
``_in_vision_cone_reference``               ``ObserverFrame.in_vision_cone`` / ``cone_contains``
``_attention_score_reference``              ``ObserverFrame.attention_scores`` / ``attention_rank``
``_visible_enemies_reference``              ``BotController._visible_enemies``
``floor_height_naive``                      ``GameMap.floor_height`` / ``floor_height_xy``
``floor_height_xy_naive`` (adapter)         ``GameMap.floor_height_xy``, as the physics kernel calls it
``line_of_sight_naive``                     ``GameMap.line_of_sight``
``box_contains`` / ``box_intersects_segment``  the slab arithmetic inlined in ``GameMap.line_of_sight``
``box_contains_xy``                         the containment inlined in ``GameMap.floor_height_xy``
``displacement_is_legal``                   what ``physics.step`` / the simulator may produce (``PositionVerifier``'s allowance)
``displacement_excess_reference``           ``Physics.displacement_excess`` (the ``Vec3`` offset it stopped building)
==========================================  ====================================
"""

from __future__ import annotations

import math

from repro.game.avatar import AvatarSnapshot
from repro.game.bots import ENGAGE_RANGE, BotController
from repro.game.gamemap import Box, GameMap, eye_position
from repro.game.interest import InteractionRecency, InterestConfig, InterestSets
from repro.game.physics import Physics
from repro.game.vector import Vec3

__all__ = [
    "compute_sets_reference",
    "_in_vision_cone_reference",
    "_attention_score_reference",
    "_visible_enemies_reference",
    "floor_height_naive",
    "floor_height_xy_naive",
    "line_of_sight_naive",
    "box_contains",
    "box_contains_xy",
    "box_intersects_segment",
    "displacement_is_legal",
]


# ---- game/interest.py --------------------------------------------------------


def compute_sets_reference(
    observer: AvatarSnapshot,
    everyone: dict[int, AvatarSnapshot],
    game_map: GameMap,
    frame: int,
    config: InterestConfig | None = None,
    recency: InteractionRecency | None = None,
) -> InterestSets:
    """The retained naive implementation — the fast path's exactness gate.

    Per-pair eye/aim recomputation, full sort, linear LOS scan
    (:func:`line_of_sight_naive`).  Kept verbatim so property tests
    can assert the optimised paths produce bit-identical results.
    """
    config = config or InterestConfig()
    visible: list[int] = []
    others: set[int] = set()
    observer_eye = eye_position(observer.position)
    for other_id, snap in everyone.items():
        if other_id == observer.player_id:
            continue
        if not snap.alive:
            others.add(other_id)
            continue
        if _in_vision_cone_reference(
            observer, snap, config
        ) and line_of_sight_naive(
            game_map, observer_eye, eye_position(snap.position)
        ):
            visible.append(other_id)
        else:
            others.add(other_id)

    scored = sorted(
        visible,
        key=lambda oid: _attention_score_reference(
            observer, everyone[oid], frame, config, recency
        ),
        reverse=True,
    )
    interest = frozenset(scored[: config.interest_size])
    vision = frozenset(oid for oid in visible if oid not in interest)
    return InterestSets(
        player_id=observer.player_id,
        frame=frame,
        interest=interest,
        vision=vision,
        others=frozenset(others),
    )


def _in_vision_cone_reference(
    observer: AvatarSnapshot,
    target: AvatarSnapshot,
    config: InterestConfig,
    slack: bool = True,
) -> bool:
    """Original per-pair cone test (reference semantics, kept verbatim)."""
    to_target = eye_position(target.position) - eye_position(observer.position)
    distance = to_target.length()
    if distance > config.vision_radius or distance == 0.0:
        return False
    aim = Vec3.from_yaw(observer.yaw)
    half_angle = config.effective_half_angle if slack else config.vision_half_angle
    return aim.angle_to(to_target) <= half_angle


def _attention_score_reference(
    observer: AvatarSnapshot,
    target: AvatarSnapshot,
    frame: int,
    config: InterestConfig,
    recency: InteractionRecency | None = None,
) -> float:
    """Original per-pair attention metric (reference semantics, verbatim)."""
    offset = target.position - observer.position
    distance = offset.length()
    proximity = 1.0 / (1.0 + distance / config.proximity_scale)
    aim_error = Vec3.from_yaw(observer.yaw).angle_to(offset.with_z(0.0))
    aim = max(0.0, 1.0 - aim_error / math.pi)
    recent = 0.0
    if recency is not None:
        recent = recency.score(
            observer.player_id, target.player_id, frame, config.recency_halflife_frames
        )
    return proximity + aim + recent


# ---- game/bots.py ------------------------------------------------------------


def _visible_enemies_reference(
    self: BotController, me: AvatarSnapshot, everyone: dict[int, AvatarSnapshot]
) -> list[AvatarSnapshot]:
    """The retained naive implementation — the fast path's exactness gate."""
    enemies = []
    my_eye = eye_position(me.position)
    for other_id, snap in everyone.items():
        if other_id == self.player_id or not snap.alive:
            continue
        if snap.position.distance_to(me.position) > ENGAGE_RANGE:
            continue
        if self.los.line_of_sight(my_eye, eye_position(snap.position)):
            enemies.append(snap)
    enemies.sort(key=lambda s: s.position.distance_to(me.position))
    return enemies


# ---- game/gamemap.py ---------------------------------------------------------


def floor_height_naive(self: GameMap, point: Vec3) -> float | None:
    """Reference linear scan over all solids (exactness-gate baseline)."""
    best: float | None = None
    for box in self.solids:
        if box_contains_xy(box, point) and (best is None or box.top > best):
            best = box.top
    return best


def floor_height_xy_naive(self: GameMap, x: float, y: float) -> float | None:
    """``floor_height_naive`` behind ``GameMap.floor_height_xy``'s signature."""
    return floor_height_naive(self, Vec3(x, y, 0.0))


def line_of_sight_naive(self: GameMap, eye: Vec3, target: Vec3) -> bool:
    """Reference linear scan over all solids (exactness-gate baseline).

    Uses the same canonical endpoint order as the fast path so that
    both are symmetric and comparable bit-for-bit.
    """
    if (eye.x, eye.y, eye.z) > (target.x, target.y, target.z):
        eye, target = target, eye
    self.los_queries += 1
    self.los_boxes_tested += len(self.solids)
    for box in self.solids:
        if box_contains(box, eye) or box_contains(box, target):
            continue
        if box_intersects_segment(box, eye, target):
            return False
    return True


def box_contains(self: Box, point: Vec3) -> bool:
    return (
        self.min_corner.x <= point.x <= self.max_corner.x
        and self.min_corner.y <= point.y <= self.max_corner.y
        and self.min_corner.z <= point.z <= self.max_corner.z
    )


def box_contains_xy(self: Box, point: Vec3, margin: float = 0.0) -> bool:
    """Is the XY projection of ``point`` over this box (with margin)?"""
    return (
        self.min_corner.x - margin <= point.x <= self.max_corner.x + margin
        and self.min_corner.y - margin <= point.y <= self.max_corner.y + margin
    )


def box_intersects_segment(self: Box, start: Vec3, end: Vec3) -> bool:
    """Slab test: does the segment [start, end] pass through the box?

    Used for occlusion: a sight line is blocked if it crosses any solid
    box.  Endpoints that merely touch the surface do not count as a
    crossing (an avatar standing *on* a platform can still be seen).
    """
    direction = end - start
    t_enter, t_exit = 0.0, 1.0
    surface_epsilon = 1e-6  # rays sliding exactly on a face don't block
    for axis in range(3):
        d = (direction.x, direction.y, direction.z)[axis]
        s = (start.x, start.y, start.z)[axis]
        lo = (self.min_corner.x, self.min_corner.y, self.min_corner.z)[axis]
        hi = (self.max_corner.x, self.max_corner.y, self.max_corner.z)[axis]
        lo += surface_epsilon
        hi -= surface_epsilon
        if abs(d) < 1e-12:
            if s < lo or s > hi:
                return False
            continue
        t1 = (lo - s) / d
        t2 = (hi - s) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_enter = max(t_enter, t1)
        t_exit = min(t_exit, t2)
        if t_enter > t_exit:
            return False
    # Require a real interior crossing, not a surface graze.
    return (t_exit - t_enter) > 1e-9


# ---- game/physics.py ---------------------------------------------------------


def displacement_is_legal(
    self: Physics, start: Vec3, end: Vec3, frames: int, tolerance: float = 1.05
) -> bool:
    """Could an honest avatar have moved ``start``→``end`` in ``frames``?

    ``tolerance`` absorbs wire quantization and frame phase (honest
    updates must never be flagged; this is the FP≤5 % side of Fig. 6).
    """
    if frames <= 0:
        return start.distance_to(end) < 1.0
    allowance = self.max_horizontal_travel(frames) * (tolerance - 1.0)
    return self.displacement_excess(start, end, frames) <= allowance


def displacement_excess_reference(
    self: Physics, start: Vec3, end: Vec3, frames: int
) -> float:
    """How far beyond the physics envelope a displacement is (in units)."""
    if frames <= 0:
        return start.distance_to(end)
    offset = end - start
    horizontal_excess = max(
        0.0, offset.horizontal_length() - self.max_horizontal_travel(frames)
    )
    if offset.z >= 0:
        vertical_excess = max(0.0, offset.z - self.max_ascent(frames))
    else:
        vertical_excess = max(0.0, -offset.z - self.max_descent(frames))
    return max(horizontal_excess, vertical_excess)
