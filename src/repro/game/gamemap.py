"""Game-world geometry: maps, occluders, items and spawn points.

The paper evaluates on Quake III's ``q3dm17`` ("The Longest Yard") — a
deathmatch map made of floating platforms connected by jump pads, with
weapons / armor / health concentrated on a few platforms.  That item and
platform layout is what produces the strongly non-uniform presence heatmap
of Figure 1 and the attention dynamics the subscription model relies on.

We model maps in 2.5-D: the world is a box; solid geometry is a set of
axis-aligned boxes (``Box``) that act both as *floors* (avatars stand on
their top faces) and *occluders* (they block line of sight).  This is
enough to reproduce occlusion-culled vision sets ("avatars behind a wall do
not appear in the vision set"), the potentially-visible-set baseline, and
hotspot formation around items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.game.vector import Vec3

__all__ = [
    "Box",
    "ItemSpec",
    "ItemKind",
    "GameMap",
    "make_longest_yard",
    "make_corridors",
]


class ItemKind:
    """Item categories placed on maps (mirrors the Figure 1 legend)."""

    HEALTH = "health"
    AMMO = "ammo"
    WEAPON = "weapon"
    ARMOR = "armor"
    POWERUP = "powerup"

    ALL = (HEALTH, AMMO, WEAPON, ARMOR, POWERUP)


@dataclass(frozen=True, slots=True)
class Box:
    """An axis-aligned solid box: floor for avatars, occluder for sight."""

    min_corner: Vec3
    max_corner: Vec3
    name: str = ""
    #: ``(min_x, min_y, min_z, max_x, max_y, max_z)`` as plain floats, so
    #: the geometry scans in :class:`GameMap` read locals instead of
    #: chasing ``Vec3`` attribute chains.
    bounds: tuple[float, float, float, float, float, float] = field(
        init=False, repr=False, compare=False
    )
    #: ``(lo_x, lo_y, lo_z, hi_x, hi_y, hi_z)``: per axis, the interval the
    #: slab test in :meth:`GameMap.line_of_sight` can block within — the
    #: box shrunk by its surface epsilon, or the two shrunk faces in order
    #: when the box is thinner than twice that.
    reach: tuple[float, float, float, float, float, float] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        low, high = self.min_corner, self.max_corner
        # Written so a NaN corner fails it too.
        if not (low.x <= high.x and low.y <= high.y and low.z <= high.z):
            raise ValueError(f"degenerate box {self.name!r}")
        object.__setattr__(
            self, "bounds", (low.x, low.y, low.z, high.x, high.y, high.z)
        )
        lo_x, hi_x = sorted((low.x + 1e-6, high.x - 1e-6))
        lo_y, hi_y = sorted((low.y + 1e-6, high.y - 1e-6))
        lo_z, hi_z = sorted((low.z + 1e-6, high.z - 1e-6))
        object.__setattr__(self, "reach", (lo_x, lo_y, lo_z, hi_x, hi_y, hi_z))

    @property
    def top(self) -> float:
        return self.max_corner.z

    @property
    def center(self) -> Vec3:
        return (self.min_corner + self.max_corner) * 0.5


@dataclass(frozen=True, slots=True)
class ItemSpec:
    """A pickup placed at a fixed map location, respawning after pickup."""

    kind: str
    position: Vec3
    respawn_frames: int = 400  # 20 s at 50 ms frames, Quake-like
    amount: int = 25
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ItemKind.ALL:
            raise ValueError(f"unknown item kind {self.kind!r}")
        if self.respawn_frames <= 0:
            raise ValueError("respawn_frames must be positive")


@dataclass
class GameMap:
    """A deathmatch map: bounds, solid geometry, items and respawn points."""

    name: str
    bounds_min: Vec3
    bounds_max: Vec3
    solids: list[Box] = field(default_factory=list)
    items: list[ItemSpec] = field(default_factory=list)
    respawn_points: list[Vec3] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.respawn_points:
            raise ValueError("a map needs at least one respawn point")
        for point in self.respawn_points:
            if not self.in_bounds(point):
                raise ValueError(f"respawn point {point} outside map bounds")
        # Perf accounting for line of sight (plain ints: no observable
        # behaviour, read by tests/test_game_spatial.py and perfbench).
        self.los_queries: int = 0
        self.los_boxes_tested: int = 0

    # ---- queries ----------------------------------------------------------

    def in_bounds(self, point: Vec3) -> bool:
        return (
            self.bounds_min.x <= point.x <= self.bounds_max.x
            and self.bounds_min.y <= point.y <= self.bounds_max.y
            and self.bounds_min.z <= point.z <= self.bounds_max.z
        )

    def clamp_to_bounds(self, point: Vec3) -> Vec3:
        return Vec3(
            min(max(point.x, self.bounds_min.x), self.bounds_max.x),
            min(max(point.y, self.bounds_min.y), self.bounds_max.y),
            min(max(point.z, self.bounds_min.z), self.bounds_max.z),
        )

    def floor_height(self, point: Vec3) -> float | None:
        """Top of the highest solid under ``point``'s XY, or None (void)."""
        return self.floor_height_xy(point.x, point.y)

    def floor_height_xy(self, x: float, y: float) -> float | None:
        """:meth:`floor_height` for a bare XY coordinate.

        The batched physics kernel queries floors for whole rosters per
        frame; taking plain floats avoids a throwaway ``Vec3`` per query.
        Scans every box; bit-identical to ``floor_height_naive`` in
        ``tests/reference/game.py`` (tests enforce it).
        """
        best: float | None = None
        for box in self.solids:
            min_x, min_y, _, max_x, max_y, max_z = box.bounds
            if (
                min_x <= x <= max_x
                and min_y <= y <= max_y
                and (best is None or max_z > best)
            ):
                best = max_z
        return best

    def line_of_sight(self, eye: Vec3, target: Vec3) -> bool:
        """True when no solid blocks the segment between the two points.

        This is the occlusion test behind the vision set: avatars "in a
        player's vision range, but behind a wall do not appear in his
        vision set".

        Endpoints are put in canonical order (which makes the result
        exactly symmetric, so per-frame caches can share LOS(a,b) with
        LOS(b,a)), then every box is scanned; one whose ``reach`` lies
        wholly outside the segment's bounding box on some axis is skipped
        before the slab test.  Bit-identical to the linear scan
        ``line_of_sight_naive`` in ``tests/reference/game.py``.
        """
        ex, ey, ez = eye.x, eye.y, eye.z
        tx, ty, tz = target.x, target.y, target.z
        if (ex, ey, ez) > (tx, ty, tz):
            ex, ey, ez, tx, ty, tz = tx, ty, tz, ex, ey, ez
        self.los_queries += 1
        dx = tx - ex
        dy = ty - ey
        dz = tz - ez
        # The segment's extent per axis.  The skip is conservative: when a
        # box's reach misses that extent on an axis, rounding cannot flip
        # the sign of a difference, so the slab test below gets both of
        # that axis's t values <= 0 (or both >= 1) and cannot block.  The
        # argument needs a finite difference; an infinite or NaN one (an
        # infinite or NaN coordinate, or an overflow) can make the slab
        # test's t values NaN, which bound nothing, so that axis skips
        # nothing.  ``Box`` refuses NaN corners, so ``reach`` has none.
        if dx - dx == 0.0:
            x_lo, x_hi = (ex, tx) if dx >= 0.0 else (tx, ex)
        else:
            x_lo, x_hi = -math.inf, math.inf
        if dy - dy == 0.0:
            y_lo, y_hi = (ey, ty) if dy >= 0.0 else (ty, ey)
        else:
            y_lo, y_hi = -math.inf, math.inf
        if dz - dz == 0.0:
            z_lo, z_hi = (ez, tz) if dz >= 0.0 else (tz, ez)
        else:
            z_lo, z_hi = -math.inf, math.inf
        for box in self.solids:
            lo_x, lo_y, lo_z, hi_x, hi_y, hi_z = box.reach
            if (
                hi_x < x_lo or lo_x > x_hi
                or hi_y < y_lo or lo_y > y_hi
                or hi_z < z_lo or lo_z > z_hi
            ):
                continue
            self.los_boxes_tested += 1
            # Inlined containment + slab test over the box's flat bounds.
            # Arithmetic mirrors ``box_contains`` / ``box_intersects_segment``
            # in tests/reference/game.py operation-for-operation (tests
            # enforce bit-identical results); inlining avoids per-box tuple
            # construction and Vec3 attribute chains on a path run
            # O(players²) times per frame.
            min_x, min_y, min_z, max_x, max_y, max_z = box.bounds
            if min_x <= ex <= max_x and min_y <= ey <= max_y and min_z <= ez <= max_z:
                continue  # box contains the eye: it cannot occlude
            if min_x <= tx <= max_x and min_y <= ty <= max_y and min_z <= tz <= max_z:
                continue  # box contains the target
            t_enter = 0.0
            t_exit = 1.0
            # -- x slab (surface_epsilon = 1e-6, as in the reference)
            lo = min_x + 1e-6
            hi = max_x - 1e-6
            if abs(dx) < 1e-12:
                if ex < lo or ex > hi:
                    continue
            else:
                t1 = (lo - ex) / dx
                t2 = (hi - ex) / dx
                if t1 > t2:
                    t1, t2 = t2, t1
                if t1 > t_enter:
                    t_enter = t1
                if t2 < t_exit:
                    t_exit = t2
                if t_enter > t_exit:
                    continue
            # -- y slab
            lo = min_y + 1e-6
            hi = max_y - 1e-6
            if abs(dy) < 1e-12:
                if ey < lo or ey > hi:
                    continue
            else:
                t1 = (lo - ey) / dy
                t2 = (hi - ey) / dy
                if t1 > t2:
                    t1, t2 = t2, t1
                if t1 > t_enter:
                    t_enter = t1
                if t2 < t_exit:
                    t_exit = t2
                if t_enter > t_exit:
                    continue
            # -- z slab
            lo = min_z + 1e-6
            hi = max_z - 1e-6
            if abs(dz) < 1e-12:
                if ez < lo or ez > hi:
                    continue
            else:
                t1 = (lo - ez) / dz
                t2 = (hi - ez) / dz
                if t1 > t2:
                    t1, t2 = t2, t1
                if t1 > t_enter:
                    t_enter = t1
                if t2 < t_exit:
                    t_exit = t2
                if t_enter > t_exit:
                    continue
            # Require a real interior crossing, not a surface graze.
            if (t_exit - t_enter) > 1e-9:
                return False
        return True

    def item_positions(self, kind: str | None = None) -> list[Vec3]:
        return [i.position for i in self.items if kind is None or i.kind == kind]


# --------------------------------------------------------------------------
# Built-in maps
# --------------------------------------------------------------------------

EYE_HEIGHT = 48.0  # Quake-ish view height above the standing surface


def _platform(cx: float, cy: float, half: float, top: float, name: str) -> Box:
    """A square platform of half-width ``half`` whose top face is at ``top``."""
    return Box(
        Vec3(cx - half, cy - half, top - 64.0),
        Vec3(cx + half, cy + half, top),
        name=name,
    )


def make_longest_yard(seed_layout: int = 0) -> GameMap:
    """A q3dm17-like map: floating platforms, central rail platform, items.

    The layout follows the structure of "The Longest Yard": a large central
    platform holding the railgun and mega-health (the Figure 1 hotspot), a
    ring of satellite platforms with weapons/armor/ammo, and elevated sniper
    ledges.  Platforms are separated by void; bots travel between them along
    waypoint hops (jump pads in the original).

    ``seed_layout`` perturbs nothing today; it is accepted so that future
    map variants can be derived deterministically.
    """
    del seed_layout  # single canonical layout, parameter reserved
    solids: list[Box] = []
    items: list[ItemSpec] = []
    respawns: list[Vec3] = []

    # Central platform — the famous rail/mega hotspot.
    center = _platform(0.0, 0.0, 420.0, 0.0, "central")
    solids.append(center)
    items.append(ItemSpec(ItemKind.WEAPON, Vec3(0.0, 0.0, 0.0), 200, 1, "railgun"))
    items.append(ItemSpec(ItemKind.HEALTH, Vec3(140.0, 0.0, 0.0), 700, 100, "mega"))
    items.append(ItemSpec(ItemKind.AMMO, Vec3(-160.0, 120.0, 0.0), 300, 10, "slugs"))

    # Ring of six satellite platforms.
    ring_radius = 1100.0
    satellite_items = [
        (ItemKind.ARMOR, 500, 50, "red-armor"),
        (ItemKind.WEAPON, 250, 1, "rocket-launcher"),
        (ItemKind.HEALTH, 300, 25, "health-25"),
        (ItemKind.AMMO, 250, 10, "rockets"),
        (ItemKind.WEAPON, 250, 1, "lightning-gun"),
        (ItemKind.ARMOR, 400, 25, "yellow-armor"),
    ]
    for index, (kind, respawn, amount, name) in enumerate(satellite_items):
        angle = 2.0 * math.pi * index / len(satellite_items)
        cx = ring_radius * math.cos(angle)
        cy = ring_radius * math.sin(angle)
        solids.append(_platform(cx, cy, 240.0, 64.0, f"satellite-{index}"))
        items.append(ItemSpec(kind, Vec3(cx, cy, 64.0), respawn, amount, name))
        respawns.append(Vec3(cx + 80.0, cy + 80.0, 64.0))

    # Two elevated sniper ledges with powerups, plus occluding pillars on the
    # central platform (they create the behind-a-wall cases for the VS test).
    for sign, tag in ((1.0, "north"), (-1.0, "south")):
        lx, ly = 0.0, sign * 1700.0
        solids.append(_platform(lx, ly, 180.0, 256.0, f"ledge-{tag}"))
        items.append(
            ItemSpec(ItemKind.POWERUP, Vec3(lx, ly, 256.0), 900, 1, f"quad-{tag}")
        )
        respawns.append(Vec3(lx - 60.0, ly - sign * 60.0, 256.0))
    for sign in (1.0, -1.0):
        solids.append(
            Box(
                Vec3(sign * 260.0 - 40.0, -40.0, 0.0),
                Vec3(sign * 260.0 + 40.0, 40.0, 160.0),
                name=f"pillar-{'east' if sign > 0 else 'west'}",
            )
        )

    respawns.append(Vec3(0.0, 320.0, 0.0))
    respawns.append(Vec3(0.0, -320.0, 0.0))

    return GameMap(
        name="longest-yard",
        bounds_min=Vec3(-2200.0, -2200.0, -512.0),
        bounds_max=Vec3(2200.0, 2200.0, 768.0),
        solids=solids,
        items=items,
        respawn_points=respawns,
    )


def make_corridors(lanes: int = 3, lane_width: float = 300.0,
                   length: float = 3200.0) -> GameMap:
    """A corridor map: long parallel lanes with doorways — heavy occlusion.

    The opposite visibility regime from the open longest-yard: sight lines
    are short and interrupted, so vision sets are small, interest sets are
    stable ("this value can be slightly different for different maps"),
    and most players sit in each other's Others set most of the time.
    """
    if lanes < 2:
        raise ValueError("need at least two lanes")
    if lane_width < 150.0 or length < 600.0:
        raise ValueError("corridor dimensions too small")
    half_len = length / 2.0
    total_width = lanes * lane_width
    half_wid = total_width / 2.0
    wall_thickness = 24.0
    wall_height = 200.0

    solids: list[Box] = [
        Box(
            Vec3(-half_len, -half_wid, -64.0),
            Vec3(half_len, half_wid, 0.0),
            name="floor",
        )
    ]
    items: list[ItemSpec] = []
    respawns: list[Vec3] = []

    # Inner walls between lanes, pierced by three doorways each.
    door_width = 140.0
    door_xs = (-half_len * 0.5, 0.0, half_len * 0.5)
    for wall_index in range(1, lanes):
        wall_y = -half_wid + wall_index * lane_width
        segment_edges = [-half_len]
        for door_x in door_xs:
            segment_edges.extend([door_x - door_width / 2, door_x + door_width / 2])
        segment_edges.append(half_len)
        for seg in range(0, len(segment_edges) - 1, 2):
            x0, x1 = segment_edges[seg], segment_edges[seg + 1]
            if x1 - x0 < 1.0:
                continue
            solids.append(
                Box(
                    Vec3(x0, wall_y - wall_thickness / 2, 0.0),
                    Vec3(x1, wall_y + wall_thickness / 2, wall_height),
                    name=f"wall-{wall_index}-{seg // 2}",
                )
            )

    # Items: weapons at lane centres, health/ammo at the ends.
    lane_kinds = [ItemKind.WEAPON, ItemKind.ARMOR, ItemKind.POWERUP]
    lane_names = ["railgun", "red-armor", "quad-corridor"]
    for lane in range(lanes):
        lane_y = -half_wid + (lane + 0.5) * lane_width
        kind = lane_kinds[lane % len(lane_kinds)]
        name = lane_names[lane % len(lane_names)]
        items.append(
            ItemSpec(kind, Vec3(0.0, lane_y, 0.0), 300, 50, f"{name}-{lane}")
        )
        items.append(
            ItemSpec(
                ItemKind.HEALTH,
                Vec3(-half_len + 160.0, lane_y, 0.0),
                300,
                25,
                f"health-{lane}",
            )
        )
        items.append(
            ItemSpec(
                ItemKind.AMMO,
                Vec3(half_len - 160.0, lane_y, 0.0),
                250,
                10,
                f"ammo-{lane}",
            )
        )
        respawns.append(Vec3(-half_len + 240.0, lane_y, 0.0))
        respawns.append(Vec3(half_len - 240.0, lane_y, 0.0))

    return GameMap(
        name="corridors",
        bounds_min=Vec3(-half_len, -half_wid, -128.0),
        bounds_max=Vec3(half_len, half_wid, 512.0),
        solids=solids,
        items=items,
        respawn_points=respawns,
    )


def eye_position(feet: Vec3) -> Vec3:
    """The camera position for an avatar standing at ``feet``."""
    return feet.with_z(feet.z + EYE_HEIGHT)
