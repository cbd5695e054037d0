"""The flat unit-test arena: a floor, a ring of pillars, a few pickups.

No session, bench or example plays on it, so it lives with the tests that
do (it left ``repro.game.gamemap`` in PR 19).
"""

from __future__ import annotations

import math

from repro.game.gamemap import Box, GameMap, ItemKind, ItemSpec
from repro.game.vector import Vec3

__all__ = ["make_arena"]


def make_arena(side: float = 2000.0, pillars: int = 4) -> GameMap:
    """A simple flat arena with occluding pillars — a fast unit-test map."""
    if side <= 200.0:
        raise ValueError("arena side too small")
    half = side / 2.0
    solids = [
        Box(Vec3(-half, -half, -64.0), Vec3(half, half, 0.0), name="floor"),
    ]
    items: list[ItemSpec] = []
    respawns: list[Vec3] = []
    for index in range(max(0, pillars)):
        angle = 2.0 * math.pi * index / max(1, pillars)
        cx, cy = half * 0.45 * math.cos(angle), half * 0.45 * math.sin(angle)
        solids.append(
            Box(
                Vec3(cx - 60.0, cy - 60.0, 0.0),
                Vec3(cx + 60.0, cy + 60.0, 200.0),
                name=f"pillar-{index}",
            )
        )
        items.append(
            ItemSpec(
                ItemKind.HEALTH if index % 2 == 0 else ItemKind.AMMO,
                Vec3(cx + 120.0, cy, 0.0),
                300,
                25,
                f"item-{index}",
            )
        )
    for corner_x in (-0.8, 0.8):
        for corner_y in (-0.8, 0.8):
            respawns.append(Vec3(half * corner_x, half * corner_y, 0.0))
    items.append(ItemSpec(ItemKind.WEAPON, Vec3(0.0, 0.0, 0.0), 250, 1, "center-gun"))
    return GameMap(
        name="arena",
        bounds_min=Vec3(-half, -half, -128.0),
        bounds_max=Vec3(half, half, 512.0),
        solids=solids,
        items=items,
        respawn_points=respawns,
    )
