"""Figure 1: presence heatmaps of player positions.

"Heatmap of player positions in a Quake III deathmatch game in the q3dm17
map.  Darker colors show higher presence in a region ... color intensity
is normalized logarithmic values of presence in each region."  Human
players (1a) show diffuse hotspots around items; NPCs (1b) burn
ridge-like trails along their predetermined paths.

:func:`presence_heatmap` grid-bins a trace's positions and applies the
same log normalisation; :func:`hotspot_concentration` condenses the map
into the scalar the experiment actually asserts — presence is strongly
concentrated ("exponential presence in some areas"), which is what breaks
fixed-radius AOI filtering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.game.gamemap import GameMap
from repro.game.trace import GameTrace

__all__ = ["Heatmap", "presence_heatmap", "hotspot_concentration", "render_ascii"]


@dataclass(frozen=True)
class Heatmap:
    """A grid of normalised log-presence values in [0, 1]."""

    cells: tuple[tuple[float, ...], ...]  # rows (y) of columns (x)
    raw_counts: tuple[tuple[int, ...], ...]
    cell_size: float


def presence_heatmap(
    trace: GameTrace,
    game_map: GameMap,
    grid: int = 24,
    player_ids: list[int] | None = None,
) -> Heatmap:
    """Bin all (selected) players' positions into a grid×grid heatmap."""
    if grid < 2:
        raise ValueError("grid must be at least 2")
    selected = set(player_ids) if player_ids is not None else None
    min_x, max_x = game_map.bounds_min.x, game_map.bounds_max.x
    min_y, max_y = game_map.bounds_min.y, game_map.bounds_max.y
    width = max_x - min_x
    height = max_y - min_y
    counts = [[0] * grid for _ in range(grid)]
    for snapshots in trace.frames:
        for player_id, snap in snapshots.items():
            if selected is not None and player_id not in selected:
                continue
            if not snap.alive:
                continue
            col = min(grid - 1, max(0, int((snap.position.x - min_x) / width * grid)))
            row = min(grid - 1, max(0, int((snap.position.y - min_y) / height * grid)))
            counts[row][col] += 1

    # Normalised log intensity, exactly the paper's colour scale.
    max_log = max(
        (math.log1p(c) for row in counts for c in row), default=1.0
    )
    if max_log <= 0:
        max_log = 1.0
    cells = tuple(
        tuple(math.log1p(c) / max_log for c in row) for row in counts
    )
    cell = width / grid
    return Heatmap(
        cells=cells,
        raw_counts=tuple(tuple(row) for row in counts),
        cell_size=cell,
    )


#: The share of cells whose presence :func:`hotspot_concentration` sums.
HOTSPOT_TOP_FRACTION = 0.10


def hotspot_concentration(heatmap: Heatmap) -> float:
    """Fraction of all presence held by the top ``HOTSPOT_TOP_FRACTION`` of
    cells.

    A uniform distribution gives ≈ 10 %; the paper's maps give several
    times that ("players show an exponential presence in some areas of the
    game ... rendering AOI filtering unusable").
    """
    flat = sorted(
        (c for row in heatmap.raw_counts for c in row), reverse=True
    )
    total = sum(flat)
    if total == 0:
        return 0.0
    top_cells = max(1, int(len(flat) * HOTSPOT_TOP_FRACTION))
    return sum(flat[:top_cells]) / total


def render_ascii(heatmap: Heatmap) -> str:
    """A terminal rendering (darker character = higher presence)."""
    shades = " .:-=+*#%@"
    lines = []
    for row in heatmap.cells:
        line = "".join(
            shades[min(len(shades) - 1, int(value * (len(shades) - 1)))]
            for value in row
        )
        lines.append(line)
    return "\n".join(lines)
