"""Uniform spatial grid over map solids — the LOS/floor acceleration index.

The naive geometry queries in :mod:`repro.game.gamemap` scan *every* solid
box per call: ``line_of_sight`` is called O(players²) times per 50 ms frame
by interest management, and ``floor_height`` once per bot per physics tick,
so the frame loop was O(players² × solids).  This module provides the
acceleration structure behind the fast path: a uniform grid over the XY
projection of the solids.  Queries gather the *candidate* boxes whose grid
cells a segment (or point) touches and only those candidates are handed to
the exact slab/containment tests — the per-box test code is unchanged, so
results are bit-identical to the naive scan.

Conservativeness contract (what the exactness gate relies on):

- every box is registered in **all** cells its XY bounding rectangle
  overlaps (inclusive index ranges, floor() is monotone so a coordinate
  inside the rectangle can never land outside the registered range);
- :meth:`SpatialGrid.segment_candidates` visits every cell that any point
  of the XY-projected segment lies in, with a small widening margin per
  column to absorb floating-point slope error;
- therefore a box that intersects a 3-D segment — which requires its XY
  rectangle to meet the segment's XY projection — is always a candidate.

The grid is a pure function of the box list: no randomness, no wall clock,
deterministic iteration order (box index order), so the fast path stays
byte-identical across runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (gamemap imports us)
    from repro.game.gamemap import Box

__all__ = ["SpatialGrid"]

#: Hard cap on cells per axis: maps are small, the grid must stay cheap to
#: build (it is rebuilt lazily whenever the solids list changes length).
_MAX_CELLS_PER_AXIS = 64

#: Treat a segment with |dx| below this as vertical in XY (mirrors the slab
#: test's own degenerate-axis threshold in ``GameMap.line_of_sight``).
_VERTICAL_EPS = 1e-12


class SpatialGrid:
    """A uniform XY grid of box indices supporting segment/point queries."""

    __slots__ = (
        "boxes",
        "box_bounds",
        "num_boxes",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "nx",
        "ny",
        "cell_x",
        "cell_y",
        "_cells",
        "segment_queries",
        "point_queries",
    )

    def __init__(self, boxes: Sequence["Box"]) -> None:
        self.boxes: tuple["Box", ...] = tuple(boxes)
        self.num_boxes: int = len(self.boxes)
        #: Flat per-box bounds ``(min_x, min_y, min_z, max_x, max_y, max_z)``
        #: so hot query loops read plain floats instead of chasing
        #: ``Vec3`` attribute chains (see GameMap.line_of_sight).
        self.box_bounds: list[tuple[float, float, float, float, float, float]] = [
            (
                b.min_corner.x,
                b.min_corner.y,
                b.min_corner.z,
                b.max_corner.x,
                b.max_corner.y,
                b.max_corner.z,
            )
            for b in self.boxes
        ]
        #: query counters (perf accounting only; never affect results)
        self.segment_queries: int = 0
        self.point_queries: int = 0
        if not self.boxes:
            self.min_x = self.min_y = 0.0
            self.max_x = self.max_y = 0.0
            self.nx = self.ny = 1
            self.cell_x = self.cell_y = 1.0
            self._cells: list[list[int]] = [[]]
            return

        self.min_x = min(b.min_corner.x for b in self.boxes)
        self.min_y = min(b.min_corner.y for b in self.boxes)
        self.max_x = max(b.max_corner.x for b in self.boxes)
        self.max_y = max(b.max_corner.y for b in self.boxes)

        # ~4 cells per box keeps candidate lists short without making the
        # per-query cell walk longer than the box list it replaces.
        per_axis = int(math.ceil(2.0 * math.sqrt(self.num_boxes)))
        self.nx = max(1, min(_MAX_CELLS_PER_AXIS, per_axis))
        self.ny = self.nx
        span_x = max(self.max_x - self.min_x, 1e-6)
        span_y = max(self.max_y - self.min_y, 1e-6)
        self.cell_x = span_x / self.nx
        self.cell_y = span_y / self.ny

        self._cells = [[] for _ in range(self.nx * self.ny)]
        for index, box in enumerate(self.boxes):
            ix0 = self._ix(box.min_corner.x)
            ix1 = self._ix(box.max_corner.x)
            iy0 = self._iy(box.min_corner.y)
            iy1 = self._iy(box.max_corner.y)
            for ix in range(ix0, ix1 + 1):
                row = ix * self.ny
                for iy in range(iy0, iy1 + 1):
                    self._cells[row + iy].append(index)

    # ---- index helpers ----------------------------------------------------

    def _ix(self, x: float) -> int:
        """Clamped x cell index; floor() keeps the mapping monotone."""
        ix = int(math.floor((x - self.min_x) / self.cell_x))
        if ix < 0:
            return 0
        if ix >= self.nx:
            return self.nx - 1
        return ix

    def _iy(self, y: float) -> int:
        iy = int(math.floor((y - self.min_y) / self.cell_y))
        if iy < 0:
            return 0
        if iy >= self.ny:
            return self.ny - 1
        return iy

    # ---- queries ----------------------------------------------------------

    def point_candidates(self, x: float, y: float) -> Sequence[int]:
        """Indices of boxes whose XY rectangle may contain ``(x, y)``."""
        self.point_queries += 1
        if self.num_boxes == 0:
            return ()
        if x < self.min_x or x > self.max_x or y < self.min_y or y > self.max_y:
            return ()  # outside the union AABB: no box can contain the point
        return self._cells[self._ix(x) * self.ny + self._iy(y)]

    def segment_candidates(
        self, x0: float, y0: float, x1: float, y1: float
    ) -> Sequence[int]:
        """Indices of boxes whose cells the XY segment touches (deduped).

        Column-stepping traversal: for every x-cell column the segment
        crosses, compute the segment's y extent inside that column, widen
        it by a floating-point safety margin, and collect the boxes of the
        covered cells.  Conservative by construction — see module docstring.
        """
        self.segment_queries += 1
        if self.num_boxes == 0:
            return ()
        # Quick reject: segment AABB vs boxes' union AABB (inclusive).
        sx_lo, sx_hi = (x0, x1) if x0 <= x1 else (x1, x0)
        sy_lo, sy_hi = (y0, y1) if y0 <= y1 else (y1, y0)
        if (
            sx_hi < self.min_x
            or sx_lo > self.max_x
            or sy_hi < self.min_y
            or sy_lo > self.max_y
        ):
            return ()

        # Hot loop: hoist attributes/bound methods into locals and inline the
        # _ix/_iy arithmetic — same clamped-floor mapping, just cheaper.
        cells = self._cells
        grid_min_x, grid_min_y = self.min_x, self.min_y
        cell_x, cell_y = self.cell_x, self.cell_y
        nx, ny = self.nx, self.ny
        floor = math.floor
        seen: set[int] = set()
        seen_add = seen.add
        out: list[int] = []
        out_append = out.append

        ix_first = int(floor((sx_lo - grid_min_x) / cell_x))
        ix_first = 0 if ix_first < 0 else (nx - 1 if ix_first >= nx else ix_first)
        ix_last = int(floor((sx_hi - grid_min_x) / cell_x))
        ix_last = 0 if ix_last < 0 else (nx - 1 if ix_last >= nx else ix_last)
        dx = x1 - x0
        if abs(dx) < _VERTICAL_EPS:
            # Vertical in XY: one (or, at a cell boundary, two) columns,
            # spanning the segment's full y range.
            iy_first = self._iy(sy_lo)
            iy_last = self._iy(sy_hi)
            for ix in range(ix_first, ix_last + 1):
                row = ix * ny
                for iy in range(iy_first, iy_last + 1):
                    for index in cells[row + iy]:
                        if index not in seen:
                            seen_add(index)
                            out_append(index)
            return out

        slope = (y1 - y0) / dx
        for ix in range(ix_first, ix_last + 1):
            column_lo = grid_min_x + ix * cell_x
            column_hi = column_lo + cell_x
            seg_a = sx_lo if sx_lo > column_lo else column_lo
            seg_b = sx_hi if sx_hi < column_hi else column_hi
            if seg_a > seg_b:
                continue
            ya = y0 + (seg_a - x0) * slope
            yb = y0 + (seg_b - x0) * slope
            if not (math.isfinite(ya) and math.isfinite(yb)):
                # Extreme slopes can overflow; fall back to the full column.
                ya, yb = grid_min_y, self.max_y
            elif ya > yb:
                ya, yb = yb, ya
            # Widen by a margin covering FP error in the slope evaluation.
            margin = 1e-7 * (abs(ya) + abs(yb) + cell_y)
            iy_first = int(floor((ya - margin - grid_min_y) / cell_y))
            if iy_first < 0:
                iy_first = 0
            elif iy_first >= ny:
                iy_first = ny - 1
            iy_last = int(floor((yb + margin - grid_min_y) / cell_y))
            if iy_last < 0:
                iy_last = 0
            elif iy_last >= ny:
                iy_last = ny - 1
            row = ix * ny
            for iy in range(iy_first, iy_last + 1):
                for index in cells[row + iy]:
                    if index not in seen:
                        seen_add(index)
                        out_append(index)
        return out

