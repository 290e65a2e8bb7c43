"""Nested-loop references that the fast paths of popgrid must equal exactly.

They use the scalar membership kernel, ``geo.point_in_polygon``, and plain
Python loops only, so that no index structure or vectorized step is shared
with the code they check.
"""

from __future__ import annotations

import math
from typing import Sequence

from popgrid.disaggregate import _check_inputs
from popgrid.geo import Point, Polygon, TileGrid, point_in_polygon, representative_point
from popgrid.io import AdminUnit, BinaryRaster, PopulationGrid
from popgrid.poi_filter import TileMask


def point_in_any(p: Point, parts: Sequence[Polygon]) -> bool:
    """Membership in a multi-part geometry (any part contains the point)."""
    return any(point_in_polygon(p, part) for part in parts)


def brute_force_allocate(
    mask: BinaryRaster,
    grid: TileGrid,
    units: Sequence[AdminUnit],
    tile_mask: TileMask,
) -> PopulationGrid:
    """Same contract as assign_pixels + allocate, as plain nested loops.

    No vectorization, no spatial pruning beyond a bbox check, Python-scalar
    arithmetic only. Must equal ``disaggregate.allocate`` exactly.
    """
    _check_inputs(mask, grid, tile_mask)
    values = [[0.0] * grid.n_cols for _ in range(grid.n_rows)]
    retained = tile_mask.retained

    # per-unit tile -> built pixel count, retained and excluded
    per_unit_retained: list[dict[tuple[int, int], int]] = [dict() for _ in units]
    per_unit_excluded: list[dict[tuple[int, int], int]] = [dict() for _ in units]
    for pr in range(mask.n_rows):
        for pc in range(mask.n_cols):
            if mask.nodata[pr, pc] or mask.values[pr, pc] != 1:
                continue
            px = mask.origin_x + (pc + 0.5) * mask.pixel_size
            py = mask.origin_y + (pr + 0.5) * mask.pixel_size
            tc = math.floor((px - grid.origin_x) / grid.tile_size)
            tr = math.floor((py - grid.origin_y) / grid.tile_size)
            if not (0 <= tc < grid.n_cols and 0 <= tr < grid.n_rows):
                continue
            owner = -1
            for k, unit in enumerate(units):
                bb = unit.bbox
                if not (bb.min_x <= px <= bb.max_x and bb.min_y <= py <= bb.max_y):
                    continue
                if point_in_any(Point(px, py), unit.geometry):
                    owner = k
                    break
            if owner < 0:
                continue
            key = (int(tc), int(tr))
            bucket = per_unit_retained[owner] if retained[tr, tc] else per_unit_excluded[owner]
            bucket[key] = bucket.get(key, 0) + 1

    for k, unit in enumerate(units):
        pop = unit.population
        total = sum(per_unit_retained[k].values())
        if total > 0:
            for (tc, tr), count in per_unit_retained[k].items():
                values[tr][tc] += pop * float(count) / float(total)
        else:
            center_tiles = []
            for tr in range(grid.n_rows):
                for tc in range(grid.n_cols):
                    center = grid.tile_center(tc, tr)
                    if point_in_any(center, unit.geometry):
                        center_tiles.append((tc, tr))
            if center_tiles:
                share = pop / len(center_tiles)
                for tc, tr in center_tiles:
                    values[tr][tc] += share
            else:
                rp = representative_point(unit.geometry)
                tc = math.floor((rp.x - grid.origin_x) / grid.tile_size)
                tr = math.floor((rp.y - grid.origin_y) / grid.tile_size)
                tc = min(max(tc, 0), grid.n_cols - 1)
                tr = min(max(tr, 0), grid.n_rows - 1)
                values[tr][tc] += pop
    return PopulationGrid.on(grid, values)
