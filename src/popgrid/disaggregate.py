"""Distribute admin-unit populations over retained tiles by built-up weight.

Each built pixel is assigned by its center to exactly one tile (half-open
rule) and at most one admin unit (first unit in input order wins when
polygons overlap, with a warning). A unit's population then lands on its
retained tiles proportionally to their built-pixel counts.

The proportional denominator is the unit's built pixels on RETAINED tiles
only. Dividing by all of the unit's built pixels would silently drop the
share that falls on excluded tiles; normalizing over retained tiles keeps
the grand total conserved.

Fallbacks, always flagged in the report:
  - a unit with zero retained built pixels spreads its population uniformly
    over all tiles whose centers lie inside it (retained or not);
  - a unit containing no tile center puts its population on the tile of its
    representative point (clamped to the grid edge if necessary).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, ConfigurationError, OverlapWarning, ValidationError
from .geo import Polygon, TileGrid, first_owners, representative_point, tile_centers_in_parts
from .io import AdminUnit, BinaryRaster, PopulationGrid
from .poi_filter import TileMask

__all__ = [
    "UnitTally",
    "PixelAssignment",
    "UnitAllocation",
    "AllocationReport",
    "assign_pixels",
    "allocate",
    "allocate_uniform",
    "run_disaggregation",
]

# overlapping unit pairs an OverlapWarning names, in input order
_OVERLAPS_NAMED = 3


@dataclass(frozen=True)
class UnitTally:
    """Built-pixel counts for one admin unit, split by tile retention."""

    unit_id: str
    retained_tiles: np.ndarray  # flat tile indices, sorted
    retained_counts: np.ndarray  # int64 built-pixel counts, parallel
    excluded_tiles: np.ndarray
    excluded_counts: np.ndarray

    @property
    def total_retained_built(self) -> int:
        return int(self.retained_counts.sum())

    @property
    def total_built(self) -> int:
        return int(self.retained_counts.sum() + self.excluded_counts.sum())


@dataclass(frozen=True)
class PixelAssignment:
    """Outcome of routing built pixels to tiles and admin units."""

    grid: TileGrid
    tallies: tuple[UnitTally, ...]
    overlap_pixels: int
    built_pixels_total: int
    built_pixels_outside_grid: int
    built_pixels_unassigned: int  # inside grid but in no admin unit


@dataclass(frozen=True)
class UnitAllocation:
    unit_id: str
    population_in: float
    population_out: float
    fallback_used: bool
    retained_tiles: int
    excluded_tiles: int


@dataclass(frozen=True)
class AllocationReport:
    units: tuple[UnitAllocation, ...]
    population_in_total: float
    population_out_total: float
    fallback_units: int
    overlap_pixels: int

    def to_dict(self) -> dict:
        return {
            "totals": {
                "population_in": self.population_in_total,
                "population_out": self.population_out_total,
                "units": len(self.units),
                "fallback_units": self.fallback_units,
                "overlap_pixels": self.overlap_pixels,
            },
            "units": [
                {
                    "id": u.unit_id,
                    "population_in": u.population_in,
                    "population_out": u.population_out,
                    "fallback_used": u.fallback_used,
                    "retained_tiles": u.retained_tiles,
                    "excluded_tiles": u.excluded_tiles,
                }
                for u in self.units
            ],
        }


def _check_inputs(mask: BinaryRaster, grid: TileGrid, tile_mask: TileMask) -> None:
    if tile_mask.grid != grid:
        raise AlignmentError("tile mask grid does not match the allocation grid")
    if mask.pixel_size > grid.tile_size:
        raise ConfigurationError(
            f"pixel size {mask.pixel_size} is coarser than tile size {grid.tile_size}"
        )
    if not mask.grid.extent().intersects(grid.extent()):
        raise ConfigurationError("built-up raster extent does not overlap the grid extent")


def assign_pixels(
    mask: BinaryRaster,
    grid: TileGrid,
    units: Sequence[AdminUnit],
    tile_mask: TileMask,
) -> PixelAssignment:
    """Route each valid built pixel to its tile and its first containing unit."""
    _check_inputs(mask, grid, tile_mask)
    built = (mask.values == 1) & ~mask.nodata
    owner, overlaps = first_owners(mask.grid, [u.geometry for u in units], where=built.reshape(-1))
    overlap = sum(n for _, _, n in overlaps)
    rr, cc = np.nonzero(built)
    unit_of = owner.reshape(built.shape)[rr, cc]
    del owner
    xs = mask.origin_x + (cc + 0.5) * mask.pixel_size
    ys = mask.origin_y + (rr + 0.5) * mask.pixel_size
    del rr, cc

    cols, rows, in_grid = grid.tile_indices_of(xs, ys)
    del xs, ys
    if overlap:
        named = ", ".join(
            f"{units[w].id!r} over {units[k].id!r} ({n} pixels)" for w, k, n in overlaps[:_OVERLAPS_NAMED]
        )
        more = len(overlaps) - _OVERLAPS_NAMED
        warnings.warn(
            f"{overlap} built pixels fall in more than one admin unit; "
            f"first unit in input order wins: {named}" + (f" and {more} more" if more > 0 else ""),
            OverlapWarning,
            stacklevel=2,
        )

    # sort pixels by (unit, excluded, tile): run 2k = unit k's retained tiles, 2k+1 = excluded
    sel = (unit_of != -1) & in_grid
    tiles = grid.flat_index(cols[sel], rows[sel])
    excluded = ~tile_mask.retained.reshape(-1)[tiles]
    group = unit_of[sel].astype(np.int64) * 2 + excluded
    keys, counts = np.unique(group * grid.n_tiles + tiles, return_counts=True)
    group, tiles = np.divmod(keys, grid.n_tiles)
    cut = np.searchsorted(group, np.arange(1, 2 * len(units)))
    t, c = np.split(tiles, cut), np.split(counts.astype(np.int64), cut)
    return PixelAssignment(
        grid=grid,
        tallies=tuple(
            UnitTally(unit.id, t[2 * k], c[2 * k], t[2 * k + 1], c[2 * k + 1])
            for k, unit in enumerate(units)
        ),
        overlap_pixels=overlap,
        built_pixels_total=int(unit_of.size),
        built_pixels_outside_grid=int(np.count_nonzero(~in_grid)),
        built_pixels_unassigned=int(np.count_nonzero(in_grid & (unit_of == -1))),
    )


def _spread_evenly(values: np.ndarray, grid: TileGrid, parts: Sequence[Polygon], pop: float) -> float:
    """Add ``pop`` to the flat ``values`` evenly over the tiles whose centers
    ``parts`` hold, else all on the tile of its representative point (clamped
    into the grid); return the amount added."""
    tiles = tile_centers_in_parts(grid, parts)
    if tiles.size > 0:
        share = pop / tiles.size
        values[tiles] += share
        return float(share * tiles.size)
    rp = representative_point(parts)
    c = min(max(math.floor((rp.x - grid.origin_x) / grid.tile_size), 0), grid.n_cols - 1)
    r = min(max(math.floor((rp.y - grid.origin_y) / grid.tile_size), 0), grid.n_rows - 1)
    values[r * grid.n_cols + c] += pop
    return pop


def allocate(
    assignment: PixelAssignment, units: Sequence[AdminUnit]
) -> tuple[PopulationGrid, AllocationReport]:
    """Turn pixel tallies into per-tile population, conserving every unit's total."""
    if len(assignment.tallies) != len(units) or any(
        t.unit_id != u.id for t, u in zip(assignment.tallies, units)
    ):
        raise ValidationError("pixel assignment was built from a different unit list")
    grid = assignment.grid
    values = np.zeros(grid.n_tiles, dtype=np.float64)
    rows = []
    for tally, unit in zip(assignment.tallies, units):
        pop = unit.population
        total = tally.total_retained_built
        if total > 0:
            contrib = pop * tally.retained_counts.astype(np.float64) / float(total)
            values[tally.retained_tiles] += contrib
            pop_out = float(contrib.sum())
        else:
            pop_out = _spread_evenly(values, grid, unit.geometry, pop)
        rows.append(
            UnitAllocation(
                unit_id=unit.id,
                population_in=pop,
                population_out=pop_out,
                fallback_used=total == 0,
                retained_tiles=int(tally.retained_tiles.size),
                excluded_tiles=int(tally.excluded_tiles.size),
            )
        )
    report = AllocationReport(
        units=tuple(rows),
        population_in_total=float(sum(u.population for u in units)),
        population_out_total=float(values.sum()),
        fallback_units=sum(r.fallback_used for r in rows),
        overlap_pixels=assignment.overlap_pixels,
    )
    pop_grid = PopulationGrid.on(grid, values.reshape(grid.n_rows, grid.n_cols))
    return pop_grid, report


def run_disaggregation(
    mask: BinaryRaster,
    grid: TileGrid,
    units: Sequence[AdminUnit],
    tile_mask: TileMask,
) -> tuple[PopulationGrid, AllocationReport]:
    """Convenience wrapper: assign pixels, then allocate."""
    return allocate(assign_pixels(mask, grid, units, tile_mask), units)


def allocate_uniform(grid: TileGrid, units: Sequence[AdminUnit]) -> PopulationGrid:
    """Reference spread: each unit's population uniform over its tiles.

    Membership is by tile center; units without a tile center anchor at
    their representative point, like the allocation fallback.
    """
    values = np.zeros(grid.n_tiles, dtype=np.float64)
    for unit in units:
        _spread_evenly(values, grid, unit.geometry, unit.population)
    return PopulationGrid.on(grid, values.reshape(grid.n_rows, grid.n_cols))

