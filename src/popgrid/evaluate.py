"""Mask-quality metrics and zonal population statistics.

Built-up (value 1) is the positive class. Nothing here resamples
implicitly: comparing rasters with different geometry is an error, and
coarsening a fine mask onto a tile grid is an explicit, thresholded step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, ParameterError, ValidationError
from .geo import TileGrid, first_owners
from .io import AdminUnit, BinaryRaster, PopulationGrid, Raster

__all__ = [
    "ConfusionCounts",
    "Metrics",
    "ZonalRow",
    "confusion",
    "metrics",
    "downsample_to_tiles",
    "tile_area_km2",
    "zonal_stats",
]

UNASSIGNED_ID = "_unassigned"


@dataclass(frozen=True)
class ConfusionCounts:
    """Cell counts with built-up as the positive class."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ParameterError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    f1: float
    precision: float
    recall: float
    iou: float

    def to_dict(self, counts: ConfusionCounts | None = None) -> dict:
        out = {
            "accuracy": self.accuracy,
            "f1": self.f1,
            "precision": self.precision,
            "recall": self.recall,
            "iou": self.iou,
        }
        if counts is not None:
            out.update({"tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn})
        return out


def confusion(predicted: Raster, reference: Raster) -> ConfusionCounts:
    """Compare two binary rasters cell by cell.

    The rasters must share origin, pixel size and dimensions exactly; cells
    that are nodata in either raster are skipped.
    """
    if predicted.grid != reference.grid:
        raise AlignmentError(
            f"predicted and reference rasters do not share grid geometry ({predicted.grid} vs {reference.grid})"
        )
    valid = ~predicted.nodata & ~reference.nodata
    p = (predicted.values != 0) & valid
    r = (reference.values != 0) & valid
    tp = int(np.count_nonzero(p & r))
    fp = int(np.count_nonzero(p & ~r))
    fn = int(np.count_nonzero(~p & r))
    tn = int(np.count_nonzero(~p & ~r & valid))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def metrics(c: ConfusionCounts) -> Metrics:
    """Accuracy and F1 (plus precision/recall/IoU as extras).

    With no positives anywhere (2*tp + fp + fn == 0) the prediction is a
    perfect all-negative classifier, so F1/precision/recall/IoU are 1.0.
    """
    if c.total == 0:
        raise ParameterError("cannot compute metrics over zero cells")
    accuracy = (c.tp + c.tn) / c.total
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return Metrics(accuracy=accuracy, f1=1.0, precision=1.0, recall=1.0, iou=1.0)
    f1 = 2 * c.tp / denom
    # from here tp + fp == 0 means fn > 0, tp + fn == 0 means fp > 0, and the union is positive
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) else 0.0
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) else 0.0
    iou = c.tp / (c.tp + c.fp + c.fn)
    return Metrics(accuracy=accuracy, f1=f1, precision=precision, recall=recall, iou=iou)


def downsample_to_tiles(raster: Raster, grid: TileGrid, theta: float = 0.5) -> Raster:
    """Binarize a fine mask at tile resolution.

    A tile becomes 1 when the built fraction among its valid pixels is at
    least ``theta``; a tile whose pixels are all nodata (or that holds no
    pixel center) becomes nodata.
    """
    if not (0.0 < theta <= 1.0):
        raise ParameterError(f"theta must be in (0, 1], got {theta}")
    rows_idx, cols_idx = np.indices(raster.values.shape)
    xs = raster.origin_x + (cols_idx.ravel() + 0.5) * raster.pixel_size
    ys = raster.origin_y + (rows_idx.ravel() + 0.5) * raster.pixel_size
    cols, rows, inside = grid.tile_indices_of(xs, ys)
    valid = inside & ~raster.nodata.ravel()
    flat = grid.flat_index(cols[valid], rows[valid])
    built = (raster.values.ravel()[valid] != 0).astype(np.int64)
    n_tiles = grid.n_tiles
    valid_per_tile = np.bincount(flat, minlength=n_tiles)
    built_per_tile = np.bincount(flat, weights=built, minlength=n_tiles).astype(np.int64)
    nodata = valid_per_tile == 0
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = built_per_tile / valid_per_tile
    values = np.where(~nodata & (frac >= theta), 1.0, 0.0)
    return Raster.on(grid, values.reshape(grid.n_rows, grid.n_cols), nodata.reshape(grid.n_rows, grid.n_cols))


def tile_area_km2(grid: TileGrid) -> float:
    """The area of one tile in km2, refused (a ValidationError) unless it is
    a finite positive float, as it is not for a 1e300 m or a 1e-300 m tile."""
    try:
        area = (grid.tile_size / 1000.0) ** 2
    except OverflowError:
        area = math.inf
    if not 0.0 < area < math.inf:
        raise ValidationError(f"a {grid.tile_size!r} m tile has an area of {area!r} km2, not a finite positive number")
    return area


@dataclass(frozen=True)
class ZonalRow:
    unit_id: str
    population_sum: float
    tile_count: int
    built_tile_count: int
    mean_density: float  # persons per km^2


def zonal_stats(
    pop: PopulationGrid,
    units: Sequence[AdminUnit],
    built: Raster | None = None,
) -> list[ZonalRow]:
    """Sum tile populations per admin unit (a tile goes to the first unit holding its center).

    Tiles claimed by no unit are reported under a final ``_unassigned`` row,
    so the rows always total the grid's grand total. When ``built`` (a
    tile-resolution 0/1 raster, checked as a :class:`BinaryRaster`) is given
    it supplies built_tile_count; otherwise tiles with positive population
    are counted as built. A grid whose tile area is refused by
    :func:`tile_area_km2` is refused before any work, and a unit whose mean
    density is not finite (its population over a tiny tile area overflows)
    is a ValidationError naming the unit and the tile area.
    """
    grid = pop.grid
    tile_area = tile_area_km2(grid)
    flat_pop = pop.values.reshape(-1)
    if built is not None:
        if built.grid != grid:
            raise AlignmentError("built raster does not match the population grid geometry")
        built = BinaryRaster.from_raster(built)
        built_flat = (built.values.reshape(-1) != 0) & ~built.nodata.reshape(-1)
    else:
        built_flat = flat_pop > 0
    owner, _ = first_owners(grid, [u.geometry for u in units])
    order = np.argsort(owner, kind="stable")
    rest, *mine = np.split(order, np.searchsorted(owner[order], np.arange(len(units))))
    rows = [_zonal_row(u.id, t, flat_pop, built_flat, tile_area) for u, t in zip(units, mine)]
    rows.append(_zonal_row(UNASSIGNED_ID, rest, flat_pop, built_flat, tile_area))
    return rows


def _zonal_row(
    unit_id: str,
    tiles: np.ndarray,
    flat_pop: np.ndarray,
    built_flat: np.ndarray,
    tile_area_km2: float,
) -> ZonalRow:
    pop_sum = float(flat_pop[tiles].sum())
    count = int(tiles.size)
    density = pop_sum / (count * tile_area_km2) if count else 0.0
    if not math.isfinite(density):
        raise ValidationError(
            f"unit {unit_id!r}: {pop_sum!r} persons on {count} tiles of {tile_area_km2!r} km2 "
            f"give a mean density of {density!r} per km2, not a finite number"
        )
    return ZonalRow(
        unit_id=unit_id,
        population_sum=pop_sum,
        tile_count=count,
        built_tile_count=int(np.count_nonzero(built_flat[tiles])),
        mean_density=density,
    )
