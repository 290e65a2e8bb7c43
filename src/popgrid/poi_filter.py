"""Exclude non-residential tiles using point-of-interest density.

A tile is dropped when some POI inside it has at least ``threshold`` POIs
(including itself) within ``radius`` meters. Isolated POIs scattered through
residential fabric therefore rarely remove tiles; dense commercial clusters
do.

A ``PoiSet`` holds read-only float64 arrays ``xs`` and ``ys`` and a tuple
of ``categories``, one per point.

Buffer membership is a closed disc evaluated on squared distances
(dx*dx + dy*dy <= radius*radius), so counts are exactly reproducible and
monotone in the radius. The center POI always counts toward its own buffer:
with threshold 1 every POI is dense, which makes the degenerate bound easy
to reason about.

A dense POI is a DBSCAN core point (eps = radius, MinPts = threshold).
``PoiSet.dense`` decides most of them from per-cell certificates, with no
pair test, and counts pairs exactly only for the POIs a cell leaves
undecided; ``PoiSet.buffer_counts`` counts pairs for every POI.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ParameterError, ValidationError
from .geo import TileGrid, as_real, finite_coords

__all__ = ["PoiSet", "TileMask", "compute_tile_mask"]

_PAIR_BLOCK = 2**16  # point pairs tested at once by PoiSet._pair_counts


class PoiSet:
    """Immutable POI collection: read-only float64 arrays ``xs`` and ``ys``,
    and one free-form category ``str`` per point (all "" when none are given),
    with exact closed-disc radius queries: ``buffer_counts`` and ``dense``
    hash the points."""

    def __init__(self, xs: Sequence = (), ys: Sequence = (), categories: Sequence[str] | None = None):
        self.xs, self.ys = finite_coords(xs, ys)
        self.categories: tuple[str, ...] = ("",) * len(self.xs) if categories is None else tuple(categories)
        if len(self.categories) != len(self.xs):
            raise ValidationError(f"{len(self.categories)} categories for {len(self.xs)} POIs")
        if not all(map(isinstance, self.categories, repeat(str))):
            i = next(i for i, c in enumerate(self.categories) if not isinstance(c, str))
            raise ValidationError(f"POI #{i}: category must be a string, got {self.categories[i]!r}")

    def __len__(self) -> int:
        return len(self.xs)

    def buffer_counts(self, radius: float) -> np.ndarray:
        """How many points lie within the closed disc of ``radius`` around each
        point, itself included, input order, exact: the grid-hashed pair pass
        of ``_pair_counts`` over every point."""
        radius = _check_radius_threshold(radius)
        return self._pair_counts(radius, np.arange(len(self.xs)))

    def dense(self, radius: float, threshold: int) -> np.ndarray:
        """Whether each point's buffer holds at least ``threshold`` points,
        input order; equal to ``buffer_counts(radius) >= threshold``.

        The points are grouped into cells of side radius/sqrt(2). A cell of at
        least ``threshold`` points whose float extents DX = max x - min x and
        DY (likewise) give DX*DX + DY*DY <= radius*radius makes every one of
        its points dense: rounding is monotone, so each pair in the cell has a
        rounded |dx| <= DX and |dy| <= DY and passes the pair test itself.
        This holds for any grouping; the cell side only sets how many points
        are decided this way (the core-point grid of Gan & Tao, SIGMOD 2015).
        The points left undecided are counted exactly by ``_pair_counts``.
        """
        radius = _check_radius_threshold(radius, threshold)
        n = len(self.xs)
        if n == 0:
            return np.zeros(0, dtype=bool)
        # Float keys: a tiny radius puts x / side beyond the int64 range, or at
        # inf; an overflow only merges cells, which the certificate allows.
        side = radius / math.sqrt(2.0)
        with np.errstate(over="ignore"):
            kx, ky = np.floor(self.xs / side), np.floor(self.ys / side)
            order = np.lexsort((ky, kx))
            kx, ky, xs, ys = kx[order], ky[order], self.xs[order], self.ys[order]
            start = np.flatnonzero(np.concatenate(([True], (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1]))))
            size = np.diff(np.append(start, n))
            dx = np.maximum.reduceat(xs, start) - np.minimum.reduceat(xs, start)
            dy = np.maximum.reduceat(ys, start) - np.minimum.reduceat(ys, start)
            certified = (size >= threshold) & (dx * dx + dy * dy <= radius * radius)
        dense = np.empty(n, dtype=bool)
        dense[order] = np.repeat(certified, size)
        undecided = np.flatnonzero(~dense)
        if undecided.size:
            dense[undecided] = self._pair_counts(radius, undecided) >= threshold
        return dense

    def _pair_counts(self, radius: float, query: np.ndarray) -> np.ndarray:
        """The buffer counts of the points ``query`` indexes, in one grid-hashed
        pass: fixed-radius near neighbours (Bentley, Stanat & Williams 1977)
        over the 3x3 cells around each query point's own, ``_PAIR_BLOCK``
        point pairs at a time."""
        rr = radius * radius
        counts = np.zeros(len(query), dtype=np.int64)
        if not len(query):
            return counts
        big = float(max(np.abs(self.xs).max(), np.abs(self.ys).max()))
        # Cover: with u = 2**-53, an accepted pair has |dx| <= radius*(1 + 2u), or
        # |dx| < 2**-500 (smaller squares may leave the normal range), so the exact
        # |xj - xi| is below radius*(1 + 2**-50) + 2**-499. Cell indices
        # floor(fl(x / cell)) two apart need |xj - xi| > cell - 2u*big - cell*2**-1073.
        # A cell exactly `radius` wide leaves no room for those errors (indexed as
        # floor((x - min_x) / radius) it does split such pairs); the cell below has
        # 2**-20 relative and 2**-490 absolute to spare, so the 3x3 cells hold every
        # accepted pair. Overflow: |x| / cell <= 2**20, so int64 keys stay below 2**44.
        cell = radius + (radius + big) * 2.0**-20 + 2.0**-490
        kx, ky = (np.floor(v / cell).astype(np.int64) for v in (self.xs, self.ys))
        width = int(ky.max() - ky.min()) + 3
        key = (kx - kx.min() + 1) * width + (ky - ky.min() + 1)
        order = np.argsort(key, kind="stable")
        qkey = key[query]
        visit = np.argsort(qkey, kind="stable")  # query points cell by cell
        key, xs, ys = key[order], self.xs[order], self.ys[order]
        qx, qy = self.xs[query], self.ys[query]
        # A point's candidates are three runs of the sorted order, one per
        # neighbouring cell column (cells ky-1..ky+1 have adjacent keys).
        want = qkey[visit][:, None] + np.arange(-1, 2) * width
        lo = np.searchsorted(key, want - 1).ravel()
        run = np.searchsorted(key, want + 1, side="right").ravel() - lo
        point, lo, run = np.repeat(visit, 3)[run > 0], lo[run > 0], run[run > 0]
        ends = np.cumsum(run)
        shift = lo - (ends - run)  # pair g of run r is query point[r] and sorted g + shift[r]
        for g0 in range(0, int(ends[-1]), _PAIR_BLOCK):
            g1 = min(g0 + _PAIR_BLOCK, int(ends[-1]))
            r0, r1 = np.searchsorted(ends, [g0, g1 - 1], side="right")
            r = slice(r0, r1 + 1)
            seg = np.minimum(ends[r], g1) - np.maximum(ends[r] - run[r], g0)
            j = np.arange(g0, g1) + np.repeat(shift[r], seg)
            dx = xs[j] - np.repeat(qx[point[r]], seg)
            dy = ys[j] - np.repeat(qy[point[r]], seg)
            hit = dx * dx + dy * dy <= rr
            np.add.at(counts, point[r], np.add.reduceat(hit, np.cumsum(seg) - seg, dtype=np.int64))
        return counts


@dataclass(frozen=True)
class TileMask:
    """Per-tile retained flags; True keeps the tile for allocation."""

    grid: TileGrid
    retained: np.ndarray  # bool, shape (n_rows, n_cols)

    def __post_init__(self):
        retained = np.asarray(self.retained, dtype=bool)
        if retained.shape != (self.grid.n_rows, self.grid.n_cols):
            raise ValidationError(
                f"mask shape {retained.shape} does not match grid "
                f"{self.grid.n_rows}x{self.grid.n_cols}"
            )
        retained.setflags(write=False)
        object.__setattr__(self, "retained", retained)

    @property
    def n_excluded(self) -> int:
        return int(self.retained.size - np.count_nonzero(self.retained))

    def excluded_flat(self) -> np.ndarray:
        """Sorted flat indices of excluded tiles."""
        return np.flatnonzero(~self.retained.reshape(-1))


def _check_radius_threshold(radius: float, threshold: int = 1) -> float:
    """The radius as a float, once radius and threshold are in range."""
    r = as_real(radius)
    if not (0 < r and r * r < math.inf):
        raise ParameterError(f"radius must be a positive number with a finite square, got {radius!r}")
    whole = isinstance(threshold, numbers.Integral) and not isinstance(threshold, bool)
    if not (whole and threshold >= 1):
        raise ParameterError(f"threshold must be an integer of at least 1, got {threshold!r}")
    return r


def compute_tile_mask(grid: TileGrid, pois: PoiSet, radius: float, threshold: int) -> TileMask:
    """Mark tiles that contain at least one dense POI as not retained.

    POIs outside the grid extent never mark a tile but still contribute to
    the buffer counts of POIs inside it.
    """
    dense = pois.dense(radius, threshold)
    cols, rows, inside = grid.tile_indices_of(pois.xs[dense], pois.ys[dense])
    retained = np.ones((grid.n_rows, grid.n_cols), dtype=bool)
    retained[rows[inside], cols[inside]] = False
    return TileMask(grid=grid, retained=retained)
