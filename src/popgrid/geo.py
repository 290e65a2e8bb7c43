"""Planar geometry primitives and the square tile grid.

All coordinates are projected meters in one shared planar CRS. Tile extents
are half-open, so every point maps to at most one tile and tiles partition
the grid extent exactly.

Polygon membership uses the even-odd rule with a fixed tie rule for points
that fall exactly on a ring edge: the exterior boundary belongs to the
polygon, a hole boundary does not belong to the hole (i.e. the polygon is
the closed exterior minus the open interiors of its holes).

The scalar and vectorized membership kernels deliberately perform the same
floating-point operations in the same order, so bulk classification of
pixel/tile centers agrees bit-for-bit with the scalar functions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import GeometryError, ValidationError

TileId = tuple[int, int]  # (col, row)


def as_real(value: object) -> float:
    """``value`` as a float: NaN unless it is a real number other than a bool,
    infinite for an int beyond the float range."""
    if isinstance(value, float):  # the common case (numpy floats too), without the slower ABC check
        return float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require_finite(value: float, what: str) -> float:
    v = as_real(value)
    if not math.isfinite(v):
        raise ValidationError(f"{what} must be a finite real number, got {value!r}")
    return v


@dataclass(frozen=True, slots=True)
class Point:
    """A location in projected meters."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _require_finite(self.x, "Point.x"))
        object.__setattr__(self, "y", _require_finite(self.y, "Point.y"))


def distance(a: Point, b: Point) -> float:
    """Euclidean planar distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned bounding box (closed on all sides)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self):
        for name in ("min_x", "min_y", "max_x", "max_y"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), f"BBox.{name}"))
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValidationError(
                f"BBox min must not exceed max: ({self.min_x}, {self.min_y}, {self.max_x}, {self.max_y})"
            )

    @classmethod
    def of_points(cls, xs: Iterable[float], ys: Iterable[float]) -> "BBox":
        xs = list(xs)
        ys = list(ys)
        if not xs or not ys:
            raise ValidationError("BBox.of_points needs at least one point")
        return cls(min(xs), min(ys), max(xs), max(ys))

    def contains(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def intersects(self, other: "BBox") -> bool:
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    def union(self, other: "BBox") -> "BBox":
        return BBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y


def _normalize_ring(ring: Sequence, what: str) -> tuple[Point, ...]:
    """Normalize a ring to an open tuple of Points (no repeated last vertex)."""
    pts = [v if isinstance(v, Point) else Point(v[0], v[1]) for v in ring]
    if len(pts) >= 2 and pts[0].x == pts[-1].x and pts[0].y == pts[-1].y:
        pts = pts[:-1]
    distinct = {(p.x, p.y) for p in pts}
    if len(distinct) < 3:
        raise GeometryError(f"{what} needs at least 3 distinct vertices, got {len(distinct)}")
    return tuple(pts)


def _ring_signed_area(xs: np.ndarray, ys: np.ndarray) -> float:
    # shoelace over the open ring, closing edge implied
    x2 = np.roll(xs, -1)
    y2 = np.roll(ys, -1)
    return 0.5 * float(np.sum(xs * y2 - x2 * ys))


@dataclass(frozen=True)
class Polygon:
    """A simple polygon with optional holes.

    Rings may be given closed (first vertex repeated at the end) or open;
    they are stored open. Exterior non-self-intersection is assumed of the
    input and only checked cheaply (vertex count, nonzero area).
    """

    exterior: tuple[Point, ...]
    holes: tuple[tuple[Point, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "exterior", _normalize_ring(self.exterior, "exterior ring"))
        object.__setattr__(
            self,
            "holes",
            tuple(_normalize_ring(h, f"hole ring {i}") for i, h in enumerate(self.holes)),
        )
        if abs(_ring_signed_area(*_ring_arrays(self.exterior))) <= 0.0:
            raise GeometryError("exterior ring has zero area")
        for i, h in enumerate(self.holes):
            if abs(_ring_signed_area(*_ring_arrays(h))) <= 0.0:
                raise GeometryError(f"hole ring {i} has zero area")

    @cached_property
    def _rings(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return (_ring_arrays(self.exterior),) + tuple(_ring_arrays(h) for h in self.holes)

    @cached_property
    def bbox(self) -> BBox:
        xs, ys = self._rings[0]
        return BBox(float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))

    @cached_property
    def area(self) -> float:
        """Exterior area minus hole areas."""
        a = abs(_ring_signed_area(*self._rings[0]))
        for rx, ry in self._rings[1:]:
            a -= abs(_ring_signed_area(rx, ry))
        return a


def _ring_arrays(ring: tuple[Point, ...]) -> tuple[np.ndarray, np.ndarray]:
    xs = np.array([p.x for p in ring], dtype=np.float64)
    ys = np.array([p.y for p in ring], dtype=np.float64)
    return xs, ys


def rectangle(min_x: float, min_y: float, max_x: float, max_y: float) -> Polygon:
    """Axis-aligned rectangle polygon (counter-clockwise)."""
    return Polygon(
        exterior=(
            Point(min_x, min_y),
            Point(max_x, min_y),
            Point(max_x, max_y),
            Point(min_x, max_y),
        )
    )


def _ring_hits(rx: np.ndarray, ry: np.ndarray, px: float, py: float) -> tuple[bool, bool]:
    """Even-odd crossing parity and on-boundary flag for one ring (scalar)."""
    inside = False
    on_edge = False
    n = rx.shape[0]
    for i in range(n):
        x1 = rx[i]
        y1 = ry[i]
        j = i + 1 if i + 1 < n else 0
        x2 = rx[j]
        y2 = ry[j]
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        if (
            cross == 0.0
            and min(x1, x2) <= px <= max(x1, x2)
            and min(y1, y2) <= py <= max(y1, y2)
        ):
            on_edge = True
        if (y1 > py) != (y2 > py):
            t = (py - y1) / (y2 - y1)
            xi = x1 + t * (x2 - x1)
            if px < xi:
                inside = not inside
    return inside, on_edge


def _ring_hits_bulk(
    rx: np.ndarray, ry: np.ndarray, pxs: np.ndarray, pys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`_ring_hits`; identical arithmetic per point."""
    inside = np.zeros(pxs.shape, dtype=bool)
    on_edge = np.zeros(pxs.shape, dtype=bool)
    n = rx.shape[0]
    for i in range(n):
        x1 = rx[i]
        y1 = ry[i]
        j = i + 1 if i + 1 < n else 0
        x2 = rx[j]
        y2 = ry[j]
        cross = (x2 - x1) * (pys - y1) - (y2 - y1) * (pxs - x1)
        on_edge |= (
            (cross == 0.0)
            & (min(x1, x2) <= pxs)
            & (pxs <= max(x1, x2))
            & (min(y1, y2) <= pys)
            & (pys <= max(y1, y2))
        )
        straddle = (y1 > pys) != (y2 > pys)
        dy = y2 - y1
        denom = dy if dy != 0.0 else 1.0  # unused lanes masked by straddle
        t = (pys - y1) / denom
        xi = x1 + t * (x2 - x1)
        inside ^= straddle & (pxs < xi)
    return inside, on_edge


def point_in_polygon(p: Point, poly: Polygon) -> bool:
    """Even-odd membership with the documented boundary tie rule."""
    rings = poly._rings
    ext_in, ext_on = _ring_hits(rings[0][0], rings[0][1], p.x, p.y)
    if not (ext_in or ext_on):
        return False
    for hx, hy in rings[1:]:
        h_in, h_on = _ring_hits(hx, hy, p.x, p.y)
        if h_in and not h_on:
            return False
    return True


def points_in_polygon(pxs: np.ndarray, pys: np.ndarray, poly: Polygon) -> np.ndarray:
    """Vectorized :func:`point_in_polygon` over coordinate arrays."""
    pxs = np.asarray(pxs, dtype=np.float64)
    pys = np.asarray(pys, dtype=np.float64)
    rings = poly._rings
    ext_in, ext_on = _ring_hits_bulk(rings[0][0], rings[0][1], pxs, pys)
    result = ext_in | ext_on
    for hx, hy in rings[1:]:
        h_in, h_on = _ring_hits_bulk(hx, hy, pxs, pys)
        result &= ~(h_in & ~h_on)
    return result


def point_in_any(p: Point, parts: Sequence[Polygon]) -> bool:
    """Membership in a multi-part geometry (any part contains the point)."""
    return any(point_in_polygon(p, part) for part in parts)


def points_in_any(pxs: np.ndarray, pys: np.ndarray, parts: Sequence[Polygon]) -> np.ndarray:
    result = np.zeros(np.shape(pxs), dtype=bool)
    for part in parts:
        result |= points_in_polygon(pxs, pys, part)
    return result


def parts_bbox(parts: Sequence[Polygon]) -> BBox:
    if not parts:
        raise ValidationError("no polygons to take a bounding box of")
    box = parts[0].bbox
    for part in parts[1:]:
        box = box.union(part.bbox)
    return box


@dataclass(frozen=True)
class TileGrid:
    """A regular square tiling anchored at a lower-left origin.

    Tile (c, r) spans [origin_x + c*s, origin_x + (c+1)*s) by
    [origin_y + r*s, origin_y + (r+1)*s), half-open on the high edges.
    Row 0 is the southernmost row.
    """

    origin_x: float
    origin_y: float
    n_cols: int
    n_rows: int
    tile_size: float = 30.0

    def __post_init__(self):
        for name in ("origin_x", "origin_y", "tile_size"):
            _require_finite(getattr(self, name), f"TileGrid.{name}")
        if self.tile_size <= 0:
            raise ValidationError(f"tile_size must be positive, got {self.tile_size}")
        for n in (self.n_cols, self.n_rows):
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise ValidationError(f"grid size must be an integer, got {n!r}")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValidationError(f"grid needs at least one tile: {self.n_cols}x{self.n_rows}")

    @property
    def n_tiles(self) -> int:
        return self.n_cols * self.n_rows

    @property
    def max_x(self) -> float:
        return self.origin_x + self.n_cols * self.tile_size

    @property
    def max_y(self) -> float:
        return self.origin_y + self.n_rows * self.tile_size

    def extent(self) -> BBox:
        return BBox(self.origin_x, self.origin_y, self.max_x, self.max_y)

    def tile_index_of(self, p: Point) -> TileId | None:
        """Tile containing p under the half-open rule, None outside the grid."""
        c = math.floor((p.x - self.origin_x) / self.tile_size)
        r = math.floor((p.y - self.origin_y) / self.tile_size)
        if 0 <= c < self.n_cols and 0 <= r < self.n_rows:
            return (int(c), int(r))
        return None

    def tile_indices_of(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized tile lookup.

        Returns (cols, rows, inside) where inside marks points within the
        grid extent; cols/rows are only meaningful where inside is True.
        """
        cols = np.floor((np.asarray(xs, dtype=np.float64) - self.origin_x) / self.tile_size)
        rows = np.floor((np.asarray(ys, dtype=np.float64) - self.origin_y) / self.tile_size)
        inside = (cols >= 0) & (cols < self.n_cols) & (rows >= 0) & (rows < self.n_rows)
        return cols.astype(np.int64), rows.astype(np.int64), inside

    def flat_index(self, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return rows * self.n_cols + cols

    def tile_center(self, col: int, row: int) -> Point:
        return Point(
            self.origin_x + (col + 0.5) * self.tile_size,
            self.origin_y + (row + 0.5) * self.tile_size,
        )


def tile_index_of(grid: TileGrid, p: Point) -> TileId | None:
    """Module-level alias for :meth:`TileGrid.tile_index_of`."""
    return grid.tile_index_of(p)


def tile_centers_in_parts(grid: TileGrid, parts: Sequence[Polygon], where=None) -> np.ndarray:
    """Flat indices (sorted, row-major) of tiles whose centers fall in any part,
    among the tiles marked by ``where`` (flat bool array) if it is given."""
    box = parts_bbox(parts)
    c0 = max(0, math.floor((box.min_x - grid.origin_x) / grid.tile_size) - 1)
    c1 = min(grid.n_cols - 1, math.floor((box.max_x - grid.origin_x) / grid.tile_size) + 1)
    r0 = max(0, math.floor((box.min_y - grid.origin_y) / grid.tile_size) - 1)
    r1 = min(grid.n_rows - 1, math.floor((box.max_y - grid.origin_y) / grid.tile_size) + 1)
    cols = np.arange(c0, c1 + 1, dtype=np.int64)
    rows = np.arange(r0, r1 + 1, dtype=np.int64)
    cc, rr = np.meshgrid(cols, rows)
    cc = cc.ravel()
    rr = rr.ravel()
    flat = rr * grid.n_cols + cc
    xs = grid.origin_x + (cc + 0.5) * grid.tile_size
    ys = grid.origin_y + (rr + 0.5) * grid.tile_size
    keep = (xs >= box.min_x) & (xs <= box.max_x) & (ys >= box.min_y) & (ys <= box.max_y)
    if where is not None:
        keep &= where[flat]
    hit = points_in_any(xs[keep], ys[keep], parts)
    return flat[keep][hit]


def first_owners(grid: TileGrid, geometries: Sequence[Sequence[Polygon]], where=None):
    """Flat int32 index of the first geometry, in input order, holding each tile
    center (-1 for none), and the count of hits on centers already owned."""
    owner = np.full(grid.n_tiles, -1, dtype=np.int32)
    overlap = 0
    for k, parts in enumerate(geometries):
        hit = tile_centers_in_parts(grid, parts, where)
        free = hit[owner[hit] == -1]
        overlap += hit.size - free.size
        owner[free] = k
    return owner, overlap


def representative_point(parts: Sequence[Polygon]) -> Point:
    """A deterministic point guaranteed to lie in the geometry.

    Tries the largest part's centroid, then its bbox center, then a
    horizontal mid-scanline, then falls back to the first exterior vertex
    (which is on the boundary and therefore inside by the tie rule).
    """
    part = max(parts, key=lambda p: abs(p.area))
    xs, ys = part._rings[0]
    x2 = np.roll(xs, -1)
    y2 = np.roll(ys, -1)
    cross = xs * y2 - x2 * ys
    a = float(np.sum(cross)) * 0.5
    if a != 0.0:
        cx = float(np.sum((xs + x2) * cross)) / (6.0 * a)
        cy = float(np.sum((ys + y2) * cross)) / (6.0 * a)
        candidate = Point(cx, cy)
        if point_in_polygon(candidate, part):
            return candidate
    box = part.bbox
    candidate = Point((box.min_x + box.max_x) / 2.0, (box.min_y + box.max_y) / 2.0)
    if point_in_polygon(candidate, part):
        return candidate
    mid_y = (box.min_y + box.max_y) / 2.0
    crossings = []
    n = xs.shape[0]
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        y1, y2v = ys[i], ys[j]
        if (y1 > mid_y) != (y2v > mid_y):
            t = (mid_y - y1) / (y2v - y1)
            crossings.append(xs[i] + t * (xs[j] - xs[i]))
    crossings.sort()
    for k in range(0, len(crossings) - 1, 2):
        candidate = Point((crossings[k] + crossings[k + 1]) / 2.0, mid_y)
        if point_in_polygon(candidate, part):
            return candidate
    return part.exterior[0]
