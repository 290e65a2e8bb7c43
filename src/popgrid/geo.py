"""Planar geometry primitives and the square tile grid.

All coordinates are projected meters in one shared planar CRS. Tile extents
are half-open, so every point maps to at most one tile and tiles partition
the grid extent exactly.

Polygon membership uses the even-odd rule with a fixed tie rule for points
that fall exactly on a ring edge: the exterior boundary belongs to the
polygon, a hole boundary does not belong to the hole (i.e. the polygon is
the closed exterior minus the open interiors of its holes).

A polygon holds each ring once, as read-only float64 ``(xs, ys)`` arrays
checked with the ``as_real`` rule; ``Point`` views are built on demand.

Two bulk membership kernels evaluate the scalar kernel's own expressions, so
both agree bit-for-bit with the scalar functions:

- the lattice kernel (``tile_centers_in_parts``, and so ``first_owners``),
  which the pipeline uses for pixel and tile centers, works by scanline: each
  edge's row crossings are expanded at once, a running parity along each row
  counts the crossings right of each center, and on-edge is tested on the
  cells of each edge's own bbox only;
- the point-set kernel (``points_in_polygon``), for arbitrary points, sorts
  them by y once and tests each edge on the points of its y-band.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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


def finite_coords(xs: Sequence, ys: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """``xs`` and ``ys`` as read-only float64 arrays under the ``as_real`` rule;
    the first point with a refused coordinate raises the error ``Point`` does."""
    arrays = [
        np.array(v) if isinstance(v, np.ndarray) and v.dtype == np.float64 else np.fromiter(map(as_real, v), np.float64)
        for v in (xs, ys)
    ]
    if arrays[0].shape != arrays[1].shape:
        raise ValidationError(f"coordinate arrays differ in length: {len(arrays[0])} xs, {len(arrays[1])} ys")
    bad = np.flatnonzero(~(np.isfinite(arrays[0]) & np.isfinite(arrays[1])))
    if bad.size:
        Point(xs[bad[0]], ys[bad[0]])
    for a in arrays:
        a.setflags(write=False)
    return arrays[0], arrays[1]


def _ring(ring: Sequence, what: str) -> tuple[np.ndarray, np.ndarray]:
    """A ring of Points or [x, y] pairs, or an (n, 2) float64 array, as open
    (xs, ys) arrays (no repeated last vertex)."""
    if isinstance(ring, np.ndarray) and ring.dtype == np.float64 and ring.ndim == 2:
        xs, ys = finite_coords(ring[:, 0], ring[:, 1])
    else:
        xs, ys = finite_coords(
            [v.x if isinstance(v, Point) else v[0] for v in ring],
            [v.y if isinstance(v, Point) else v[1] for v in ring],
        )
    if len(xs) >= 2 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        xs, ys = xs[:-1], ys[:-1]
    distinct = _distinct_up_to_3(xs, ys)
    if distinct < 3:
        raise GeometryError(f"{what} needs at least 3 distinct vertices, got {distinct}")
    return xs, ys


def _distinct_up_to_3(xs: np.ndarray, ys: np.ndarray) -> int:
    """The number of distinct vertices (x, y), or 3 when there are more; a
    ring's first three vertices are most often distinct, so the scan stops
    there."""
    seen = set()
    for vertex in zip(xs, ys):  # numpy floats hash and compare as floats do
        seen.add(vertex)
        if len(seen) == 3:
            break
    return len(seen)


def _ring_signed_area(xs: np.ndarray, ys: np.ndarray) -> float:
    # shoelace over the open ring, closing edge implied; concatenate gives
    # np.roll(a, -1)'s array at a fraction of its cost
    x2 = np.concatenate((xs[1:], xs[:1]))
    y2 = np.concatenate((ys[1:], ys[:1]))
    return 0.5 * float(np.sum(xs * y2 - x2 * ys))


def _points(xs: np.ndarray, ys: np.ndarray) -> tuple[Point, ...]:
    return tuple(map(Point, xs.tolist(), ys.tolist()))


class Polygon:
    """A simple polygon with optional holes.

    Rings may be given as Points or [x, y] pairs, or as (n, 2) float64
    arrays, closed (first vertex repeated at the end) or open. ``rings``
    holds them once, open, as read-only float64 ``(xs, ys)`` arrays, exterior
    first; ``exterior`` and ``holes`` build Point views on demand. Exterior
    non-self-intersection is assumed of the input and only checked cheaply
    (vertex count, finite nonzero area).
    """

    def __init__(self, exterior: Sequence, holes: Sequence[Sequence] = ()):
        rings = (_ring(exterior, "exterior ring"),)
        rings += tuple(_ring(h, f"hole ring {i}") for i, h in enumerate(holes))
        with np.errstate(over="ignore", invalid="ignore"):  # an area that overflows is refused below
            areas = [abs(_ring_signed_area(xs, ys)) for xs, ys in rings]
        for i, area in enumerate(areas):
            if not 0.0 < area < math.inf:
                ring = "exterior ring" if i == 0 else f"hole ring {i - 1}"
                problem = "zero area" if area == 0.0 else "an area that is not finite: its coordinates are too large"
                raise GeometryError(f"{ring} has {problem}")
        self.rings: tuple[tuple[np.ndarray, np.ndarray], ...] = rings

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return len(self.rings) == len(other.rings) and all(
            np.array_equal(a, b) for r, q in zip(self.rings, other.rings) for a, b in zip(r, q)
        )

    def __hash__(self) -> int:
        return hash(tuple(tuple(a.tolist()) for ring in self.rings for a in ring))

    def __repr__(self) -> str:
        return f"Polygon(exterior={self.exterior!r}, holes={self.holes!r})"

    @property
    def exterior(self) -> tuple[Point, ...]:
        return _points(*self.rings[0])

    @property
    def holes(self) -> tuple[tuple[Point, ...], ...]:
        return tuple(_points(xs, ys) for xs, ys in self.rings[1:])

    @cached_property
    def bbox(self) -> BBox:
        xs, ys = self.rings[0]
        return BBox(float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))

    @cached_property
    def area(self) -> float:
        """Exterior area minus hole areas."""
        a = abs(_ring_signed_area(*self.rings[0]))
        for rx, ry in self.rings[1:]:
            a -= abs(_ring_signed_area(rx, ry))
        return a


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
    """Vectorized :func:`_ring_hits` on points sorted by ``pys``: each edge tests
    on-edge only on ``[lo:hi)``, where ``min(y1, y2) <= py <= max(y1, y2)``, and
    crossing only on ``[lo:mid)``, where ``(y1 > py) != (y2 > py)``."""
    inside = np.zeros(pxs.shape, dtype=bool)
    on_edge = np.zeros(pxs.shape, dtype=bool)
    ry2 = np.concatenate((ry[1:], ry[:1]))
    ymax = np.maximum(ry, ry2)
    lo, mid = np.searchsorted(pys, (np.minimum(ry, ry2), ymax)).tolist()
    hi = np.searchsorted(pys, ymax, side="right").tolist()
    xs, ys = rx.tolist(), ry.tolist()
    for x1, y1, x2, y2, a, m, b in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1], lo, mid, hi):
        if a == b:
            continue
        px = pxs[a:b]
        cross = (x2 - x1) * (pys[a:b] - y1) - (y2 - y1) * (px - x1)
        on_edge[a:b] |= (cross == 0.0) & (min(x1, x2) <= px) & (px <= max(x1, x2))
        t = (pys[a:m] - y1) / (y2 - y1)
        xi = x1 + t * (x2 - x1)
        inside[a:m] ^= pxs[a:m] < xi
    return inside, on_edge


def point_in_polygon(p: Point, poly: Polygon) -> bool:
    """Even-odd membership with the documented boundary tie rule."""
    rings = poly.rings
    ext_in, ext_on = _ring_hits(rings[0][0], rings[0][1], p.x, p.y)
    if not (ext_in or ext_on):
        return False
    for hx, hy in rings[1:]:
        h_in, h_on = _ring_hits(hx, hy, p.x, p.y)
        if h_in and not h_on:
            return False
    return True


def points_in_polygon(pxs: np.ndarray, pys: np.ndarray, poly: Polygon) -> np.ndarray:
    """Vectorized :func:`point_in_polygon` over coordinate arrays: the points
    are sorted by y once, and each ring edge works on its own y-band."""
    pys = np.asarray(pys, dtype=np.float64)
    order = np.argsort(pys, axis=None, kind="stable")
    sx = np.asarray(pxs, dtype=np.float64).ravel()[order]
    sy = pys.ravel()[order]
    ext_in, ext_on = _ring_hits_bulk(*poly.rings[0], sx, sy)
    hit = ext_in | ext_on
    for hx, hy in poly.rings[1:]:
        h_in, h_on = _ring_hits_bulk(hx, hy, sx, sy)
        hit &= ~(h_in & ~h_on)
    result = np.empty(pys.shape, dtype=bool)
    result.flat[order] = hit
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


# (edge, cell) pairs tested for on-edge at once: bounds the kernel's
# temporaries for rings with many long diagonal edges
_ON_EDGE_CHUNK = 1 << 16


def _lattice_ring_hits(
    rx: np.ndarray, ry: np.ndarray, xc: np.ndarray, yc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_ring_hits` on every center of the lattice ``xc`` × ``yc`` (both
    ascending): ``(inside, on_edge)`` as ``(len(yc), len(xc))`` bool arrays.

    Each edge crosses rows ``[searchsorted(yc, min(y1, y2)), searchsorted(yc,
    max(y1, y2)))``, the rows where ``(y1 > py) != (y2 > py)``; at each crossing
    ``px < xi`` holds on the columns before ``searchsorted(xc, xi)``. On-edge is
    tested on the cells of each edge's own bbox only."""
    n_rows, n_cols = yc.size, xc.size
    x2 = np.concatenate((rx[1:], rx[:1]))
    y2 = np.concatenate((ry[1:], ry[:1]))
    dx, dy = x2 - rx, y2 - ry
    ylo, yhi = np.minimum(ry, y2), np.maximum(ry, y2)
    r_lo = yc.searchsorted(ylo)
    span = yc.searchsorted(yhi) - r_lo
    e = np.arange(rx.size).repeat(span)
    rows = np.arange(e.size) + (r_lo - span.cumsum() + span).repeat(span)
    py = yc[rows]
    xi = rx[e] + ((py - ry[e]) / dy[e]) * dx[e]
    # a ring crosses every row an even number of times, so the parity of the
    # crossings at or left of each column, run over the flat row-major
    # toggles, restarts at 0 on every row and counts those with px < xi
    toggles = np.zeros(n_rows * (n_cols + 1), dtype=np.uint8)
    np.bitwise_xor.at(toggles, rows * (n_cols + 1) + xc.searchsorted(xi), 1)
    inside = np.bitwise_xor.accumulate(toggles).view(bool).reshape(n_rows, n_cols + 1)[:, :n_cols]

    on_edge = np.zeros((n_rows, n_cols), dtype=bool)
    c_lo = xc.searchsorted(np.minimum(rx, x2))
    width = xc.searchsorted(np.maximum(rx, x2), side="right") - c_lo
    cells = width * (yc.searchsorted(yhi, side="right") - r_lo)
    ends = cells.cumsum()
    total = int(ends[-1])
    for start in range(0, total, _ON_EDGE_CHUNK):
        k = np.arange(start, min(start + _ON_EDGE_CHUNK, total))
        e = ends.searchsorted(k, side="right")
        row, col = np.divmod(k - ends[e] + cells[e], width[e])
        row += r_lo[e]
        col += c_lo[e]
        cross = dx[e] * (yc[row] - ry[e]) - dy[e] * (xc[col] - rx[e])
        zero = cross == 0.0
        on_edge[row[zero], col[zero]] = True
    return inside, on_edge


def tile_centers_in_parts(grid: TileGrid, parts: Sequence[Polygon], where=None) -> np.ndarray:
    """Flat indices (sorted, row-major) of tiles whose centers fall in any part,
    among the tiles marked by ``where`` (flat bool array) if it is given."""
    box = parts_bbox(parts)
    c0 = max(0, math.floor((box.min_x - grid.origin_x) / grid.tile_size) - 1)
    c1 = min(grid.n_cols - 1, math.floor((box.max_x - grid.origin_x) / grid.tile_size) + 1)
    r0 = max(0, math.floor((box.min_y - grid.origin_y) / grid.tile_size) - 1)
    r1 = min(grid.n_rows - 1, math.floor((box.max_y - grid.origin_y) / grid.tile_size) + 1)
    xc = grid.origin_x + (np.arange(c0, c1 + 1, dtype=np.int64) + 0.5) * grid.tile_size
    yc = grid.origin_y + (np.arange(r0, r1 + 1, dtype=np.int64) + 0.5) * grid.tile_size
    # centers ascend with the index, so those in the bbox form one sub-window
    a, b = xc.searchsorted(box.min_x), xc.searchsorted(box.max_x, side="right")
    c0, xc = c0 + int(a), xc[a:b]
    a, b = yc.searchsorted(box.min_y), yc.searchsorted(box.max_y, side="right")
    r0, yc = r0 + int(a), yc[a:b]
    if xc.size == 0 or yc.size == 0:
        return np.empty(0, dtype=np.int64)
    hit = np.zeros((yc.size, xc.size), dtype=bool)
    for part in parts:
        inside, on_edge = _lattice_ring_hits(*part.rings[0], xc, yc)
        inside |= on_edge
        for hx, hy in part.rings[1:]:
            h_in, h_on = _lattice_ring_hits(hx, hy, xc, yc)
            inside &= ~h_in | h_on
        hit |= inside
    if where is not None:
        hit &= np.asarray(where).reshape(grid.n_rows, grid.n_cols)[r0 : r0 + yc.size, c0 : c0 + xc.size]
    flat = np.flatnonzero(hit)  # row-major in the window: rebase onto the grid
    flat += (flat // xc.size) * (grid.n_cols - xc.size) + (r0 * grid.n_cols + c0)
    return flat


def first_owners(grid: TileGrid, geometries: Sequence[Sequence[Polygon]], where=None):
    """Flat int32 index of the first geometry, in input order, holding each tile
    center (-1 for none), and the overlaps: a ``(winner, loser, count)`` triple
    for each pair where ``count`` centers of geometry ``loser`` were already
    owned by the earlier ``winner``, in loser then winner order."""
    owner = np.full(grid.n_tiles, -1, dtype=np.int32)
    overlaps: list[tuple[int, int, int]] = []
    for k, parts in enumerate(geometries):
        hit = tile_centers_in_parts(grid, parts, where)
        prior = owner[hit]
        taken = prior != -1
        if taken.any():
            winners, counts = np.unique(prior[taken], return_counts=True)
            overlaps += ((w, k, n) for w, n in zip(winners.tolist(), counts.tolist()))
        owner[hit[~taken]] = k
    return owner, overlaps


def representative_point(parts: Sequence[Polygon]) -> Point:
    """A deterministic point guaranteed to lie in the geometry.

    Tries the largest part's centroid, then its bbox center, then a
    horizontal mid-scanline, then falls back to the first exterior vertex
    (which is on the boundary and therefore inside by the tie rule).
    """
    part = max(parts, key=lambda p: abs(p.area))
    xs, ys = part.rings[0]
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
    return Point(float(xs[0]), float(ys[0]))
