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

Every kernel tests an edge with the same two expressions, ``_crossing_x``
and ``_side``, so the two bulk membership kernels agree bit-for-bit with the
scalar ``point_in_polygon``. Each evaluates an edge from its lower ``(y, x)``
end, not from the vertex its ring lists first, so a ring's centers do not
depend on its vertex order, and two units that share an edge round its
crossings the same way:

- the lattice kernel (``first_owners``, and ``tile_centers_in_parts`` for one
  geometry), which the pipeline uses for pixel and tile centers, labels the
  centers for every geometry in one pass over all ring edges at once. Each
  edge's row crossings become columns ``searchsorted(xc, xi)``; sorted, a
  ring's crossings on a row pair into the column spans ``[c_2k, c_2k+1)``
  where its parity is odd. A sweep over span ends combines each part's rings
  (weight ``K`` for the exterior, more than the part has holes, and 1 for
  each hole, so a cell is held where the sum is ``K``), after on-edge is
  tested on the cells of each edge's own bbox only; a second sweep unites a
  geometry's parts. Cells are expanded only where two or more geometries
  hold them, to find the first owner;
- the point-set kernel (``points_in_polygon``), for arbitrary points, sorts
  them by y once and tests each edge on the points of its y-band. The
  pipeline does not call it; the benchmark's per-layer trace times it.
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


def finite_coords(xs: Iterable, ys: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """``xs`` and ``ys`` as read-only float64 arrays under the ``as_real`` rule,
    the one bulk check of a coordinate; the first point with a refused
    coordinate raises the error ``Point`` does."""
    xs, ys = (v if isinstance(v, (list, tuple, np.ndarray)) else list(v) for v in (xs, ys))
    arrays = [_real_array(v) for v in (xs, ys)]
    if arrays[0].shape != arrays[1].shape:
        raise ValidationError(f"coordinate arrays differ in length: {len(arrays[0])} xs, {len(arrays[1])} ys")
    bad = np.flatnonzero(~(np.isfinite(arrays[0]) & np.isfinite(arrays[1])))
    if bad.size:
        Point(xs[bad[0]], ys[bad[0]])
    for a in arrays:
        a.setflags(write=False)
    return arrays[0], arrays[1]


def _real_array(values: Sequence) -> np.ndarray:
    """``values`` as float64 under ``as_real``: numpy converts a column of
    ints and floats only as ``float()`` does, any other goes a value at a time."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return np.array(values)
    if set(map(type, values)) <= {int, float}:
        try:
            return np.array(values, np.float64)
        except OverflowError:  # an int past the float range: as_real makes it infinite
            pass
    return np.fromiter(map(as_real, values), np.float64)


def _ring(ring: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """A ring of Points or [x, y] pairs as open (xs, ys) arrays (no repeated
    last vertex)."""
    try:
        columns = [v[0] for v in ring], [v[1] for v in ring]
    except TypeError:  # a Point, which has no index
        columns = (
            [v.x if isinstance(v, Point) else v[0] for v in ring],
            [v.y if isinstance(v, Point) else v[1] for v in ring],
        )
    xs, ys = finite_coords(*columns)
    if len(xs) >= 2 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        return xs[:-1], ys[:-1]
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

    Rings may be given as Points or [x, y] pairs, closed (first vertex
    repeated at the end) or open; every ring's coordinates are checked before
    any ring's shape. ``rings`` holds them once, open, as read-only float64
    ``(xs, ys)`` arrays, exterior first; ``exterior`` and ``holes`` build
    Point views on demand. Exterior non-self-intersection is assumed of the
    input and only checked cheaply (vertex count, finite nonzero area).
    """

    def __init__(self, exterior: Sequence, holes: Sequence[Sequence] = ()):
        rings = tuple(map(_ring, (exterior, *holes)))
        names = ["exterior ring", *(f"hole ring {i}" for i in range(len(rings) - 1))]
        for name, (xs, ys) in zip(names, rings):
            distinct = _distinct_up_to_3(xs, ys)
            if distinct < 3:
                raise GeometryError(f"{name} needs at least 3 distinct vertices, got {distinct}")
        with np.errstate(over="ignore", invalid="ignore"):  # an area that overflows is refused below
            areas = [abs(_ring_signed_area(xs, ys)) for xs, ys in rings]
        for name, area in zip(names, areas):
            if not 0.0 < area < math.inf:
                problem = "zero area" if area == 0.0 else "an area that is not finite: its coordinates are too large"
                raise GeometryError(f"{name} has {problem}")
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


def _crossing_x(x1, y1, dx, dy, py):
    """The x where the edge from ``(x1, y1)`` by ``(dx, dy)`` crosses the line ``y = py``."""
    return x1 + ((py - y1) / dy) * dx


def _side(x1, y1, dx, dy, px, py):
    """Zero where ``(px, py)`` lies on the line through the edge from ``(x1, y1)`` by ``(dx, dy)``."""
    return dx * (py - y1) - dy * (px - x1)


def _lower_end_first(x1, y1, x2, y2):
    """The edges from ``(x1, y1)`` to ``(x2, y2)``, each turned to run from its lower ``(y, x)`` end."""
    flip = (y2 < y1) | ((y2 == y1) & (x2 < x1))
    return np.where(flip, x2, x1), np.where(flip, y2, y1), np.where(flip, x1, x2), np.where(flip, y1, y2)


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
        if (y2, x2) < (y1, x1):  # from its lower (y, x) end, as every kernel evaluates an edge
            x1, y1, x2, y2 = x2, y2, x1, y1
        if (
            _side(x1, y1, x2 - x1, y2 - y1, px, py) == 0.0
            and min(x1, x2) <= px <= max(x1, x2)
            and min(y1, y2) <= py <= max(y1, y2)
        ):
            on_edge = True
        if (y1 > py) != (y2 > py) and px < _crossing_x(x1, y1, x2 - x1, y2 - y1, py):
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
        if (y2, x2) < (y1, x1):
            x1, y1, x2, y2 = x2, y2, x1, y1
        px = pxs[a:b]
        dx, dy = x2 - x1, y2 - y1
        on_edge[a:b] |= (_side(x1, y1, dx, dy, px, pys[a:b]) == 0.0) & (min(x1, x2) <= px) & (px <= max(x1, x2))
        inside[a:m] ^= pxs[a:m] < _crossing_x(x1, y1, dx, dy, pys[a:m])
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


def check_grid_size(n: object) -> None:
    """Refuse ``n`` as a count of tile columns or rows unless it is an integer of at least 1."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValidationError(f"grid size must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"grid size must be at least 1, got {n!r}")


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
        check_grid_size(self.n_cols)
        check_grid_size(self.n_rows)

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


def _runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The members of the ranges ``[lo[i], hi[i])`` in order, and the ``i`` of each."""
    n = np.maximum(hi - lo, 0)
    members = (lo - n.cumsum() + n).repeat(n)
    members += np.arange(members.size)
    return members, np.arange(n.size).repeat(n)


def _sweep(lo: np.ndarray, hi: np.ndarray, weights: np.ndarray, keep) -> tuple[np.ndarray, np.ndarray]:
    """The disjoint intervals ``[a, b)``, ascending, on which the summed
    ``weights`` of the intervals ``[lo, hi)`` covering them pass ``keep``."""
    keys = np.concatenate((lo, hi))
    order = keys.argsort()  # equal keys only bound empty intervals, so any order will do
    keys = keys[order]
    hit = keep(np.concatenate((weights, -weights))[order].cumsum()[:-1]) & (keys[1:] > keys[:-1])
    return keys[:-1][hit], keys[1:][hit]


def _member_spans(grid: TileGrid, geometries: Sequence[Sequence[Polygon]]) -> tuple[np.ndarray, np.ndarray]:
    """The tile centers that each geometry holds, as disjoint ascending spans
    ``[lo, hi)`` of the keys ``(geometry * n_rows + row) * (n_cols + 1) +
    column``: one pass over the edges of every ring, as the module docstring
    describes."""
    rings, ring_part, part_geom, hole = [], [], [], []
    for g, parts in enumerate(geometries):
        for part in parts:
            ring_part += [len(part_geom)] * len(part.rings)
            hole += [False] + [True] * (len(part.rings) - 1)
            part_geom.append(g)
            rings += part.rings
    if not rings:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    with np.errstate(over="ignore"):  # a center past the float range is infinite, in no polygon
        xc = grid.origin_x + (np.arange(grid.n_cols, dtype=np.int64) + 0.5) * grid.tile_size
        yc = grid.origin_y + (np.arange(grid.n_rows, dtype=np.int64) + 0.5) * grid.tile_size
    n_rows, width = grid.n_rows, grid.n_cols + 1
    ring_part, part_geom, hole = np.array(ring_part), np.array(part_geom), np.array(hole)
    sizes = np.array([xs.size for xs, _ in rings])
    first = sizes.cumsum() - sizes
    ring = np.arange(sizes.size).repeat(sizes)  # of each edge
    x1, y1 = (np.concatenate([r[i] for r in rings]) for i in (0, 1))
    following = np.arange(1, x1.size + 1)
    following[first + sizes - 1] = first
    x2, y2 = x1[following], y1[following]
    x1, y1, x2, y2 = _lower_end_first(x1, y1, x2, y2)
    dx, dy = x2 - x1, y2 - y1
    ylo, yhi = np.minimum(y1, y2), np.maximum(y1, y2)
    r_lo = yc.searchsorted(ylo)
    row, e = _runs(r_lo, yc.searchsorted(yhi))
    xi = _crossing_x(x1[e], y1[e], dx[e], dy[e], yc[row])
    crossings = np.sort((ring[e] * n_rows + row) * width + xc.searchsorted(xi))
    lo, hi = crossings[0::2], crossings[1::2]
    span_ring = lo // width // n_rows

    c_lo = xc.searchsorted(np.minimum(x1, x2))
    c_n = xc.searchsorted(np.maximum(x1, x2), side="right") - c_lo
    cells = c_n * (yc.searchsorted(yhi, side="right") - r_lo)
    ends = cells.cumsum()
    on = [np.empty(0, np.int64)]
    for start in range(0, int(ends[-1]), _ON_EDGE_CHUNK):
        k = np.arange(start, min(start + _ON_EDGE_CHUNK, int(ends[-1])))
        e = ends.searchsorted(k, side="right")
        r, c = np.divmod(k - ends[e] + cells[e], c_n[e])
        r += r_lo[e]
        c += c_lo[e]
        zero = _side(x1[e], y1[e], dx[e], dy[e], xc[c], yc[r]) == 0.0
        on.append((ring[e[zero]] * n_rows + r[zero]) * width + c[zero])
    on = np.unique(np.concatenate(on))
    odd = (crossings.searchsorted(on, side="right") - crossings.searchsorted(on - on % width)) % 2 == 1
    on_ring = on // width // n_rows
    change = hole[on_ring] == odd  # an exterior's cells not yet covered, a hole's covered ones
    on, on_ring = on[change], on_ring[change]

    k = sizes.size  # more than any part's holes
    shift = (ring_part - np.arange(k)) * (n_rows * width)
    lo, hi = lo + shift[span_ring], hi + shift[span_ring]
    if hole.any() or on.size:  # else each part is one exterior, whose spans are disjoint
        on += shift[on_ring]
        weights = np.concatenate((np.where(hole[span_ring], 1, k), np.where(hole[on_ring], -1, k)))
        lo, hi = _sweep(np.concatenate((lo, on)), np.concatenate((hi, on + 1)), weights, lambda s: s == k)
    if part_geom.size > len(geometries):  # the union of each geometry's parts
        shift = (part_geom - np.arange(part_geom.size))[lo // width // n_rows] * (n_rows * width)
        lo, hi = _sweep(lo + shift, hi + shift, np.ones_like(lo), lambda s: s > 0)
    return lo, hi


def tile_centers_in_parts(grid: TileGrid, parts: Sequence[Polygon]) -> np.ndarray:
    """Flat indices (sorted, row-major) of tiles whose centers fall in any part."""
    lo, hi = _member_spans(grid, [parts])
    start = lo - lo // (grid.n_cols + 1)  # row * (n_cols + 1) + column, less the row
    return _runs(start, start + (hi - lo))[0]


def first_owners(grid: TileGrid, geometries: Sequence[Sequence[Polygon]], where=None):
    """Flat int32 index of the first geometry, in input order, holding each tile
    center (-1 for none), and the overlaps: a ``(winner, loser, count)`` triple
    for each pair where ``count`` centers of geometry ``loser`` were already
    owned by the earlier ``winner``, in loser then winner order."""
    lo, hi = _member_spans(grid, geometries)
    g, row = np.divmod(lo // (grid.n_cols + 1), grid.n_rows)
    start = lo - (g * grid.n_rows * (grid.n_cols + 1) + row)  # row * n_cols + column
    end = start + (hi - lo)
    # each geometry adds g + 1 to its cells, so a cell that one geometry holds
    # sums to its g + 1; the cells that more hold (a sum that may wrap) are set below
    owner = np.zeros(grid.n_tiles + 1, dtype=np.int32)
    label = (g + 1).astype(np.int32)  # as the array's dtype: ufunc.at is slow when it casts
    np.add.at(owner, start, label)
    np.subtract.at(owner, end, label)
    owner = np.cumsum(owner, dtype=np.int32, out=owner)[:-1]
    owner -= 1
    u, v = _sweep(start, end, np.ones_like(start), lambda s: s > 1)
    j, i = _runs(v.searchsorted(start, side="right"), u.searchsorted(end))
    cell, k = _runs(np.maximum(start[i], u[j]), np.minimum(end[i], v[j]))
    holder = g[i[k]]  # one (cell, geometry) pair for each geometry of a cell that more hold
    if where is not None:
        where = np.asarray(where, dtype=bool).reshape(-1)
        owner[~where] = -1
        cell, holder = cell[where[cell]], holder[where[cell]]
    order = np.lexsort((holder, cell))
    cell, holder = cell[order], holder[order]
    first = np.diff(cell, prepend=-1) != 0
    owner[cell[first]] = holder[first]
    winner = holder[first][first.cumsum() - 1]
    pairs, counts = np.unique(holder[~first] * len(geometries) + winner[~first], return_counts=True)
    loser, won = np.divmod(pairs, len(geometries))
    return owner, list(zip(won.tolist(), loser.tolist(), counts.tolist()))


def representative_point(parts: Sequence[Polygon]) -> Point:
    """A deterministic point guaranteed to lie in the geometry.

    Tries the largest part's centroid (unless it is not finite: its sums
    overflow on coordinates near 1e150 m), then its bbox center, then a
    horizontal mid-scanline, then falls back to the first exterior vertex
    (which is on the boundary and therefore inside by the tie rule).
    """
    part = max(parts, key=lambda p: abs(p.area))
    xs, ys = part.rings[0]
    x2 = np.roll(xs, -1)
    y2 = np.roll(ys, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # a centroid past the float range is skipped
        cross = xs * y2 - x2 * ys
        a = float(np.sum(cross)) * 0.5
        sx, sy = float(np.sum((xs + x2) * cross)), float(np.sum((ys + y2) * cross))
    if a != 0.0 and math.isfinite(sx / (6.0 * a)) and math.isfinite(sy / (6.0 * a)):
        candidate = Point(sx / (6.0 * a), sy / (6.0 * a))
        if point_in_polygon(candidate, part):
            return candidate
    box = part.bbox
    candidate = Point((box.min_x + box.max_x) / 2.0, (box.min_y + box.max_y) / 2.0)
    if point_in_polygon(candidate, part):
        return candidate
    mid_y = (box.min_y + box.max_y) / 2.0
    i = np.flatnonzero((ys > mid_y) != (y2 > mid_y))
    x1, y1, x2, y2 = _lower_end_first(xs[i], ys[i], x2[i], y2[i])
    crossings = np.sort(_crossing_x(x1, y1, x2 - x1, y2 - y1, mid_y)).tolist()
    for a, b in zip(crossings[0::2], crossings[1::2]):
        candidate = Point((a + b) / 2.0, mid_y)
        if point_in_polygon(candidate, part):
            return candidate
    return Point(float(xs[0]), float(ys[0]))
