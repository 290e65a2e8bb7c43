from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from popgrid.errors import GeometryError, ValidationError
from popgrid.geo import (
    _ON_EDGE_CHUNK,
    BBox,
    Point,
    Polygon,
    TileGrid,
    as_real,
    finite_coords,
    first_owners,
    parts_bbox,
    point_in_polygon,
    points_in_polygon,
    rectangle,
    representative_point,
    tile_centers_in_parts,
)

from conftest import convex_contains, edge_distance, random_convex_polygon, slow_ray_cast
from oracles import point_in_any

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


lattice_offset = st.sampled_from([0.0, 1e7, -1e7, 9_999_992.5])


@st.composite
def lattice_polygons(draw, size=15.0, origin=None):
    """A polygon with vertices on a ``size`` m pixel-center lattice whose
    origin is ``origin`` or drawn (0 or about 1e7 m on each axis), with
    zero-length edges, collinear runs and up to two holes, and the lattice
    points around it, with duplicates, in shuffled order."""
    ox, oy = origin if origin is not None else (draw(lattice_offset) for _ in range(2))

    def at(i, j):
        return ox + (i + 0.5) * size, oy + (j + 0.5) * size

    def ring(lo, hi):
        cells = draw(st.lists(st.tuples(st.integers(lo, hi), st.integers(lo, hi)), min_size=3, max_size=10))
        verts = []
        for (i, j), (k, m) in zip(cells, cells[1:] + cells[:1]):
            verts.append(at(i, j))
            if draw(st.booleans()):
                verts.append(at(i, j))
            if (k - i) % 2 == 0 and (m - j) % 2 == 0 and draw(st.booleans()):
                verts.append(at((i + k) // 2, (j + m) // 2))
        return verts

    exterior = ring(0, 8)
    holes = [ring(1, 7) for _ in range(draw(st.integers(0, 2)))]
    try:
        poly = Polygon(exterior=exterior, holes=holes)
    except GeometryError:
        assume(False)
    cells = [(i, j) for i in range(-1, 10) for j in range(-1, 10)]
    cells += draw(st.lists(st.sampled_from(cells), max_size=40))
    xs, ys = np.array([at(i, j) for i, j in draw(st.permutations(cells))]).T
    return poly, xs, ys


@st.composite
def lattice_units(draw, size, n_units):
    """A grid of ``size`` m cells, placed so that it may clip the units, and
    ``n_units`` units of one to three ``lattice_polygons`` parts whose
    vertices lie on the grid's own cell centers."""
    ox, oy = (draw(lattice_offset) for _ in range(2))
    shift = draw(st.integers(0, 2))
    grid = TileGrid(
        origin_x=ox - shift * size,
        origin_y=oy - shift * size,
        n_cols=draw(st.integers(6, 13)),
        n_rows=draw(st.integers(6, 13)),
        tile_size=size,
    )
    units = [
        [draw(lattice_polygons(size, (ox, oy)))[0] for _ in range(draw(st.integers(1, 3)))]
        for _ in range(n_units)
    ]
    return grid, units


def random_where(draw, grid: TileGrid):
    """A random flat bool ``where`` over the grid's tiles, or None."""
    if not draw(st.booleans()):
        return None
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(grid.n_tiles) < 0.5


class TestPoint:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            Point(float("nan"), 0.0)

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            Point(0.0, float("inf"))

    @pytest.mark.parametrize(
        "x, y",
        [("1", "2"), (True, 0.0), (0.0, None), (10**400, 0.0), (0.0, -(10**400))],
        ids=["str", "bool", "none", "overflow-x", "overflow-y"],
    )
    def test_rejects_non_reals_and_overflowing_ints(self, x, y):
        with pytest.raises(ValidationError, match="finite real number"):
            Point(x, y)

    def test_ring_vertices_get_the_same_check(self):
        with pytest.raises(ValidationError):
            Polygon(exterior=((0, 0), ("1", 0), (1, 1)))
        with pytest.raises(ValidationError):
            Polygon(exterior=((0, 0), (10**400, 0), (1, 1)))


class TestDistance:
    def test_three_four_five(self):
        assert math.hypot(3 - 0, 4 - 0) == 5.0

    def test_identity(self):
        assert math.hypot(17.5 - 17.5, -3.0 - -3.0) == 0.0

    @given(finite_coord, finite_coord, finite_coord, finite_coord)
    def test_symmetry(self, ax, ay, bx, by):
        assert math.hypot(ax - bx, ay - by) == math.hypot(bx - ax, by - ay)

    @given(*(finite_coord,) * 6)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        ab, bc, ac = math.hypot(ax - bx, ay - by), math.hypot(bx - cx, by - cy), math.hypot(ax - cx, ay - cy)
        assert ac <= ab + bc + 1e-9


class TestPolygonValidation:
    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon(exterior=[(0, 0), (1, 1)])

    def test_degenerate_collinear(self):
        with pytest.raises(GeometryError):
            Polygon(exterior=[(0, 0), (1, 1), (2, 2)])

    def test_closed_ring_accepted(self):
        p = Polygon(exterior=[(0, 0), (4, 0), (4, 4), (0, 0)])
        assert len(p.exterior) == 3

    def test_area(self):
        sq = rectangle(0, 0, 10, 10)
        assert sq.area == 100.0
        with_hole = Polygon(
            exterior=[(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        assert with_hole.area == 96.0

    def test_every_ring_coordinate_is_checked_before_any_ring_shape(self):
        with pytest.raises(ValidationError) as e:
            Polygon(exterior=[(0, 0), (1, 1), (0, 0), (1, 1)], holes=[[(0, 0), ("x", 0), (1, 1)]])
        assert type(e.value) is ValidationError
        assert str(e.value) == "Point.x must be a finite real number, got 'x'"


def reference_coords(xs: list, ys: list):
    """``finite_coords`` a value at a time: each value through ``as_real``,
    then the first point with a refused coordinate through ``Point``."""
    ax = np.array([as_real(v) for v in xs], dtype=np.float64)
    ay = np.array([as_real(v) for v in ys], dtype=np.float64)
    for x, y, fx, fy in zip(xs, ys, ax, ay):
        if not (math.isfinite(fx) and math.isfinite(fy)):
            Point(x, y)
    return ax, ay


def coords_outcome(call):
    """The bits of the arrays ``call()`` gives, or the type and text of its error."""
    try:
        return [a.tobytes() for a in call()]
    except ValidationError as e:
        return type(e), str(e)


_reals = (
    st.integers(-(2**1100), 2**1100)
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2**53 + 1, -(2**63) - 1, 2**1024])
)
_non_reals = st.booleans() | st.none() | st.text(max_size=3) | st.floats().map(np.float64)


@st.composite
def coordinate_columns(draw):
    """Equal-length xs and ys lists, all ints and floats (the list fast path)
    about half the time, else with bools, None, strings and numpy floats."""
    values = _reals if draw(st.booleans()) else _reals | _non_reals
    pairs = draw(st.lists(st.tuples(values, values), max_size=8))
    return [x for x, _ in pairs], [y for _, y in pairs]


class TestFiniteCoords:
    @settings(max_examples=300, deadline=None)
    @given(columns=coordinate_columns())
    @example(columns=([2**1100, 1.0], [0.0, 1.0]))
    @example(columns=([-0.0, 5e-324], [2**53 + 1, -(2**63) - 1]))
    @example(columns=([1, True], [2, 2]))
    def test_a_list_gives_the_bits_and_errors_of_the_per_value_rule(self, columns):
        xs, ys = columns
        expected = coords_outcome(lambda: reference_coords(xs, ys))
        assert coords_outcome(lambda: finite_coords(xs, ys)) == expected
        assert coords_outcome(lambda: finite_coords(tuple(xs), tuple(ys))) == expected
        assert coords_outcome(lambda: finite_coords(iter(xs), (y for y in ys))) == expected


def point_rings(rings) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each ring as Points with a repeated closing vertex dropped, then its x
    and y as arrays: the ring arrays of a polygon held as Point tuples."""
    out = []
    for ring in rings:
        pts = [Point(x, y) for x, y in ring]
        if len(pts) >= 2 and pts[0].x == pts[-1].x and pts[0].y == pts[-1].y:
            pts = pts[:-1]
        out.append((np.array([q.x for q in pts], dtype=np.float64), np.array([q.y for q in pts], dtype=np.float64)))
    return out


def ring_error(rings) -> str | None:
    """The GeometryError text for Point-tuple rings: too few distinct vertices
    in any ring, in order, else the first ring of zero shoelace area."""
    names = ["exterior ring"] + [f"hole ring {i}" for i in range(len(rings) - 1)]
    for name, (xs, ys) in zip(names, rings):
        n = len({(x, y) for x, y in zip(xs.tolist(), ys.tolist())})
        if n < 3:
            return f"{name} needs at least 3 distinct vertices, got {n}"
    for name, (xs, ys) in zip(names, rings):
        if 0.5 * float(np.sum(xs * np.roll(ys, -1) - np.roll(xs, -1) * ys)) == 0.0:
            return f"{name} has zero area"
    return None


ring_coord = st.sampled_from([0, 1, 2, 0.0, -0.0, 1.0, 2.5, 1e7]) | st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(rings=st.lists(st.lists(st.tuples(ring_coord, ring_coord), max_size=7), min_size=1, max_size=3))
def test_polygon_from_any_ring_form_holds_the_point_ring_arrays(rings):
    assume(all(len(r) < 2 or r[0][0] != r[-1][0] or r[0][1] != r[-1][1] for r in rings))
    forms = [
        lambda r: [Point(x, y) for x, y in r],
        lambda r: [[x, y] for x, y in r],
        lambda r: tuple(r),
        lambda r: np.array(r, dtype=np.float64).reshape(-1, 2),
    ]
    want = point_rings(rings)
    error = ring_error(want)
    built = []
    for closed in (False, True):
        shaped = [r + r[:1] if closed else r for r in rings]
        for form in forms:
            if error is not None:
                with pytest.raises(GeometryError) as e:
                    Polygon(exterior=form(shaped[0]), holes=[form(h) for h in shaped[1:]])
                assert str(e.value) == error
                continue
            poly = Polygon(exterior=form(shaped[0]), holes=[form(h) for h in shaped[1:]])
            assert [(xs.tobytes(), ys.tobytes()) for xs, ys in poly.rings] == [
                (xs.tobytes(), ys.tobytes()) for xs, ys in want
            ]
            built.append(poly)
    assert all(poly == built[0] and hash(poly) == hash(built[0]) for poly in built)


def reference_rings(rings) -> tuple:
    """The rings ``Polygon(rings[0], rings[1:])`` holds, a value and a ring at
    a time: every vertex through ``Point``, then each ring opened and its
    distinct vertices counted, then each ring's area summed by ``np.sum``."""
    vertices = [[(v.x, v.y) if isinstance(v, Point) else (v[0], v[1]) for v in ring] for ring in rings]
    points = [[Point(x, y) for x, y in ring] for ring in vertices]
    arrays = []
    for ring in points:
        if len(ring) >= 2 and ring[0].x == ring[-1].x and ring[0].y == ring[-1].y:
            ring = ring[:-1]
        arrays.append(tuple(np.array([getattr(q, c) for q in ring], dtype=np.float64) for c in "xy"))
    names = ["exterior ring"] + [f"hole ring {i}" for i in range(len(rings) - 1)]
    for name, (xs, ys) in zip(names, arrays):
        n = len({(x, y) for x, y in zip(xs.tolist(), ys.tolist())})
        if n < 3:
            raise GeometryError(f"{name} needs at least 3 distinct vertices, got {n}")
    for name, (xs, ys) in zip(names, arrays):
        with np.errstate(over="ignore", invalid="ignore"):
            area = abs(0.5 * float(np.sum(xs * np.roll(ys, -1) - np.roll(xs, -1) * ys)))
        if area == 0.0:
            raise GeometryError(f"{name} has zero area")
        if not area < math.inf:
            raise GeometryError(f"{name} has an area that is not finite: its coordinates are too large")
    return tuple(arrays)


def rings_outcome(call):
    """The bits of each polygon's ring arrays from ``call()``, or the type and text of its error."""
    try:
        return [[(xs.tobytes(), ys.tobytes()) for xs, ys in rings] for rings in call()]
    except ValidationError as e:
        return type(e), str(e)


_ring_value = st.sampled_from([0, 1, 2, 3, -0.0, 0.0, 0.5, 7.25]) | st.integers(-50, 50) | st.floats(-100, 100)
_ring_refused = st.sampled_from(["x", True, math.nan, math.inf, 2**1100])


@st.composite
def ring_form(draw):
    """A ring in one of the forms ``Polygon`` takes, closed or open: most
    often a random one, else one with 2 distinct vertices, a collinear one, one
    scaled by 1e160 (an area past the float range) or a near-degenerate one
    at an offset around 1e15; now and then with a refused coordinate."""
    kind = draw(st.sampled_from(["random", "random", "two", "collinear", "huge", "offset"]))
    pair = st.tuples(_ring_value, _ring_value)
    if kind == "two":
        a, b = draw(pair), draw(pair)
        ring = [draw(st.sampled_from([a, b])) for _ in range(draw(st.integers(2, 6)))]
    elif kind == "collinear":
        (x0, y0), (dx, dy) = draw(pair), draw(pair)
        ring = [(x0 + k * dx, y0 + k * dy) for k in draw(st.lists(st.integers(-3, 3), min_size=3, max_size=6))]
    elif kind == "offset":
        big = draw(st.sampled_from([1e15, -1e15, 2.0**50, 1e15 + 0.5]))
        steps = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(-1, 1)), min_size=3, max_size=9))
        ring = [(big + x, big + 3 * x + e) for x, e in steps]
    else:
        ring = draw(st.lists(pair, max_size=7))
        if kind == "huge":
            ring = [(1e160 * x, 1e160 * y) for x, y in ring]
    refused = bool(ring) and draw(st.integers(0, 9)) == 0
    if refused:
        i, j = draw(st.integers(0, len(ring) - 1)), draw(st.integers(0, 1))
        ring[i] = tuple(draw(_ring_refused) if k == j else v for k, v in enumerate(ring[i]))
    if ring and draw(st.booleans()):
        x, y = ring[0]
        ring.append((-x if x == 0 and type(x) is float else x, y))  # closing, -0.0 for 0.0
    forms = ["list", "tuple"] + ([] if refused else ["point", "array"])
    form = draw(st.sampled_from(forms))
    if form == "list":
        return [list(v) for v in ring]
    if form == "point":
        return [Point(x, y) for x, y in ring]
    if form == "array":
        return np.array(ring, dtype=np.float64).reshape(-1, 2)
    return ring


class TestPolygonRings:
    """``Polygon`` gives, for a ring in any form it takes, the arrays or the
    first error of a value-at-a-time reference."""

    @settings(max_examples=400, deadline=None)
    @given(rings=st.lists(ring_form(), min_size=1, max_size=3))
    def test_polygon_equals_the_value_at_a_time_reference(self, rings):
        expected = rings_outcome(lambda: [reference_rings(rings)])
        assert rings_outcome(lambda: [Polygon(rings[0], rings[1:]).rings]) == expected


class TestPointInPolygon:
    unit_square = rectangle(0, 0, 10, 10)

    def test_inside(self):
        assert point_in_polygon(Point(5, 5), self.unit_square)

    def test_outside(self):
        assert not point_in_polygon(Point(15, 5), self.unit_square)

    def test_centroid_in_hole_is_outside(self):
        # square with a centered square hole; the centroid lands in the hole
        poly = Polygon(
            exterior=[(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        assert not point_in_polygon(Point(5, 5), poly)
        assert point_in_polygon(Point(2, 2), poly)

    def test_exterior_boundary_counts_inside(self):
        assert point_in_polygon(Point(0, 5), self.unit_square)
        assert point_in_polygon(Point(10, 10), self.unit_square)

    def test_hole_boundary_stays_inside(self):
        poly = Polygon(
            exterior=[(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        # hole interiors are open: their boundary still belongs to the polygon
        assert point_in_polygon(Point(4, 5), poly)

    def test_agrees_with_references_on_random_convex(self):
        rng = np.random.default_rng(20240901)
        checked = 0
        while checked < 1000:
            poly = random_convex_polygon(rng)
            box = poly.bbox
            x = rng.uniform(box.min_x - 50, box.max_x + 50)
            y = rng.uniform(box.min_y - 50, box.max_y + 50)
            if edge_distance(poly, x, y) < 1e-6:
                continue
            mine = point_in_polygon(Point(x, y), poly)
            assert mine == slow_ray_cast(x, y, poly.exterior)
            assert mine == convex_contains(poly, x, y)
            checked += 1

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            poly = random_convex_polygon(rng)
            box = poly.bbox
            xs = rng.uniform(box.min_x - 20, box.max_x + 20, 200)
            ys = rng.uniform(box.min_y - 20, box.max_y + 20, 200)
            bulk = points_in_polygon(xs, ys, poly)
            scalar = np.array([point_in_polygon(Point(x, y), poly) for x, y in zip(xs, ys)])
            assert np.array_equal(bulk, scalar)

    def test_vectorized_matches_scalar_on_boundaries(self):
        poly = Polygon(
            exterior=[(0, 0), (30, 0), (30, 30), (0, 30)],
            holes=[[(10, 10), (20, 10), (20, 20), (10, 20)]],
        )
        xs, ys = np.meshgrid(np.arange(-5.0, 36.0, 2.5), np.arange(-5.0, 36.0, 2.5))
        xs, ys = xs.ravel(), ys.ravel()
        bulk = points_in_polygon(xs, ys, poly)
        scalar = np.array([point_in_polygon(Point(x, y), poly) for x, y in zip(xs, ys)])
        assert np.array_equal(bulk, scalar)

    @settings(max_examples=150, deadline=None)
    @given(case=lattice_polygons())
    def test_vectorized_matches_scalar_on_lattice_polygons(self, case):
        poly, xs, ys = case
        bulk = points_in_polygon(xs, ys, poly)
        assert bulk.tolist() == [point_in_polygon(Point(x, y), poly) for x, y in zip(xs, ys)]


class TestBBox:
    def test_invalid_order(self):
        with pytest.raises(ValidationError):
            BBox(5, 0, 0, 5)

    def test_intersects_touching(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(10, 0, 20, 10)
        assert a.intersects(b)
        assert not a.intersects(BBox(11, 0, 20, 10))


def test_parts_bbox_of_no_parts_is_a_validation_error():
    with pytest.raises(ValidationError, match="no polygons"):
        parts_bbox([])


class TestTileGrid:
    grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=10, n_rows=10, tile_size=30.0)

    def test_origin_corner(self):
        assert self.grid.tile_index_of(Point(0, 0)) == (0, 0)

    def test_boundary_belongs_to_next_tile(self):
        assert self.grid.tile_index_of(Point(30, 30)) == (1, 1)

    def test_outside_is_none(self):
        assert self.grid.tile_index_of(Point(-1, 5)) is None
        assert self.grid.tile_index_of(Point(300, 5)) is None  # right edge is exclusive

    def test_invariants(self):
        with pytest.raises(ValidationError):
            TileGrid(origin_x=0, origin_y=0, n_cols=0, n_rows=5)
        with pytest.raises(ValidationError):
            TileGrid(origin_x=0, origin_y=0, n_cols=5, n_rows=5, tile_size=0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"origin_x": "0"},
            {"origin_y": True},
            {"origin_x": None},
            {"origin_y": float("nan")},
            {"tile_size": "30"},
            {"tile_size": False},
            {"tile_size": float("inf")},
        ],
    )
    def test_origin_and_tile_size_must_be_finite_reals(self, bad):
        with pytest.raises(ValidationError, match="origin|tile_size"):
            TileGrid(**{"origin_x": 0.0, "origin_y": 0.0, "n_cols": 2, "n_rows": 2, "tile_size": 30.0, **bad})

    def test_numpy_scalars_accepted(self):
        grid = TileGrid(origin_x=np.float64(0.5), origin_y=np.int64(-3), n_cols=2, n_rows=2, tile_size=np.float32(30))
        assert grid.max_x == 60.5

    @given(
        st.floats(min_value=0, max_value=299.9999, allow_nan=False),
        st.floats(min_value=0, max_value=299.9999, allow_nan=False),
    )
    def test_points_in_extent_map_to_exactly_one_tile(self, x, y):
        idx = self.grid.tile_index_of(Point(x, y))
        assert idx is not None
        c, r = idx
        # the half-open extent of that tile really contains the point
        assert self.grid.origin_x + c * 30.0 <= x < self.grid.origin_x + (c + 1) * 30.0
        assert self.grid.origin_y + r * 30.0 <= y < self.grid.origin_y + (r + 1) * 30.0

    def test_vectorized_lookup_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-50, 350, 500)
        ys = rng.uniform(-50, 350, 500)
        cols, rows, inside = self.grid.tile_indices_of(xs, ys)
        for i in range(xs.size):
            idx = self.grid.tile_index_of(Point(xs[i], ys[i]))
            if idx is None:
                assert not inside[i]
            else:
                assert inside[i]
                assert (cols[i], rows[i]) == idx

    def test_tile_center(self):
        assert self.grid.tile_center(0, 0) == Point(15.0, 15.0)


class TestTileCentersInParts:
    grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=8, n_rows=6, tile_size=1.0)

    def test_rectangle_cover(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=8, n_rows=8, tile_size=30.0)
        unit = [rectangle(30, 30, 120, 90)]
        flats = tile_centers_in_parts(grid, unit)
        expect = sorted(
            r * 8 + c
            for r in range(8)
            for c in range(8)
            if 30 <= grid.tile_center(c, r).x <= 120 and 30 <= grid.tile_center(c, r).y <= 90
        )
        assert flats.tolist() == expect

    def test_disjoint(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=4, n_rows=4, tile_size=30.0)
        assert tile_centers_in_parts(grid, [rectangle(500, 500, 600, 600)]).size == 0

    @pytest.mark.parametrize("size", [7.5, 15.0, 30.0])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_the_scalar_kernel_on_every_center(self, size, data):
        grid, (parts,) = data.draw(lattice_units(size, 1))
        expect = [
            r * grid.n_cols + c
            for r in range(grid.n_rows)
            for c in range(grid.n_cols)
            if point_in_any(grid.tile_center(c, r), parts)
        ]
        assert tile_centers_in_parts(grid, parts).tolist() == expect

    @staticmethod
    def nested_loop(grid, units, where=None):
        """What ``first_owners`` gives, from the scalar kernel on every center."""
        owner = np.full(grid.n_tiles, -1)
        pairs: dict[tuple[int, int], int] = {}
        for r in range(grid.n_rows):
            for c in range(grid.n_cols):
                if where is not None and not where[r * grid.n_cols + c]:
                    continue
                holders = [k for k, parts in enumerate(units) if point_in_any(grid.tile_center(c, r), parts)]
                if holders:
                    owner[r * grid.n_cols + c] = holders[0]
                for k in holders[1:]:
                    pairs[holders[0], k] = pairs.get((holders[0], k), 0) + 1
        return owner.tolist(), sorted(((w, k, n) for (w, k), n in pairs.items()), key=lambda t: (t[1], t[0]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_first_owners_equals_a_nested_loop(self, data):
        # up to 12 units, so that many units' spans abut and overlap on one row
        size = data.draw(st.sampled_from([7.5, 15.0, 30.0]))
        grid, units = data.draw(lattice_units(size, data.draw(st.integers(2, 12))))
        where = random_where(data.draw, grid)
        got, overlaps = first_owners(grid, units, where)
        assert (got.tolist(), overlaps) == self.nested_loop(grid, units, where)

    @pytest.mark.parametrize("far", [(100, 1, 102, 3), (1, 100, 3, 102), (-9, -9, -7, -7), (1e300, 1, 2e300, 3)])
    def test_a_geometry_whose_bbox_misses_the_grid(self, far):
        units = [[rectangle(*far)], [rectangle(0.5, 0.5, 3.5, 2.5)], [rectangle(*far), rectangle(2.5, 1.5, 6.5, 4.5)]]
        got, overlaps = first_owners(self.grid, units)
        assert (got.tolist(), overlaps) == self.nested_loop(self.grid, units)
        assert overlaps == [(1, 2, 4)]  # (2.5, 1.5), (3.5, 1.5), (2.5, 2.5) and (3.5, 2.5)
        assert tile_centers_in_parts(self.grid, units[0]).size == 0

    def test_a_shared_edge_through_centers_is_held_by_both(self):
        # x = 3.5 runs through the centers (3.5, 0.5) ... (3.5, 5.5): the
        # exterior boundary belongs to the polygon, so both units hold them
        units = [[rectangle(0.5, 0.5, 3.5, 4.5)], [rectangle(3.5, 1.5, 7.5, 5.5)]]
        got, overlaps = first_owners(self.grid, units)
        assert (got.tolist(), overlaps) == self.nested_loop(self.grid, units)
        assert overlaps == [(0, 1, 4)]  # (3.5, 1.5) to (3.5, 4.5)

    def test_a_hole_lying_outside_its_exterior(self):
        poly = Polygon(
            exterior=[(0.5, 0.5), (4.5, 0.5), (4.5, 4.5), (0.5, 4.5)],
            holes=[[(3.5, 1.5), (9.5, 1.5), (9.5, 3.5), (3.5, 3.5)]],  # its east end lies outside
        )
        units = [[poly], [rectangle(5.5, 0.5, 7.5, 4.5)]]
        got, overlaps = first_owners(self.grid, units)
        assert (got.tolist(), overlaps) == self.nested_loop(self.grid, units)
        expect = [r * 8 + c for r in range(6) for c in range(8) if point_in_polygon(self.grid.tile_center(c, r), poly)]
        assert tile_centers_in_parts(self.grid, [poly]).tolist() == expect
        assert 2 * 8 + 3 in expect and 2 * 8 + 4 not in expect  # on the hole's edge, in its open interior

    def test_where_masking_every_cell_of_one_unit(self):
        units = [[rectangle(0.5, 0.5, 3.5, 3.5)], [rectangle(2.5, 2.5, 5.5, 5.5)], [rectangle(1.5, 1.5, 6.5, 2.5)]]
        where = np.ones(self.grid.n_tiles, dtype=bool)
        where[tile_centers_in_parts(self.grid, units[0])] = False
        got, overlaps = first_owners(self.grid, units, where)
        assert (got.tolist(), overlaps) == self.nested_loop(self.grid, units, where)
        assert 0 not in got.tolist()
        assert overlaps == [(1, 2, 2)]  # (4.5, 2.5) and (5.5, 2.5): those in unit 0 were masked with it

    def test_a_crossing_that_rounds_onto_a_center_off_the_edge(self):
        # the west edge crosses row y = 0.5 at xi == 1.5 exactly, yet the
        # center (1.5, 0.5) is not on it (cross != 0): px < xi is false there,
        # so that edge must not toggle the center's column
        poly = Polygon(
            exterior=[(1.5000000000000009, -1.5), (1.5, 0.7857142857142857), (5.0, 0.7857142857142857), (5.0, -1.5)]
        )
        grid = TileGrid(origin_x=0.0, origin_y=-2.0, n_cols=7, n_rows=4, tile_size=1.0)
        expect = [r * 7 + c for r in range(4) for c in range(7) if point_in_polygon(grid.tile_center(c, r), poly)]
        assert 2 * 7 + 1 in expect
        assert tile_centers_in_parts(grid, [poly]).tolist() == expect

    def test_a_crossing_that_rounds_left_of_the_bbox_is_clipped_to_it(self):
        far = 2.0**53 + 2
        grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=16, n_rows=12, tile_size=0.25)
        # at y = 1.125 the edge between (2.5, 1.125) and (2**53 + 2, 2) is
        # evaluated from its lower end, (2.5, 1.125), so it crosses at exactly 2.5
        tri = Polygon(exterior=[(far, 2.0), (2.5, 1.125), (far, 0.0)])
        assert not point_in_polygon(Point(2.375, 1.125), tri) and point_in_polygon(Point(2.625, 1.125), tri)
        row = [i % 16 for i in tile_centers_in_parts(grid, [tri]).tolist() if i // 16 == 4]
        assert row == list(range(10, 16))  # x from 2.625, the first center right of xi = 2.5
        # from the lower end (2**53 + 2, -2**60) to (2.5, 1.375), (py - y1) / dy
        # rounds to 1 at y = 1.125 and x2 - x1 to -2**53, so xi == 2.0: the
        # scalar kernel holds (2.125, 1.125) and (2.375, 1.125), left of the
        # bbox, and the lattice kernel must hold them too
        low = Polygon(exterior=[(far, -(2.0**60)), (2.5, 1.375), (far, 2.0**60)])
        assert point_in_polygon(Point(2.125, 1.125), low) and point_in_polygon(Point(2.375, 1.125), low)
        row = [i % 16 for i in tile_centers_in_parts(grid, [low]).tolist() if i // 16 == 4]
        assert row == list(range(8, 16))  # x from 2.125, the first center right of xi = 2.0
        for poly in (tri, low):
            got, _ = first_owners(grid, [[poly]])
            assert np.flatnonzero(got == 0).tolist() == tile_centers_in_parts(grid, [poly]).tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        far=st.lists(st.tuples(st.integers(-8, 8), st.integers(-4, 28)), min_size=2, max_size=2),
        near=st.tuples(st.integers(0, 32), st.integers(0, 11)),
    )
    def test_crossings_that_round_off_a_far_triangle(self, far, near):
        # two vertices at 2**53 + 2k, where x2 - x1 rounds to a whole meter, and a
        # near one on a row's centers: a crossing on that row may round past
        # the triangle's bbox, and both lattice entry points must still hold
        # exactly the centers the scalar rule holds
        grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=16, n_rows=12, tile_size=0.25)
        (k1, j1), (k2, j2) = far
        corners = [(2.0**53 + 2 * k1, j1 * 0.125), (near[0] * 0.125, grid.tile_center(0, near[1]).y),
                   (2.0**53 + 2 * k2, j2 * 0.125)]
        try:
            tri = Polygon(exterior=corners)
        except GeometryError:
            assume(False)
        expect = [r * 16 + c for r in range(12) for c in range(16) if point_in_polygon(grid.tile_center(c, r), tri)]
        assert tile_centers_in_parts(grid, [tri]).tolist() == expect
        got, _ = first_owners(grid, [[tri]])
        assert np.flatnonzero(got == 0).tolist() == expect

    def test_on_edge_temporaries_are_chunked(self):
        # a star of 360 long diagonal edges: their bboxes hold about 11M cells
        # of the 1022 x 1022 window, which must not be materialised at once
        k = np.arange(360)
        radius = np.where(k % 2 == 0, 511.0, 200.0)
        xs = 512.0 + radius * np.cos(k * (2 * np.pi / 360))
        ys = 512.0 + radius * np.sin(k * (2 * np.pi / 360))
        star = Polygon(exterior=list(zip(xs.tolist(), ys.tolist())))
        grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=1024, n_rows=1024, tile_size=1.0)
        window = 1022 * 1022  # the centers in the star's bbox, [1, 1023] on each axis
        tracemalloc.start()
        try:
            hit = tile_centers_in_parts(grid, [star])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * window + 64 * _ON_EDGE_CHUNK
        cx, cy = np.meshgrid(np.arange(1024) + 0.5, np.arange(1024) + 0.5)
        assert hit.tolist() == np.flatnonzero(points_in_polygon(cx, cy, star)).tolist()


def slanted_edges():
    """Ends ``p``, ``q`` of slanted edges through the centers (40.5, 60.5) +
    i * (dx, dy), i = 0..4, of a 1 m grid, each extended by 1/f of its length
    at both ends so that neither end is exact; and apexes ``a``, ``b`` on
    either side of it."""
    for f in (3, 7, 9, 11, 13):
        for dx, dy in ((1, 2), (3, 1), (2, -5), (-4, 3), (5, 7), (7, -2)):
            x0, y0 = 40.5, 60.5
            x1, y1 = x0 + 4 * dx, y0 + 4 * dy
            p = (x0 - (x1 - x0) / f, y0 - (y1 - y0) / f)
            q = (x1 + (x1 - x0) / f, y1 + (y1 - y0) / f)
            mx, my = (x0 + x1) / 2, (y0 + y1) / 2
            yield p, q, (mx - 0.3 * (y1 - y0), my + 0.3 * (x1 - x0)), (mx + 0.3 * (y1 - y0), my - 0.3 * (x1 - x0))


class TestVertexOrder:
    """Every kernel evaluates an edge from its lower ``(y, x)`` end, so the
    centers a ring holds do not depend on the order it lists its vertices in."""

    grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=128, n_rows=128, tile_size=1.0)

    def test_two_triangles_sharing_an_edge_leave_no_center_of_their_union_unowned(self):
        # the two list their shared edge in opposite orders; the union's
        # outline is the same four edges, listed as the triangles list them
        for p, q, a, b in slanted_edges():
            owner, _ = first_owners(self.grid, [[Polygon(exterior=[p, q, a])], [Polygon(exterior=[q, p, b])]])
            union, _ = first_owners(self.grid, [[Polygon(exterior=[p, b, q, a])]])
            assert np.flatnonzero(owner >= 0).tolist() == np.flatnonzero(union == 0).tolist()

    def test_reversing_a_slanted_ring_leaves_its_centers_unchanged(self):
        cx, cy = np.meshgrid(np.arange(128) + 0.5, np.arange(128) + 0.5)
        for p, q, a, _ in slanted_edges():
            tri, rev = Polygon(exterior=[p, q, a]), Polygon(exterior=[a, q, p])
            assert first_owners(self.grid, [[tri]])[0].tolist() == first_owners(self.grid, [[rev]])[0].tolist()
            assert points_in_polygon(cx, cy, tri).tolist() == points_in_polygon(cx, cy, rev).tolist()
            box = tri.bbox
            for x in np.arange(math.floor(box.min_x), math.ceil(box.max_x)) + 0.5:
                for y in np.arange(math.floor(box.min_y), math.ceil(box.max_y)) + 0.5:
                    assert point_in_polygon(Point(x, y), tri) == point_in_polygon(Point(x, y), rev), (x, y)


class TestRepresentativePoint:
    def test_centroid_of_rectangle(self):
        rp = representative_point([rectangle(0, 0, 10, 20)])
        assert point_in_polygon(rp, rectangle(0, 0, 10, 20))
        assert rp == Point(5.0, 10.0)

    def test_c_shape_centroid_outside(self):
        # concave "C": the plain centroid falls in the notch
        c_shape = Polygon(
            exterior=[(0, 0), (10, 0), (10, 2), (2, 2), (2, 8), (10, 8), (10, 10), (0, 10)]
        )
        rp = representative_point([c_shape])
        assert point_in_polygon(rp, c_shape)

    def test_a_centroid_past_the_float_range_is_skipped(self):
        # the centroid's sums overflow, so the bbox center is taken, with no RuntimeWarning
        square = rectangle(0.0, 0.0, 9e153, 9e153)
        assert representative_point([square]) == Point(4.5e153, 4.5e153)

    def test_polygon_with_central_hole(self):
        poly = Polygon(
            exterior=[(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(3, 3), (7, 3), (7, 7), (3, 7)]],
        )
        rp = representative_point([poly])
        assert point_in_polygon(rp, poly)
