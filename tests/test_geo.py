from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from popgrid.errors import GeometryError, ValidationError
from popgrid.geo import (
    BBox,
    Point,
    Polygon,
    TileGrid,
    parts_bbox,
    point_in_polygon,
    points_in_polygon,
    rectangle,
    representative_point,
    tile_centers_in_parts,
)

from conftest import convex_contains, edge_distance, random_convex_polygon, slow_ray_cast

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def lattice_polygons(draw):
    """A polygon with vertices on a 15 m pixel-center lattice, offset by 0 or
    about 1e7 m, with zero-length edges, collinear runs and up to two holes,
    and the lattice points around it, with duplicates, in shuffled order."""
    ox, oy = (draw(st.sampled_from([0.0, 1e7, -1e7, 9_999_992.5])) for _ in range(2))

    def at(i, j):
        return ox + (i + 0.5) * 15.0, oy + (j + 0.5) * 15.0

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

    def test_polygon_with_central_hole(self):
        poly = Polygon(
            exterior=[(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(3, 3), (7, 3), (7, 7), (3, 7)]],
        )
        rp = representative_point([poly])
        assert point_in_polygon(rp, poly)
