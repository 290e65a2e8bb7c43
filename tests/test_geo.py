from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popgrid.errors import GeometryError, ValidationError
from popgrid.geo import (
    BBox,
    Point,
    Polygon,
    TileGrid,
    distance,
    parts_bbox,
    point_in_polygon,
    points_in_polygon,
    rectangle,
    representative_point,
    tile_centers_in_parts,
    tile_index_of,
)

from conftest import convex_contains, edge_distance, random_convex_polygon, slow_ray_cast

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


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
        assert distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_identity(self):
        assert distance(Point(17.5, -3.0), Point(17.5, -3.0)) == 0.0

    @given(finite_coord, finite_coord, finite_coord, finite_coord)
    def test_symmetry(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert distance(a, b) == distance(b, a)

    @given(*(finite_coord,) * 6)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


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
        assert tile_index_of(self.grid, Point(0, 0)) == (0, 0)

    def test_boundary_belongs_to_next_tile(self):
        assert tile_index_of(self.grid, Point(30, 30)) == (1, 1)

    def test_outside_is_none(self):
        assert tile_index_of(self.grid, Point(-1, 5)) is None
        assert tile_index_of(self.grid, Point(300, 5)) is None  # right edge is exclusive

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
