"""Fast paths against nested-loop oracles on units that are not rectangles.

The cases cover a three-way overlap, a polygon with a hole, a MultiPolygon
unit and random convex polygons. The mask carries nodata pixels, reaches
past the tile grid on two sides, and some tiles are excluded.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import random_convex_polygon
from oracles import brute_force_allocate, point_in_any
from popgrid.disaggregate import assign_pixels, run_disaggregation
from popgrid.errors import OverlapWarning
from popgrid.evaluate import UNASSIGNED_ID, zonal_stats
from popgrid.geo import Point, Polygon, TileGrid, rectangle
from popgrid.io import AdminLevel, AdminUnit, BinaryRaster, PopulationGrid
from popgrid.poi_filter import TileMask

TILE = 30.0
PIXEL = 10.0


def admin(uid: str, parts, population: float) -> AdminUnit:
    return AdminUnit(id=uid, level=AdminLevel.CIRCLE, geometry=tuple(parts), population=population)


def ring(*xy):
    return tuple(Point(x, y) for x, y in xy)


def case_units(name: str) -> list[AdminUnit]:
    if name == "three_way_overlap":
        return [
            admin("a", [rectangle(10, 10, 200, 160)], 300.0),
            admin("b", [Polygon(exterior=ring((100, 40), (330, 70), (250, 290), (90, 230)))], 200.0),
            admin("c", [Polygon(exterior=ring((40, 120), (280, 20), (300, 250)))], 100.0),
        ]
    if name == "hole":
        donut = Polygon(
            exterior=ring((0, 0), (330, 0), (330, 290), (0, 290)),
            holes=(ring((95, 80), (240, 95), (220, 210), (80, 190)),),
        )
        return [
            admin("donut", [donut], 500.0),
            admin("core", [Polygon(exterior=ring((90, 70), (250, 90), (230, 220), (70, 200)))], 50.0),
        ]
    if name == "multipolygon":
        island = Polygon(exterior=ring((200, 150), (320, 170), (260, 280)))
        mainland = Polygon(exterior=ring((60, 60), (240, 30), (280, 200), (120, 250), (30, 180)))
        return [
            admin("islands", [rectangle(5, 5, 95, 115), island], 400.0),
            admin("mainland", [mainland], 250.0),
        ]
    if name.startswith("convex"):
        rng = np.random.default_rng(int(name[len("convex"):]))
        # many-vertex rings, shifted from around the origin into the grid
        polys = [random_convex_polygon(rng, 20, 60) for _ in range(4)]
        shifted = [
            Polygon(exterior=tuple(Point(0.15 * p.x + 165, 0.15 * p.y + 150) for p in poly.exterior))
            for poly in polys
        ]
        return [admin(f"cvx{i}", [poly], 100.0 * (i + 1)) for i, poly in enumerate(shifted)]
    raise AssertionError(name)


CASES = ["three_way_overlap", "hole", "multipolygon", "convex1", "convex2", "convex3"]


def world(name: str):
    grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=11, n_rows=10, tile_size=TILE)
    rng = np.random.default_rng(CASES.index(name))
    # the mask starts 20 m west and south of the grid, so some pixels lie outside it
    values = (rng.random((33, 35)) < 0.55).astype(np.uint8)
    nodata = rng.random(values.shape) < 0.08
    mask = BinaryRaster(
        origin_x=-20.0, origin_y=-20.0, pixel_size=PIXEL, values=values, nodata=nodata
    )
    retained = rng.random((grid.n_rows, grid.n_cols)) >= 0.2
    return grid, mask, TileMask(grid=grid, retained=retained), case_units(name)


@pytest.mark.parametrize("name", CASES)
def test_allocation_equals_brute_force(name):
    grid, mask, tile_mask, units = world(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        fast, _ = run_disaggregation(mask, grid, units, tile_mask)
    brute = brute_force_allocate(mask, grid, units, tile_mask)
    assert np.array_equal(fast.values, brute.values)


@pytest.mark.parametrize("name", CASES)
def test_overlap_pixels_equal_nested_count(name):
    grid, mask, tile_mask, units = world(name)
    expected = 0
    for r in range(mask.n_rows):
        for c in range(mask.n_cols):
            if mask.nodata[r, c] or mask.values[r, c] != 1:
                continue
            p = Point(mask.origin_x + (c + 0.5) * PIXEL, mask.origin_y + (r + 0.5) * PIXEL)
            holders = sum(point_in_any(p, u.geometry) for u in units)
            expected += max(0, holders - 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assignment = assign_pixels(mask, grid, units, tile_mask)
    assert assignment.overlap_pixels == expected
    assert any(issubclass(w.category, OverlapWarning) for w in caught) == (expected > 0)
    if name == "three_way_overlap":
        assert expected > 0


@pytest.mark.parametrize("name", CASES)
def test_zonal_rows_equal_first_wins_oracle(name):
    grid, _, _, units = world(name)
    rng = np.random.default_rng(7)
    pop = PopulationGrid.on(grid, rng.random((grid.n_rows, grid.n_cols)) * 40.0)
    flat_pop = pop.values.reshape(-1)
    owned: dict[str, list[int]] = {u.id: [] for u in units}
    owned[UNASSIGNED_ID] = []
    for r in range(grid.n_rows):
        for c in range(grid.n_cols):
            center = grid.tile_center(c, r)
            owner = next((u.id for u in units if point_in_any(center, u.geometry)), UNASSIGNED_ID)
            owned[owner].append(r * grid.n_cols + c)
    rows = zonal_stats(pop, units)
    assert [row.unit_id for row in rows] == [u.id for u in units] + [UNASSIGNED_ID]
    area = (TILE / 1000.0) ** 2
    for row in rows:
        tiles = owned[row.unit_id]
        pop_sum = float(flat_pop[tiles].sum())
        assert row.tile_count == len(tiles)
        assert row.population_sum == pop_sum
        assert row.built_tile_count == sum(flat_pop[t] > 0 for t in tiles)
        assert row.mean_density == (pop_sum / (len(tiles) * area) if tiles else 0.0)
