from __future__ import annotations

import numpy as np
import pytest

from popgrid.errors import AlignmentError, ParameterError, ValidationError
from popgrid.evaluate import (
    UNASSIGNED_ID,
    ConfusionCounts,
    confusion,
    downsample_to_tiles,
    metrics,
    zonal_stats,
)
from popgrid.geo import BBox, TileGrid, rectangle
from popgrid.io import AdminLevel, AdminUnit, BinaryRaster, PopulationGrid, Raster
from popgrid import synth


def raster(rows, origin=(0.0, 0.0), pixel_size=30.0, nodata=None) -> Raster:
    return Raster(
        origin_x=origin[0],
        origin_y=origin[1],
        pixel_size=pixel_size,
        values=np.array(rows, dtype=np.float64),
        nodata=None if nodata is None else np.array(nodata, dtype=bool),
    )


def unit(uid, box, population=0.0):
    return AdminUnit(id=uid, level=AdminLevel.CIRCLE, geometry=(rectangle(*box),), population=population)


class TestConfusion:
    def test_identical_rasters(self):
        rng = np.random.default_rng(1)
        vals = (rng.random((6, 6)) < 0.4).astype(float)
        x = raster(vals)
        c = confusion(x, x)
        assert c.fp == 0 and c.fn == 0
        assert c.tp == int(vals.sum())
        assert c.total == 36

    def test_all_ones_vs_all_zeros(self):
        c = confusion(raster(np.ones((4, 5))), raster(np.zeros((4, 5))))
        assert c.fp == 20 and c.tp == 0 and c.fn == 0 and c.tn == 0

    def test_hand_built_4x4(self):
        ref = raster(
            [
                [0, 0, 0, 0],
                [1, 1, 0, 0],
                [1, 1, 1, 1],
                [1, 1, 1, 1],
            ]
        )
        pred = raster(
            [
                [1, 0, 0, 0],
                [1, 0, 0, 0],
                [1, 1, 1, 1],
                [1, 1, 1, 1],
            ]
        )
        c = confusion(pred, ref)
        assert (c.tp, c.fp, c.fn, c.tn) == (9, 1, 1, 5)

    def test_geometry_mismatch(self):
        with pytest.raises(AlignmentError):
            confusion(raster(np.ones((2, 2))), raster(np.ones((2, 3))))
        with pytest.raises(AlignmentError):
            confusion(raster(np.ones((2, 2))), raster(np.ones((2, 2)), pixel_size=10.0))
        with pytest.raises(AlignmentError):
            confusion(raster(np.ones((2, 2))), raster(np.ones((2, 2)), origin=(5.0, 0.0)))

    def test_nodata_cells_are_skipped(self):
        a = raster([[1, 1], [0, 0]], nodata=[[True, False], [False, False]])
        b = raster([[0, 1], [0, 0]], nodata=[[False, False], [False, True]])
        c = confusion(a, b)
        assert c.total == 2
        assert c.tp == 1 and c.tn == 1

    def test_swap_exchanges_fp_fn(self):
        rng = np.random.default_rng(2)
        a = raster((rng.random((8, 8)) < 0.5).astype(float))
        b = raster((rng.random((8, 8)) < 0.3).astype(float))
        c_ab = confusion(a, b)
        c_ba = confusion(b, a)
        assert (c_ab.fp, c_ab.fn) == (c_ba.fn, c_ba.fp)
        assert metrics(c_ab).accuracy == metrics(c_ba).accuracy
        assert metrics(c_ab).f1 == metrics(c_ba).f1


class TestMetrics:
    def test_hand_fixtures(self):
        cases = [
            (ConfusionCounts(9, 1, 1, 9), 0.9, 0.9),
            (ConfusionCounts(5, 0, 0, 5), 1.0, 1.0),
            (ConfusionCounts(0, 0, 0, 8), 1.0, 1.0),  # degenerate all-negative perfect
            (ConfusionCounts(2, 3, 1, 4), 0.6, 0.5),
            (ConfusionCounts(7, 2, 5, 6), 0.65, 2.0 / 3.0),
        ]
        for counts, accuracy, f1 in cases:
            m = metrics(counts)
            assert m.accuracy == pytest.approx(accuracy, abs=1e-12)
            assert m.f1 == pytest.approx(f1, abs=1e-12)

    def test_perfect_self_comparison(self):
        x = raster([[1, 0], [0, 1]])
        m = metrics(confusion(x, x))
        assert (m.accuracy, m.f1) == (1.0, 1.0)

    def test_empty_counts_rejected(self):
        with pytest.raises(ParameterError):
            metrics(ConfusionCounts(0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            ConfusionCounts(-1, 0, 0, 1)


class TestDownsample:
    grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=4, n_rows=3, tile_size=30.0)

    def test_all_ones_stays_ones(self):
        fine = raster(np.ones((6, 8)), pixel_size=15.0)
        for theta in (0.1, 0.5, 1.0):
            tiles = downsample_to_tiles(fine, self.grid, theta=theta)
            assert (tiles.values == 1).all()
            assert not tiles.nodata.any()

    def test_threshold_boundary(self):
        # tile (0,0) has 40% built (2 of 5 valid pixels; one pixel nodata)
        vals = np.zeros((6, 8))
        vals[0, 0] = 1
        vals[1, 1] = 1
        nodata = np.zeros((6, 8), dtype=bool)
        nodata[0, 1] = True
        fine = raster(vals, pixel_size=15.0, nodata=nodata)
        # only pixels in tile (0,0): rows 0-1, cols 0-1 -> 3 valid, 2 built
        sub = downsample_to_tiles(fine, TileGrid(0, 0, 1, 1, 30.0), theta=0.5)
        assert sub.values[0, 0] == 1.0  # 2/3 >= 0.5
        sub = downsample_to_tiles(fine, TileGrid(0, 0, 1, 1, 30.0), theta=0.7)
        assert sub.values[0, 0] == 0.0

    def test_forty_percent_tile(self):
        vals = np.zeros((5, 5))
        vals[0, :2] = 1  # 2 of 5... use a 5x5 pixel tile: 10 of 25 = 40%
        vals[1, :2] = 1
        vals[2, :2] = 1
        vals[3, :2] = 1
        vals[4, :2] = 1
        fine = Raster(origin_x=0, origin_y=0, pixel_size=6.0, values=vals)
        one_tile = TileGrid(0, 0, 1, 1, 30.0)
        assert downsample_to_tiles(fine, one_tile, theta=0.5).values[0, 0] == 0.0
        assert downsample_to_tiles(fine, one_tile, theta=0.25).values[0, 0] == 1.0

    def test_all_nodata_tile_is_nodata(self):
        vals = np.ones((6, 8))
        nodata = np.zeros((6, 8), dtype=bool)
        nodata[:2, :2] = True  # the whole of tile (0,0)
        fine = raster(vals, pixel_size=15.0, nodata=nodata)
        tiles = downsample_to_tiles(fine, self.grid, theta=0.5)
        assert tiles.nodata[0, 0]
        assert not tiles.nodata[1, 1]

    def test_theta_out_of_range(self):
        fine = raster(np.ones((6, 8)), pixel_size=15.0)
        for theta in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                downsample_to_tiles(fine, self.grid, theta=theta)

    def test_matches_brute_force_per_tile(self):
        rng = np.random.default_rng(4)
        vals = (rng.random((9, 12)) < 0.5).astype(float)
        nodata = rng.random((9, 12)) < 0.1
        vals = np.where(nodata, 0.0, vals)
        fine = Raster(origin_x=0, origin_y=0, pixel_size=10.0, values=vals, nodata=nodata)
        theta = 0.5
        tiles = downsample_to_tiles(fine, self.grid, theta=theta)
        ratio = 3
        for tr in range(3):
            for tc in range(4):
                block_vals = vals[tr * ratio : (tr + 1) * ratio, tc * ratio : (tc + 1) * ratio]
                block_nd = nodata[tr * ratio : (tr + 1) * ratio, tc * ratio : (tc + 1) * ratio]
                valid = (~block_nd).sum()
                if valid == 0:
                    assert tiles.nodata[tr, tc]
                    continue
                built = int(block_vals[~block_nd].sum())
                expect = 1.0 if built / valid >= theta else 0.0
                assert tiles.values[tr, tc] == expect


class TestZonalStats:
    def test_single_unit_covers_grid(self):
        grid = TileGrid(0, 0, 4, 4, 30.0)
        rng = np.random.default_rng(5)
        pop = PopulationGrid.on(grid, rng.random((4, 4)) * 100)
        rows = zonal_stats(pop, [unit("all", (0, 0, 120, 120))])
        assert rows[0].population_sum == pytest.approx(pop.total(), rel=1e-12)
        assert rows[0].tile_count == 16
        assert rows[-1].unit_id == UNASSIGNED_ID
        assert rows[-1].tile_count == 0

    def test_disjoint_unit_gets_zero(self):
        grid = TileGrid(0, 0, 4, 4, 30.0)
        pop = PopulationGrid.on(grid, np.full((4, 4), 2.0))
        rows = zonal_stats(pop, [unit("far", (900, 900, 990, 990))])
        assert rows[0].population_sum == 0.0
        assert rows[0].tile_count == 0
        assert rows[0].mean_density == 0.0
        assert rows[-1].population_sum == pytest.approx(32.0)

    def test_partition_rows_sum_to_grand_total(self):
        rng = np.random.default_rng(6)
        grid = TileGrid(0, 0, 8, 8, 30.0)
        pop = PopulationGrid.on(grid, rng.random((8, 8)) * 50)
        units = [
            unit("q1", (0, 0, 120, 120)),
            unit("q2", (120, 0, 240, 120)),
            unit("q3", (0, 120, 120, 240)),
            unit("q4", (120, 120, 240, 240)),
        ]
        rows = zonal_stats(pop, units)
        total = sum(r.population_sum for r in rows)
        assert total == pytest.approx(pop.total(), rel=1e-9)
        assert rows[-1].tile_count == 0  # exact partition leaves nothing unassigned

    def test_mean_density(self):
        grid = TileGrid(0, 0, 2, 1, 100.0)  # two 100 m tiles = 0.01 km^2 each
        pop = PopulationGrid.on(grid, np.array([[10.0, 30.0]]))
        rows = zonal_stats(pop, [unit("u", (0, 0, 200, 100))])
        assert rows[0].mean_density == pytest.approx(40.0 / 0.02, rel=1e-12)

    @pytest.mark.parametrize(
        "tile_size, values",
        [(1e-155, [[10.0, 30.0]]),  # a subnormal tile area: 1e-316 km2
         (1.0, [[1e303, 0.0]])],  # a normal one, under a population near the float limit
    )
    def test_a_density_that_is_not_finite_is_refused(self, tile_size, values):
        grid = TileGrid(0, 0, 2, 1, tile_size)
        pop = PopulationGrid.on(grid, np.array(values))
        area = repr((tile_size / 1000.0) ** 2)
        with pytest.raises(ValidationError, match=rf"unit 'u': .* tiles of {area} km2 give a mean density of inf"):
            zonal_stats(pop, [unit("u", (0, 0, 2 * tile_size, tile_size))])

    def test_built_tile_count_from_raster(self):
        grid = TileGrid(0, 0, 2, 1, 30.0)
        pop = PopulationGrid.on(grid, np.array([[5.0, 0.0]]))
        built = Raster(origin_x=0, origin_y=0, pixel_size=30.0, values=np.array([[1.0, 1.0]]))
        rows = zonal_stats(pop, [unit("u", (0, 0, 60, 30))], built=built)
        assert rows[0].built_tile_count == 2
        rows = zonal_stats(pop, [unit("u", (0, 0, 60, 30))])
        assert rows[0].built_tile_count == 1  # falls back to positive population

    @pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, float("nan")])
    def test_built_raster_must_be_zero_or_one(self, bad):
        grid = TileGrid(0, 0, 2, 1, 30.0)
        pop = PopulationGrid.on(grid, np.array([[5.0, 0.0]]))
        built = Raster(origin_x=0, origin_y=0, pixel_size=30.0, values=np.array([[1.0, bad]]))
        with pytest.raises(ValidationError, match=r"binary raster has 1 cells outside \{0, 1\}"):
            zonal_stats(pop, [unit("u", (0, 0, 60, 30))], built=built)
        # a nodata cell is not counted, whatever value it holds
        built = Raster(0, 0, 30.0, np.array([[1.0, bad]]), np.array([[False, True]]))
        assert zonal_stats(pop, [unit("u", (0, 0, 60, 30))], built=built)[0].built_tile_count == 1

    def test_built_binary_raster_is_taken_as_it_is(self):
        grid = TileGrid(0, 0, 2, 1, 30.0)
        pop = PopulationGrid.on(grid, np.array([[5.0, 0.0]]))
        built = BinaryRaster.on(grid, np.array([[0, 1]], dtype=np.uint8))
        assert BinaryRaster.from_raster(built) is built
        rows = zonal_stats(pop, [unit("u", (0, 0, 60, 30))], built=built)
        assert rows[0].built_tile_count == 1

    def test_synth_partition_reconciles(self):
        truth = synth.generate(synth.ScenarioSpec(seed=13, extent=BBox(0, 0, 960, 960), n_units=7))
        pop = truth.tile_population()
        rows = zonal_stats(pop, list(truth.units))
        assert sum(r.population_sum for r in rows) == pytest.approx(pop.total(), rel=1e-9)
        by_id = {r.unit_id: r for r in rows}
        for u in truth.units:
            assert by_id[u.id].population_sum == pytest.approx(u.population, rel=1e-9)
