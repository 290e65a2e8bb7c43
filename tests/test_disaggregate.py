from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from oracles import brute_force_allocate
from popgrid.disaggregate import allocate, allocate_uniform, assign_pixels, run_disaggregation
from popgrid.errors import AlignmentError, ConfigurationError, OverlapWarning, ValidationError
from popgrid.geo import BBox, TileGrid, rectangle
from popgrid.io import AdminLevel, AdminUnit, BinaryRaster
from popgrid.poi_filter import TileMask
from popgrid import synth


def unit(uid: str, box: tuple[float, float, float, float], population: float) -> AdminUnit:
    return AdminUnit(
        id=uid,
        level=AdminLevel.CIRCLE,
        geometry=(rectangle(*box),),
        population=population,
    )


def all_retained(grid: TileGrid) -> TileMask:
    return TileMask(grid=grid, retained=np.ones((grid.n_rows, grid.n_cols), dtype=bool))


def binary(origin_x, origin_y, pixel_size, rows_south_up) -> BinaryRaster:
    return BinaryRaster(
        origin_x=origin_x,
        origin_y=origin_y,
        pixel_size=pixel_size,
        values=np.array(rows_south_up, dtype=np.uint8),
    )


class TestProportionalSplit:
    def test_three_to_one_pixels_split_75_25(self):
        # two 30 m tiles; tile A holds 3 built pixels, tile B holds 1
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=1, tile_size=30.0)
        mask = binary(0, 0, 15.0, [[1, 1, 0, 1], [1, 0, 0, 0]])
        units = [unit("c1", (0, 0, 60, 30), 100.0)]
        pop, report = run_disaggregation(mask, grid, units, all_retained(grid))
        assert pop.values[0, 0] == 75.0
        assert pop.values[0, 1] == 25.0
        assert report.units[0].fallback_used is False

    def test_all_built_pixels_counted_when_nothing_excluded(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=2, tile_size=30.0)
        mask = binary(0, 0, 15.0, np.ones((4, 4)))
        units = [unit("c1", (0, 0, 60, 60), 10.0)]
        assignment = assign_pixels(mask, grid, units, all_retained(grid))
        tally = assignment.tallies[0]
        assert tally.total_retained_built == 16
        assert tally.total_built == 16
        assert tally.total_retained_built <= tally.total_built
        assert assignment.built_pixels_total == 16
        assert assignment.built_pixels_unassigned == 0

    def test_single_fully_built_tile_gets_everything(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=1, n_rows=1, tile_size=30.0)
        mask = binary(0, 0, 15.0, [[1, 1], [1, 1]])
        units = [unit("c1", (0, 0, 30, 30), 100.0)]
        pop, _ = run_disaggregation(mask, grid, units, all_retained(grid))
        assert pop.values[0, 0] == 100.0

    def test_excluded_tile_moves_pixels_to_excluded_tally(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=1, tile_size=30.0)
        mask = binary(0, 0, 15.0, [[1, 1, 0, 1], [1, 0, 0, 0]])
        units = [unit("c1", (0, 0, 60, 30), 100.0)]
        retained = np.ones((1, 2), dtype=bool)
        retained[0, 1] = False
        tile_mask = TileMask(grid=grid, retained=retained)
        assignment = assign_pixels(mask, grid, units, tile_mask)
        tally = assignment.tallies[0]
        assert tally.total_retained_built == 3
        assert tally.total_built == 4
        assert tally.excluded_tiles.tolist() == [1]
        pop, report = allocate(assignment, units)
        assert pop.values[0, 0] == 100.0
        assert pop.values[0, 1] == 0.0
        assert report.units[0].excluded_tiles == 1

    def test_pixel_center_on_tile_boundary_goes_to_higher_tile(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=1, tile_size=30.0)
        # pixel centers at x = 10c; the built pixel's center sits exactly at x=30
        values = np.zeros((1, 6), dtype=np.uint8)
        values[0, 3] = 1  # center x = -5 + 3.5*10 = 30.0
        mask = BinaryRaster(origin_x=-5.0, origin_y=5.0, pixel_size=10.0, values=values)
        units = [unit("c1", (0, 0, 60, 30), 10.0)]
        pop, _ = run_disaggregation(mask, grid, units, all_retained(grid))
        assert pop.values[0, 1] == 10.0
        assert pop.values[0, 0] == 0.0


class TestFallbacks:
    def test_zero_built_spreads_uniformly_over_tile_centers(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=2, tile_size=30.0)
        mask = binary(0, 0, 15.0, np.zeros((4, 4)))
        units = [unit("c1", (0, 0, 60, 60), 100.0)]
        pop, report = run_disaggregation(mask, grid, units, all_retained(grid))
        assert pop.values.tolist() == [[25.0, 25.0], [25.0, 25.0]]
        assert report.units[0].fallback_used is True
        assert report.fallback_units == 1

    def test_fallback_ignores_retention(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=1, tile_size=30.0)
        mask = binary(0, 0, 15.0, np.zeros((2, 4)))
        retained = np.array([[True, False]])
        units = [unit("c1", (0, 0, 60, 30), 100.0)]
        pop, _ = run_disaggregation(mask, grid, units, TileMask(grid=grid, retained=retained))
        assert pop.values.tolist() == [[50.0, 50.0]]

    def test_unit_without_tile_center_uses_representative_point(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=3, n_rows=1, tile_size=30.0)
        mask = binary(0, 0, 15.0, np.zeros((2, 6)))
        units = [unit("tiny", (40.0, 2.0, 50.0, 12.0), 42.0)]  # inside tile 1, misses its center
        pop, report = run_disaggregation(mask, grid, units, all_retained(grid))
        assert pop.values.tolist() == [[0.0, 42.0, 0.0]]
        assert report.units[0].fallback_used is True

    def test_conservation_holds_in_every_branch(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=4, n_rows=1, tile_size=30.0)
        mask = binary(0, 0, 15.0, [[1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0]])
        units = [
            unit("built", (0, 0, 30, 30), 10.0),
            unit("no-built", (30, 0, 90, 30), 20.0),
            unit("tiny", (95.0, 1.0, 105.0, 11.0), 30.0),
        ]
        pop, report = run_disaggregation(mask, grid, units, all_retained(grid))
        assert pop.total() == pytest.approx(60.0, rel=1e-12)
        for u in report.units:
            assert u.population_out == pytest.approx(u.population_in, rel=1e-9)


class TestInputChecks:
    def test_pixels_coarser_than_tiles_rejected(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=2, tile_size=30.0)
        mask = binary(0, 0, 45.0, [[1, 1], [1, 1]])
        with pytest.raises(ConfigurationError):
            assign_pixels(mask, grid, [unit("c1", (0, 0, 60, 60), 1.0)], all_retained(grid))

    def test_tile_mask_on_another_grid_rejected(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=2, tile_size=30.0)
        shifted = TileGrid(origin_x=30.0, origin_y=0, n_cols=2, n_rows=2, tile_size=30.0)
        mask = binary(0, 0, 15.0, [[1] * 4] * 4)
        with pytest.raises(AlignmentError, match="^tile mask grid does not match the allocation grid$"):
            run_disaggregation(mask, grid, [unit("c1", (0, 0, 60, 60), 1.0)], all_retained(shifted))

    def test_disjoint_extents_rejected(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=2, tile_size=30.0)
        mask = binary(1000.0, 1000.0, 15.0, [[1, 1], [1, 1]])
        with pytest.raises(ConfigurationError):
            assign_pixels(mask, grid, [unit("c1", (0, 0, 60, 60), 1.0)], all_retained(grid))

    def test_allocate_rejects_foreign_assignment(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=1, tile_size=30.0)
        mask = binary(0, 0, 15.0, [[1, 0, 0, 0], [0, 0, 0, 0]])
        units = [unit("c1", (0, 0, 60, 30), 1.0)]
        assignment = assign_pixels(mask, grid, units, all_retained(grid))
        with pytest.raises(ValidationError):
            allocate(assignment, [unit("other", (0, 0, 60, 30), 1.0)])

    def test_overlapping_units_warn_and_first_wins(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=1, tile_size=30.0)
        mask = binary(0, 0, 15.0, [[1, 1, 1, 1], [1, 1, 1, 1]])
        units = [
            unit("first", (0, 0, 60, 30), 80.0),
            unit("second", (0, 0, 60, 30), 20.0),  # fully overlapping
        ]
        with pytest.warns(OverlapWarning, match=r"wins: 'first' over 'second' \(8 pixels\)$"):
            assignment = assign_pixels(mask, grid, units, all_retained(grid))
        assert assignment.overlap_pixels == 8
        assert assignment.tallies[0].total_built == 8
        assert assignment.tallies[1].total_built == 0
        pop, report = allocate(assignment, units)
        # the loser unit falls back onto its tile centers, conserving its total
        assert pop.total() == pytest.approx(100.0, rel=1e-12)
        assert report.units[1].fallback_used is True

    def test_overlap_warning_names_the_first_pairs_in_input_order(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=1, tile_size=30.0)
        mask = binary(0, 0, 15.0, [[1, 1, 1, 1], [1, 1, 1, 1]])
        units = [
            unit("a", (0, 0, 30, 30), 1.0),  # the 4 western pixels
            unit("b", (0, 0, 60, 30), 1.0),  # all 8: 4 lost to a
            unit("c", (30, 0, 60, 30), 1.0),  # the 4 eastern: all lost to b
            unit("d", (0, 0, 60, 30), 1.0),  # all 8: 4 lost to a, 4 to b
        ]
        with pytest.warns(OverlapWarning) as caught:
            assignment = assign_pixels(mask, grid, units, all_retained(grid))
        assert assignment.overlap_pixels == 16
        assert str(caught[0].message) == (
            "16 built pixels fall in more than one admin unit; first unit in input order wins: "
            "'a' over 'b' (4 pixels), 'b' over 'c' (4 pixels), 'a' over 'd' (4 pixels) and 1 more"
        )


class TestProperties:
    def scenario(self, seed: int):
        spec = synth.ScenarioSpec(
            seed=seed,
            extent=BBox(0, 0, 960, 960),
            n_units=6,
            n_poi_clusters=2,
            pixel_size=15.0,
        )
        truth = synth.generate(spec)
        from popgrid.poi_filter import compute_tile_mask

        tile_mask = compute_tile_mask(truth.grid, truth.pois, 500.0, 5)
        return truth, tile_mask

    def test_mass_conservation(self):
        for seed in range(4):
            truth, tile_mask = self.scenario(seed)
            pop, report = run_disaggregation(truth.mask, truth.grid, truth.units, tile_mask)
            total_in = sum(u.population for u in truth.units)
            assert pop.total() == pytest.approx(total_in, rel=1e-9)
            for u in report.units:
                assert u.population_out == pytest.approx(u.population_in, rel=1e-9)

    def test_non_negative_and_excluded_zero(self):
        truth, tile_mask = self.scenario(1)
        pop, report = run_disaggregation(truth.mask, truth.grid, truth.units, tile_mask)
        assert (pop.values >= 0).all()
        if report.fallback_units == 0:
            excluded = ~tile_mask.retained
            assert not pop.values[excluded].any()

    def test_linearity_in_population(self):
        truth, tile_mask = self.scenario(2)
        base, _ = run_disaggregation(truth.mask, truth.grid, truth.units, tile_mask)
        k = 3.7
        scaled_units = [dataclasses.replace(u, population=u.population * k) for u in truth.units]
        scaled, _ = run_disaggregation(truth.mask, truth.grid, scaled_units, tile_mask)
        nz = base.values > 0
        assert np.allclose(scaled.values[nz] / base.values[nz], k, rtol=1e-12)
        assert not scaled.values[~nz & (base.values == 0)].any() or True

    def test_monotone_concentration_within_unit(self):
        truth, tile_mask = self.scenario(3)
        one_unit = [truth.units[0]]
        assignment = assign_pixels(truth.mask, truth.grid, one_unit, tile_mask)
        pop, _ = allocate(assignment, one_unit)
        tally = assignment.tallies[0]
        flat = pop.values.reshape(-1)
        counts = tally.retained_counts
        values = flat[tally.retained_tiles]
        order = np.argsort(counts)
        assert (np.diff(values[order]) >= 0).all()

    def test_permutation_invariance_tile_aligned(self):
        truth, tile_mask = self.scenario(0)
        base, _ = run_disaggregation(truth.mask, truth.grid, truth.units, tile_mask)
        perm = list(reversed(truth.units))
        permuted, _ = run_disaggregation(truth.mask, truth.grid, perm, tile_mask)
        # units are tile-aligned, so every tile belongs to one unit: exact
        assert np.array_equal(base.values, permuted.values)


class TestBruteForceOracle:
    def test_empty_unit_list_gives_empty_grid(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=2, tile_size=30.0)
        mask = binary(0, 0, 15.0, np.ones((4, 4)))
        pop = brute_force_allocate(mask, grid, [], all_retained(grid))
        assert not pop.values.any()
        fast, _ = run_disaggregation(mask, grid, [], all_retained(grid))
        assert np.array_equal(fast.values, pop.values)

    def test_single_unit_single_pixel(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=2, tile_size=30.0)
        values = np.zeros((4, 4), dtype=np.uint8)
        values[2, 3] = 1  # center (52.5, 37.5) -> tile (1, 1)
        mask = BinaryRaster(origin_x=0, origin_y=0, pixel_size=15.0, values=values)
        units = [unit("c1", (0, 0, 60, 60), 99.0)]
        pop = brute_force_allocate(mask, grid, units, all_retained(grid))
        assert pop.values[1, 1] == 99.0
        fast, _ = run_disaggregation(mask, grid, units, all_retained(grid))
        assert np.array_equal(fast.values, pop.values)

    def test_nodata_pixels_never_count(self, data_dir):
        from popgrid import io

        mask = io.BinaryRaster.from_raster(io.read_ascii_grid(data_dir / "mask.asc"))
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=4, n_rows=4, tile_size=30.0)
        units = [unit("c1", (0, 0, 120, 120), 68.0)]
        fast, _ = run_disaggregation(mask, grid, units, all_retained(grid))
        brute = brute_force_allocate(mask, grid, units, all_retained(grid))
        assert np.array_equal(fast.values, brute.values)
        assert fast.total() == pytest.approx(68.0, rel=1e-12)
        # 34 valid built pixels; each contributes population/34
        assignment = assign_pixels(mask, grid, units, all_retained(grid))
        assert assignment.tallies[0].total_built == 34

    def test_matches_fast_path_exactly(self):
        from popgrid.poi_filter import compute_tile_mask

        for seed in range(6):
            spec = synth.ScenarioSpec(
                seed=seed,
                extent=BBox(0, 0, 480, 480),
                n_units=4,
                n_poi_clusters=1,
                pixel_size=15.0,
            )
            truth = synth.generate(spec)
            tile_mask = compute_tile_mask(truth.grid, truth.pois, 500.0, 5)
            fast, _ = run_disaggregation(truth.mask, truth.grid, truth.units, tile_mask)
            brute = brute_force_allocate(truth.mask, truth.grid, truth.units, tile_mask)
            assert np.array_equal(fast.values, brute.values)


class TestUniformReference:
    def test_uniform_spread(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=4, n_rows=1, tile_size=30.0)
        units = [unit("a", (0, 0, 60, 30), 10.0), unit("b", (60, 0, 120, 30), 30.0)]
        pop = allocate_uniform(grid, units)
        assert pop.values.tolist() == [[5.0, 5.0, 15.0, 15.0]]

    def test_uniform_conserves(self):
        truth = synth.generate(synth.ScenarioSpec(seed=9, extent=BBox(0, 0, 960, 960), n_units=5))
        pop = allocate_uniform(truth.grid, truth.units)
        assert pop.total() == pytest.approx(truth.total_population(), rel=1e-9)
