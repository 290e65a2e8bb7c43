from __future__ import annotations

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from popgrid import io, synth
from popgrid.disaggregate import allocate_uniform, run_disaggregation
from popgrid.errors import AlignmentError, GenerationError, ValidationError
from popgrid.geo import BBox, Point, points_in_any
from popgrid.poi_filter import compute_tile_mask


NAN = float("nan")
INF = float("inf")


def small_spec(seed: int, **kw) -> synth.ScenarioSpec:
    defaults = dict(extent=BBox(0, 0, 960, 960), n_units=5, n_poi_clusters=2, pixel_size=15.0)
    defaults.update(kw)
    return synth.ScenarioSpec(seed=seed, **defaults)


class TestSpecValidation:
    def test_bad_ranges(self):
        with pytest.raises(ValidationError):
            synth.ScenarioSpec(seed=1, built_fraction_range=(0.8, 0.2))
        with pytest.raises(ValidationError):
            synth.ScenarioSpec(seed=1, built_fraction_range=(0.2, 1.4))
        with pytest.raises(ValidationError):
            synth.ScenarioSpec(seed=1, population_range=(-5, 10))
        with pytest.raises(ValidationError):
            synth.ScenarioSpec(seed=1, n_units=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tile_size", NAN),
            ("tile_size", INF),
            ("pixel_size", NAN),
            ("pixel_size", -INF),
            ("built_fraction_range", (NAN, 0.5)),
            ("built_fraction_range", (0.1, NAN)),
            ("built_fraction_range", (-INF, 0.5)),
            ("population_range", (NAN, 10.0)),
            ("population_range", (0.0, NAN)),
            ("population_range", (0.0, INF)),
        ],
    )
    def test_non_finite_sizes_and_ranges(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a finite real number"):
            synth.ScenarioSpec(seed=1, **{field: value})

    def test_pixel_must_divide_tile(self):
        with pytest.raises(ValidationError):
            synth.ScenarioSpec(seed=1, tile_size=30.0, pixel_size=13.0)

    def test_infeasible_spec(self):
        with pytest.raises(GenerationError):
            synth.generate(small_spec(1, built_fraction_range=(0.0, 0.0)))
        with pytest.raises(GenerationError):
            synth.generate(small_spec(1, n_units=5000))
        with pytest.raises(GenerationError):
            synth.generate(synth.ScenarioSpec(seed=1, extent=BBox(0, 0, 10, 10)))

    @pytest.mark.parametrize(
        "side, tile_size, pixel_size, refused",
        [
            (1e300, 30.0, 15.0, True),
            (1e6, 30.0, 15.0, True),
            (1e300, 1e-300, 1e-300, True),  # the tile count overflows a float
            (61470.0, 30.0, 15.0, True),  # 8194 x 8194 pixels
            (61440.0, 30.0, 15.0, False),  # 8192 x 8192 = 2**24 pixels, the limit
        ],
    )
    def test_pixel_lattice_limit_allocates_nothing(self, monkeypatch, side, tile_size, pixel_size, refused):
        class Partitioned(Exception):
            pass

        def partition(*args):
            raise Partitioned

        monkeypatch.setattr(synth, "_partition", partition)
        spec = synth.ScenarioSpec(seed=1, extent=BBox(0, 0, side, side), tile_size=tile_size, pixel_size=pixel_size)

        def expected():
            return pytest.raises(GenerationError, match="pixel limit") if refused else pytest.raises(Partitioned)

        with expected():
            synth.generate(spec)  # first, untraced: lazy imports allocate too
        tracemalloc.start()
        try:
            with expected():
                synth.generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = synth.generate(small_spec(42))
        b = synth.generate(small_spec(42))
        assert np.array_equal(a.mask.values, b.mask.values)
        assert np.array_equal(a.pixel_population.values, b.pixel_population.values)
        assert [u.population for u in a.units] == [u.population for u in b.units]
        assert (a.pois.xs.tolist(), a.pois.ys.tolist(), a.pois.categories) == (
            b.pois.xs.tolist(),
            b.pois.ys.tolist(),
            b.pois.categories,
        )

    def test_different_seeds_differ(self):
        a = synth.generate(small_spec(1))
        b = synth.generate(small_spec(2))
        assert not np.array_equal(a.pixel_population.values, b.pixel_population.values)


class TestGroundTruthInvariants:
    def test_single_unit_fully_built(self):
        truth = synth.generate(
            small_spec(3, n_units=1, built_fraction_range=(1.0, 1.0), n_poi_clusters=0)
        )
        assert len(truth.units) == 1
        assert (truth.mask.values == 1).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_unit_pixel_sums_are_exact(self, seed):
        truth = synth.generate(small_spec(seed))
        px = truth.pixel_population
        rows_idx, cols_idx = np.indices(px.values.shape)
        xs = px.origin_x + (cols_idx.ravel() + 0.5) * px.pixel_size
        ys = px.origin_y + (rows_idx.ravel() + 0.5) * px.pixel_size
        for u in truth.units:
            inside = points_in_any(xs, ys, u.geometry)
            assert float(px.values.ravel()[inside].sum()) == u.population

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_populated_pixels_are_built_and_non_commercial(self, seed):
        truth = synth.generate(small_spec(seed))
        populated = truth.pixel_population.values > 0
        assert not populated[truth.mask.values == 0].any()
        ratio = round(truth.spec.tile_size / truth.spec.pixel_size)
        poi_tile_mask = np.zeros((truth.grid.n_rows, truth.grid.n_cols), dtype=bool)
        flat = np.array(sorted(truth.poi_tiles), dtype=np.int64)
        if flat.size:
            poi_tile_mask.reshape(-1)[flat] = True
        commercial_px = np.repeat(np.repeat(poi_tile_mask, ratio, axis=0), ratio, axis=1)
        assert not populated[commercial_px].any()

    def test_members_are_each_labels_row_major_indices(self):
        rng = np.random.default_rng(5)
        for shape, n in [((7, 11), 4), ((1, 1), 1), ((40, 30), 300)]:
            labels = rng.integers(0, n, size=shape).astype(np.min_scalar_type(n))
            members = synth._members(labels, n + 2)  # two labels with no cells
            assert len(members) == n + 2
            for k, idx in enumerate(members):
                assert np.array_equal(idx, np.flatnonzero(labels == k))

    def test_units_partition_extent(self):
        truth = synth.generate(small_spec(4))
        total_area = sum(part.area for u in truth.units for part in u.geometry)
        assert total_area == pytest.approx(
            truth.grid.n_tiles * truth.spec.tile_size**2, rel=1e-12
        )

    def test_tile_population_matches_unit_totals(self):
        truth = synth.generate(small_spec(5))
        assert truth.tile_population().total() == truth.total_population()

    def test_clusters_fire_default_rule(self):
        truth = synth.generate(small_spec(6))
        mask = compute_tile_mask(truth.grid, truth.pois, 500.0, 5)
        assert set(mask.excluded_flat().tolist()) == set(truth.poi_tiles)


class TestZeroPopulation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(seed=30),
            dict(seed=31, n_units=1, n_poi_clusters=1),
            dict(seed=32, n_units=9, built_fraction_range=(0.0, 0.3), n_poi_clusters=4),
            dict(seed=33, built_fraction_range=(0.0, 0.0), n_poi_clusters=0),
            dict(seed=34, built_fraction_range=(1.0, 1.0), n_poi_clusters=3),
        ],
    )
    def test_units_and_pixels_hold_nobody(self, kw):
        truth = synth.generate(small_spec(population_range=(0.0, 0.0), n_scattered_pois=0, **kw))
        assert [u.population for u in truth.units] == [0.0] * truth.spec.n_units
        assert not truth.pixel_population.values.any()
        holding = set()
        for x, y in zip(truth.pois.xs.tolist(), truth.pois.ys.tolist()):
            idx = truth.grid.tile_index_of(Point(x, y))
            if idx is not None:
                holding.add(idx[1] * truth.grid.n_cols + idx[0])
        assert truth.poi_tiles == holding
        assert holding or truth.spec.n_poi_clusters == 0


class TestScore:
    def test_perfect_estimate_scores_zero(self):
        truth = synth.generate(small_spec(7))
        result = synth.score(truth.tile_population(), truth)
        assert result == synth.ScoreResult(0.0, 0.0, 0.0)

    def test_all_zero_estimate(self):
        truth = synth.generate(small_spec(8))
        zeros = io.PopulationGrid(grid=truth.grid, values=np.zeros((truth.grid.n_rows, truth.grid.n_cols)))
        result = synth.score(zeros, truth)
        n = truth.grid.n_tiles
        assert result.mae == pytest.approx(truth.total_population() / n, rel=1e-9)
        assert result.total_error == pytest.approx(truth.total_population(), rel=1e-12)

    def test_misaligned_estimate_rejected(self):
        truth = synth.generate(small_spec(9))
        other = io.PopulationGrid(
            grid=synth.generate(small_spec(9, extent=BBox(0, 0, 480, 480))).grid,
            values=np.zeros((16, 16)),
        )
        with pytest.raises(AlignmentError):
            synth.score(other, truth)

    def test_pipeline_beats_uniform_baseline(self):
        for seed in (11, 12, 13):
            truth = synth.generate(small_spec(seed))
            tile_mask = compute_tile_mask(truth.grid, truth.pois, 500.0, 5)
            est, _ = run_disaggregation(truth.mask, truth.grid, truth.units, tile_mask)
            proposed = synth.score(est, truth)
            uniform = synth.score(allocate_uniform(truth.grid, truth.units), truth)
            assert proposed.mae < uniform.mae
            assert proposed.total_error <= 1e-9 * max(truth.total_population(), 1.0)


class TestWriteScenario:
    def test_scenario_json_layout(self, tmp_path):
        spec = small_spec(22, extent=BBox(-90.0, 30.0, 870.0, 510.0), n_scattered_pois=7)
        truth = synth.generate(spec)
        meta = json.loads(Path(synth.write_scenario(truth, tmp_path / "s")["meta"]).read_text())
        names = [f.name for f in dataclasses.fields(synth.ScenarioSpec)]
        assert list(meta) == names + ["grid", "total_population", "n_pois"]
        assert meta["extent"] == [-90.0, 30.0, 870.0, 510.0]
        for name in names:
            if name != "extent":
                value = getattr(spec, name)
                assert meta[name] == (list(value) if isinstance(value, tuple) else value)
        g = truth.grid
        assert meta["grid"] == {
            "origin_x": g.origin_x,
            "origin_y": g.origin_y,
            "n_cols": g.n_cols,
            "n_rows": g.n_rows,
            "tile_size": g.tile_size,
        }
        assert list(meta["grid"]) == ["origin_x", "origin_y", "n_cols", "n_rows", "tile_size"]
        assert meta["total_population"] == truth.total_population()
        assert meta["n_pois"] == len(truth.pois)

    def test_outputs_are_consumable(self, tmp_path):
        truth = synth.generate(small_spec(21))
        paths = synth.write_scenario(truth, tmp_path / "s")
        units = io.read_admin_units(paths["admin"], expected_level="circle")
        assert [u.id for u in units] == [u.id for u in truth.units]
        assert [u.population for u in units] == [u.population for u in truth.units]
        pois = io.read_poi(paths["poi"])
        assert len(pois) == len(truth.pois)
        mask = io.BinaryRaster.from_raster(io.read_ascii_grid(paths["mask"]))
        assert np.array_equal(mask.values, truth.mask.values)
        tiles = io.population_grid_from_raster(io.read_ascii_grid(paths["truth_tiles"]))
        assert np.array_equal(tiles.values, truth.tile_population().values)
