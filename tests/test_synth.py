from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
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

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.0, True])
    def test_seed_outside_the_philox_key_range(self, seed):
        with pytest.raises(ValidationError) as e:
            synth.ScenarioSpec(seed=seed)
        assert str(e.value) == f"seed must be an integer in [0, 2**128), got {seed!r}"

    def test_largest_seed_is_accepted(self):
        assert synth.generate(small_spec(2**128 - 1)).spec.seed == 2**128 - 1

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
        zeros = io.PopulationGrid.on(truth.grid, np.zeros((truth.grid.n_rows, truth.grid.n_cols)))
        result = synth.score(zeros, truth)
        n = truth.grid.n_tiles
        assert result.mae == pytest.approx(truth.total_population() / n, rel=1e-9)
        assert result.total_error == pytest.approx(truth.total_population(), rel=1e-12)

    def test_misaligned_estimate_rejected(self):
        truth = synth.generate(small_spec(9))
        grid = synth.generate(small_spec(9, extent=BBox(0, 0, 480, 480))).grid
        other = io.PopulationGrid.on(grid, np.zeros((16, 16)))
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

    def test_a_write_that_fails_partway_leaves_the_directory_as_it_was(self, tmp_path, monkeypatch):
        out = tmp_path / "s"
        synth.write_scenario(synth.generate(small_spec(21)), out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        write_ascii_grid = synth.write_ascii_grid
        grids = []

        def fail_on_the_second_grid(raster, path):
            grids.append(path)
            if len(grids) == 2:  # admin.geojson, poi.geojson and mask.asc are written by now
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_ascii_grid(raster, path)

        monkeypatch.setattr(synth, "write_ascii_grid", fail_on_the_second_grid)
        with pytest.raises(OSError, match="No space left on device"):
            synth.write_scenario(synth.generate(small_spec(22)), out)
        assert len(grids) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


# NumPy keeps a generator's stream across versions only as far as NEP 19
# promises, and it does not promise this identity, so a failure names the
# installed numpy.
_NUMPY = f"on numpy {np.__version__}"


class TestCategoryStream:
    """synth draws POI categories as bounded integers mapped through
    ``_CATEGORIES``: one size-n draw per cluster, one scalar draw per
    scattered POI. Both must consume the stream as the scalar
    ``rng.choice(_CATEGORIES)`` loop they replace did."""

    N = len(synth._CATEGORIES)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_vector_draw_is_n_scalar_choices(self, seed):
        for lead in range(3):  # start on either half of a buffered 32-bit word
            for n in (1, 2, 7, 18):
                a, b = philox(seed), philox(seed)
                assert a.integers(1000, size=lead).tolist() == b.integers(1000, size=lead).tolist()
                scalar = [str(a.choice(synth._CATEGORIES)) for _ in range(n)]
                vector = [synth._CATEGORIES[j] for j in b.integers(self.N, size=n).tolist()]
                assert scalar == vector, f"{n} categories differ {_NUMPY}"
                assert a.random(3).tolist() == b.random(3).tolist(), f"the stream after {n} draws differs {_NUMPY}"
                assert a.integers(self.N, size=5).tolist() == b.integers(self.N, size=5).tolist(), _NUMPY

    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_scalar_draws(self, seed):
        a, b = philox(seed), philox(seed)
        for i in range(40):
            one = (a.uniform(-5.0, 7.0), a.uniform(0.0, 3840.0), str(a.choice(synth._CATEGORIES)))
            two = (b.uniform(-5.0, 7.0), b.uniform(0.0, 3840.0), synth._CATEGORIES[b.integers(self.N)])
            assert one == two, f"scattered POI {i} differs {_NUMPY}"
        assert a.random(3).tolist() == b.random(3).tolist(), _NUMPY


# sha256 of each file write_scenario writes for SETUP_SPEC, recorded with the
# scalar rng.choice category draws they replace
_SETUP_DIGESTS = {
    0: {
        "admin": "33178a7c7502782832ef447595855715255529d1167dc47c8e960eb590e5e1b7",
        "poi": "6341b3667d813266463838f7250fcdb73c3a2ae019989c9636566ac9f3e5659d",
        "mask": "f6814c364529d37c7fc25f1c1ef53313675805f16d41bd371dd81382417d73a5",
        "truth_tiles": "411456e7e18d82b6c17a35310213d8b43b47e243517aa90a39c2a6c1c2bfb054",
        "meta": "475c0935c91928f4fd93c167383ea43db1b5f089f41f7ab99ab4c8fcce0e3313",
    },
    5: {
        "admin": "174e3e6b376fb12d35ecf7debca7240fc4d0cf2d1090796d79d0d7429521605a",
        "poi": "0a4675bccfeab9b82968b5ca49d0a9f12611f72a6cf83d3df63ee3a532267b96",
        "mask": "f1e9dcd0f3551b911daa1d50dda889b13f34c1e7f8f0543a7c03f5803d7f5188",
        "truth_tiles": "421e9e24a2e613ee7d6362f1f508a745c61912e4fa6a7ca22608926b8ca1b284",
        "meta": "030032c6f0fc80cf97b90ea461871ee22b0e272e30d9fcdb467bb31fdf1e9408",
    },
}


@pytest.mark.parametrize("seed", sorted(_SETUP_DIGESTS))
def test_setup_files_keep_their_bytes(tmp_path, seed):
    spec = small_spec(
        seed,
        extent=BBox(0, 0, 1920, 1920),
        n_units=6,
        n_poi_clusters=24,
        poi_cluster_size_range=(3, 7),
        n_scattered_pois=40,
    )
    paths = synth.write_scenario(synth.generate(spec), tmp_path)
    digests = {k: hashlib.sha256(Path(p).read_bytes()).hexdigest() for k, p in paths.items()}
    changed = sorted(k for k in digests if digests[k] != _SETUP_DIGESTS[seed][k])
    assert not changed, f"seed {seed}: {', '.join(changed)} changed {_NUMPY}"
