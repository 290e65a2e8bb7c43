"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its criterion holds; pytest failure output
marks the criterion red otherwise. Tolerances are pinned here and must not
be loosened.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_allocate
from popgrid import io, synth
from popgrid.cli import main
from popgrid.disaggregate import allocate_uniform, run_disaggregation
from popgrid.errors import (
    FormatError,
    GeometryError,
    LevelMismatchError,
    ParseError,
    SchemaError,
    TruncationError,
    ValidationError,
)
from popgrid.evaluate import ConfusionCounts, confusion, metrics
from popgrid.geo import BBox, TileGrid, rectangle
from popgrid.io import AdminLevel, AdminUnit, BinaryRaster
from popgrid.poi_filter import PoiSet, TileMask, compute_tile_mask
from popgrid.geo import Point

DATA = Path(__file__).parent / "data"


def ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def random_poi_set(rng: np.random.Generator, n: int, span: float) -> PoiSet:
    coords = []
    n_clustered = n // 2
    while len(coords) < n_clustered:
        cx, cy = rng.uniform(0, span, 2)
        for _ in range(min(int(rng.integers(2, 14)), n_clustered - len(coords))):
            r = rng.uniform(0, 260)
            a = rng.uniform(0, 2 * np.pi)
            coords.append((cx + r * np.cos(a), cy + r * np.sin(a)))
    while len(coords) < n:
        coords.append(tuple(rng.uniform(0, span, 2)))
    return PoiSet([x for x, _ in coords], [y for _, y in coords])


def brute_dense_indices(pois: PoiSet, radius: float, threshold: int) -> set[int]:
    xs, ys = pois.xs, pois.ys
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    counts = (dx * dx + dy * dy <= radius * radius).sum(axis=1)
    return set(np.flatnonzero(counts >= threshold).tolist())


def zero_built_inside_first_unit(truth: synth.GroundTruth) -> BinaryRaster:
    """Remove every built pixel of the first unit so allocation must fall back."""
    bb = truth.units[0].bbox
    m = truth.mask
    vals = np.array(m.values, copy=True)
    c0 = max(0, math.floor((bb.min_x - m.origin_x) / m.pixel_size))
    c1 = min(m.n_cols, math.ceil((bb.max_x - m.origin_x) / m.pixel_size))
    r0 = max(0, math.floor((bb.min_y - m.origin_y) / m.pixel_size))
    r1 = min(m.n_rows, math.ceil((bb.max_y - m.origin_y) / m.pixel_size))
    vals[r0:r1, c0:c1] = 0
    return BinaryRaster(
        origin_x=m.origin_x, origin_y=m.origin_y, pixel_size=m.pixel_size, values=vals
    )


def test_criterion_1_conservation_on_100_scenarios():
    t0 = time.perf_counter()
    fallback_seen = 0
    for i in range(100):
        if i < 80:
            tiles = 24 + (i % 5) * 16  # 24..88
        elif i < 96:
            tiles = 128
        else:
            tiles = 256
        spec = synth.ScenarioSpec(
            seed=1000 + i,
            extent=BBox(0.0, 0.0, tiles * 30.0, tiles * 30.0),
            n_units=3 + (i % 9),
            n_poi_clusters=i % 4,
            built_fraction_range=(0.05 + 0.01 * (i % 5), 0.6),
            population_range=(100.0, 9000.0),
            pixel_size=15.0,
        )
        truth = synth.generate(spec)
        mask = truth.mask
        if i % 5 == 0:
            mask = zero_built_inside_first_unit(truth)
        tile_mask = compute_tile_mask(truth.grid, truth.pois, 500.0, 5)
        pop, report = run_disaggregation(mask, truth.grid, truth.units, tile_mask)
        total_in = sum(u.population for u in truth.units)
        assert abs(pop.total() - total_in) <= 1e-9 * max(total_in, 1.0), f"scenario {i}"
        for u in report.units:
            assert abs(u.population_out - u.population_in) <= 1e-9 * max(u.population_in, 1.0)
        if i % 5 == 0 and truth.units[0].population > 0:
            assert report.units[0].fallback_used, f"scenario {i} should have used the fallback"
            fallback_seen += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"conservation sweep took {elapsed:.1f}s"
    assert fallback_seen >= 15
    ok(1, f"mass conserved at 1e-9 on 100 scenarios ({fallback_seen} with forced fallback) in {elapsed:.1f}s")


def test_criterion_2_proportional_split_is_exact():
    grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=1, tile_size=30.0)
    mask = BinaryRaster(
        origin_x=0,
        origin_y=0,
        pixel_size=15.0,
        values=np.array([[1, 1, 0, 1], [1, 0, 0, 0]], dtype=np.uint8),
    )
    units = [
        AdminUnit(
            id="c1",
            level=AdminLevel.CIRCLE,
            geometry=(rectangle(0, 0, 60, 30),),
            population=100.0,
        )
    ]
    retained = TileMask(grid=grid, retained=np.ones((1, 2), dtype=bool))
    pop, _ = run_disaggregation(mask, grid, units, retained)
    assert pop.values[0, 0] == 75.0
    assert pop.values[0, 1] == 25.0
    ok(2, "3:1 built pixels with population 100 split exactly 75.0 / 25.0")


def test_criterion_3_poi_filter_matches_quadratic_brute_force():
    t0 = time.perf_counter()
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        n = int(rng.integers(50, 2001))
        span = float(rng.uniform(2000, 9000))
        pois = random_poi_set(rng, n, span)
        radius, threshold = 500.0, 5
        expected = brute_dense_indices(pois, radius, threshold)
        got = set(np.flatnonzero(pois.dense(radius, threshold)).tolist())
        assert got == expected, f"set {i}: dense POI mismatch"
        grid = TileGrid(
            origin_x=0.0,
            origin_y=0.0,
            n_cols=int(span // 30) + 1,
            n_rows=int(span // 30) + 1,
            tile_size=30.0,
        )
        mask = compute_tile_mask(grid, pois, radius, threshold)
        brute_retained = np.ones((grid.n_rows, grid.n_cols), dtype=bool)
        for j in expected:
            idx = grid.tile_index_of(Point(pois.xs[j], pois.ys[j]))
            if idx is not None:
                brute_retained[idx[1], idx[0]] = False
        assert np.array_equal(mask.retained, brute_retained), f"set {i}: mask mismatch"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"POI oracle sweep took {elapsed:.1f}s"
    ok(3, f"indexed density filter equals O(n^2) brute force on 50 sets in {elapsed:.1f}s")


def test_criterion_4_monotonicity_in_radius_and_threshold():
    radii = (150.0, 300.0, 600.0)
    thresholds = (2, 4, 7)
    grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=100, n_rows=100, tile_size=30.0)
    for i in range(20):
        rng = np.random.default_rng(3000 + i)
        pois = random_poi_set(rng, int(rng.integers(100, 600)), 3000.0)
        excluded = {
            (r, p): set(compute_tile_mask(grid, pois, r, p).excluded_flat().tolist())
            for r in radii
            for p in thresholds
        }
        for p in thresholds:
            assert excluded[(radii[0], p)] <= excluded[(radii[1], p)] <= excluded[(radii[2], p)]
        for r in radii:
            assert excluded[(r, thresholds[2])] <= excluded[(r, thresholds[1])] <= excluded[(r, thresholds[0])]
    ok(4, "excluded tiles monotone in radius and anti-monotone in threshold (20 x 3 x 3)")


def test_criterion_5_allocation_matches_brute_force_exactly():
    matched = 0
    for i in range(50):
        rng = np.random.default_rng(4000 + i)
        if i < 45:
            tiles = int(rng.integers(8, 33))
            ratio = 2
        else:
            tiles = 64
            ratio = 1
        spec = synth.ScenarioSpec(
            seed=4000 + i,
            extent=BBox(0.0, 0.0, tiles * 30.0, tiles * 30.0),
            n_units=int(rng.integers(2, 11)),
            n_poi_clusters=int(rng.integers(0, 3)),
            population_range=(50.0, 4000.0),
            pixel_size=30.0 / ratio,
        )
        truth = synth.generate(spec)
        mask = truth.mask if i % 7 else zero_built_inside_first_unit(truth)
        tile_mask = compute_tile_mask(truth.grid, truth.pois, 500.0, 5)
        fast, _ = run_disaggregation(mask, truth.grid, truth.units, tile_mask)
        brute = brute_force_allocate(mask, truth.grid, truth.units, tile_mask)
        assert np.array_equal(fast.values, brute.values), f"scenario {i}: allocation mismatch"
        matched += 1
    ok(5, f"vectorized allocation equals nested-loop brute force bit-for-bit on {matched} scenarios")


def test_criterion_6_metrics_match_hand_computed_values():
    cases = [
        (ConfusionCounts(9, 1, 1, 9), 0.9, 0.9),
        (ConfusionCounts(5, 0, 0, 5), 1.0, 1.0),
        (ConfusionCounts(0, 0, 0, 8), 1.0, 1.0),
        (ConfusionCounts(2, 3, 1, 4), 0.6, 0.5),
        (ConfusionCounts(7, 2, 5, 6), 0.65, 2.0 / 3.0),
    ]
    for counts, accuracy, f1 in cases:
        m = metrics(counts)
        assert abs(m.accuracy - accuracy) <= 1e-12
        assert abs(m.f1 - f1) <= 1e-12
    rng = np.random.default_rng(5)
    x = io.Raster(
        origin_x=0,
        origin_y=0,
        pixel_size=30.0,
        values=(rng.random((20, 20)) < 0.4).astype(float),
    )
    m = metrics(confusion(x, x))
    assert (m.accuracy, m.f1) == (1.0, 1.0)
    ok(6, "accuracy/F1 match 5 hand-computed confusion fixtures at 1e-12; self comparison is (1, 1)")


def test_criterion_7_pipeline_beats_uniform_baseline():
    wins = 0
    for seed in range(30):
        spec = synth.ScenarioSpec(
            seed=7000 + seed,
            extent=BBox(0.0, 0.0, 1920.0, 1920.0),
            n_units=8,
            n_poi_clusters=2,
            pixel_size=15.0,
        )
        truth = synth.generate(spec)
        tile_mask = compute_tile_mask(truth.grid, truth.pois, 500.0, 5)
        est, _ = run_disaggregation(truth.mask, truth.grid, truth.units, tile_mask)
        proposed = synth.score(est, truth)
        uniform = synth.score(allocate_uniform(truth.grid, truth.units), truth)
        assert proposed.total_error <= 1e-9 * max(truth.total_population(), 1.0)
        if proposed.mae < uniform.mae:
            wins += 1
    assert wins >= 27, f"pipeline beat the uniform baseline in only {wins}/30 scenarios"
    ok(7, f"per-tile MAE below uniform baseline in {wins}/30 scenarios")


def test_criterion_8_performance_and_byte_identical_outputs(tmp_path):
    spec = synth.ScenarioSpec(
        seed=8001,
        extent=BBox(0.0, 0.0, 15360.0, 15360.0),  # 512 x 512 tiles, 1024 x 1024 pixels
        n_units=500,
        n_poi_clusters=720,
        poi_cluster_size_range=(10, 18),
        pixel_size=15.0,
        n_scattered_pois=400,
    )
    truth = synth.generate(spec)
    assert truth.mask.values.shape == (1024, 1024)
    assert len(truth.units) == 500
    assert len(truth.pois) >= 10_000
    sdir = tmp_path / "scenario"
    synth.write_scenario(truth, sdir)
    runs = []
    for label in ("a", "b", "c"):
        out = tmp_path / label
        t0 = time.perf_counter()
        rc = main(
            [
                "run",
                "--admin",
                str(sdir / "admin.geojson"),
                "--poi",
                str(sdir / "poi.geojson"),
                "--mask",
                str(sdir / "mask.asc"),
                "--out",
                str(out),
                "--origin-x",
                "0",
                "--origin-y",
                "0",
                "--n-cols",
                "512",
                "--n-rows",
                "512",
            ]
        )
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 10.0, f"run {label} took {elapsed:.1f}s"
        runs.append((label, elapsed, out))
    for name in ("population.asc", "tile_mask.asc", "report.json"):
        blobs = {(out / name).read_bytes() for _, _, out in runs}
        assert len(blobs) == 1, f"{name} differs across reruns"
    ok(
        8,
        "1024x1024-pixel run with 500 units and 10k+ POIs finished in "
        + ", ".join(f"{e:.1f}s" for _, e, _ in runs)
        + "; outputs byte-identical across reruns",
    )


def test_criterion_9_round_trips_and_fuzz_rejection(tmp_path):
    # integer raster: bit-exact
    r = io.read_ascii_grid(DATA / "mask.asc")
    p = tmp_path / "mask_rt.asc"
    io.write_ascii_grid(r, p)
    r2 = io.read_ascii_grid(p)
    assert np.array_equal(r.values, r2.values) and np.array_equal(r.nodata, r2.nodata)
    assert (r.origin_x, r.origin_y, r.pixel_size) == (r2.origin_x, r2.origin_y, r2.pixel_size)

    # real-valued grids: round-trip well inside 1e-9 (bit-exact by construction)
    rng = np.random.default_rng(99)
    truth = synth.generate(synth.ScenarioSpec(seed=99, extent=BBox(0, 0, 960, 960), n_units=4))
    pop = truth.tile_population()
    pp = tmp_path / "pop_rt.asc"
    io.write_ascii_grid(pop, pp)
    back = io.population_grid_from_raster(io.read_ascii_grid(pp))
    assert np.all(np.abs(back.values - pop.values) <= 1e-9 * np.maximum(np.abs(pop.values), 1.0))
    assert np.array_equal(back.values, pop.values)

    # GeoJSON round trip
    units = io.read_admin_units(DATA / "admin.geojson")
    ap = tmp_path / "admin_rt.geojson"
    io.write_admin_units(units, ap)
    units2 = io.read_admin_units(ap)
    for a, b in zip(units, units2):
        assert a.id == b.id and a.population == b.population
        assert a.geometry[0].exterior == b.geometry[0].exterior

    # schema-mutation fuzzing: every mutation rejected with the contracted class
    admin_base = json.loads((DATA / "admin.geojson").read_text())
    fuzz_cases = [
        (lambda d: d["features"][0]["properties"].pop("population"), SchemaError),
        (lambda d: d["features"][0]["properties"].pop("id"), SchemaError),
        (lambda d: d["features"][0]["properties"].update(population=-3), ValidationError),
        (lambda d: d["features"][1]["properties"].update(level="tehsil"), LevelMismatchError),
        (lambda d: d["features"][0].update(geometry={"type": "Point", "coordinates": [1, 2]}), SchemaError),
        (lambda d: d["features"][0]["geometry"].update(coordinates=[[[0, 0], [1, 1]]]), GeometryError),
    ]
    for mutate, expected in fuzz_cases:
        doc = json.loads(json.dumps(admin_base))
        mutate(doc)
        q = tmp_path / "fuzz.geojson"
        q.write_text(json.dumps(doc))
        with pytest.raises(expected):
            io.read_admin_units(q)
    bad_json = tmp_path / "trunc.geojson"
    bad_json.write_text(json.dumps(admin_base)[:-20])
    with pytest.raises(ParseError):
        io.read_admin_units(bad_json)

    mask_base = (DATA / "mask.asc").read_text()
    mask_cases = [
        (mask_base.replace("NODATA_VALUE -9999\n", ""), FormatError),
        (mask_base.replace("NROWS 8", "NROWS x"), FormatError),
        ("\n".join(mask_base.splitlines()[:-1]) + "\n", TruncationError),
        (mask_base + "1 1\n", TruncationError),
    ]
    for text, expected in mask_cases:
        q = tmp_path / "fuzz.asc"
        q.write_text(text)
        with pytest.raises(expected):
            io.read_ascii_grid(q)

    poi_base = (DATA / "poi.csv").read_text()
    q = tmp_path / "fuzz.csv"
    q.write_text(poi_base.replace("45.0,45.0", "x,45.0"))
    with pytest.raises(ValidationError):
        io.read_poi(q)
    q.write_text(poi_base.replace("x,y,category", "a,b,c"))
    with pytest.raises(SchemaError):
        io.read_poi(q)

    ok(9, "ASCII/GeoJSON round trips are bit-exact; all schema mutations rejected with typed errors")
