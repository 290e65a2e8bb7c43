from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popgrid import poi_filter
from popgrid.errors import ParameterError, ValidationError
from popgrid.geo import Point, TileGrid
from popgrid.poi_filter import PoiSet, buffer_count, compute_tile_mask


def make_set(coords) -> PoiSet:
    return PoiSet([x for x, _ in coords], [y for _, y in coords])


def locations(pois: PoiSet) -> list[tuple[float, float]]:
    return list(zip(pois.xs.tolist(), pois.ys.tolist()))


def brute_counts(pois: PoiSet, radius: float) -> np.ndarray:
    """O(n^2) pairwise counting with the same closed-disc predicate."""
    pts = locations(pois)
    n = len(pts)
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        xi, yi = pts[i]
        for j in range(n):
            dx = pts[j][0] - xi
            dy = pts[j][1] - yi
            if dx * dx + dy * dy <= radius * radius:
                counts[i] += 1
    return counts


def brute_dense_mask(grid: TileGrid, pois: PoiSet, radius: float, threshold: int) -> np.ndarray:
    counts = brute_counts(pois, radius)
    retained = np.ones((grid.n_rows, grid.n_cols), dtype=bool)
    for i, (x, y) in enumerate(locations(pois)):
        if counts[i] >= threshold:
            idx = grid.tile_index_of(Point(x, y))
            if idx is not None:
                retained[idx[1], idx[0]] = False
    return retained


def random_poi_set(rng: np.random.Generator, n: int, span: float = 5000.0) -> PoiSet:
    """Mixture of uniform noise and tight clusters."""
    coords = []
    n_clustered = n // 2
    while len(coords) < n_clustered:
        cx, cy = rng.uniform(0, span, 2)
        size = int(rng.integers(2, 12))
        for _ in range(min(size, n_clustered - len(coords))):
            r = rng.uniform(0, 300)
            a = rng.uniform(0, 2 * np.pi)
            coords.append((cx + r * np.cos(a), cy + r * np.sin(a)))
    while len(coords) < n:
        coords.append(tuple(rng.uniform(0, span, 2)))
    return make_set(coords)


class TestPoiSet:
    @pytest.mark.parametrize(
        "bad",
        ["1", True, None, math.nan, math.inf, -math.inf, 10**400, np.float64("nan")],
        ids=["str", "bool", "none", "nan", "inf", "-inf", "overflow", "numpy-nan"],
    )
    def test_refuses_what_point_refuses(self, bad):
        for xs, ys in (([0.0, bad], [0.0, 1.0]), ([0.0, 1.0], [1.0, bad]), ([bad, 0.0], [bad, 1.0])):
            with pytest.raises(ValidationError) as want:
                for x, y in zip(xs, ys):
                    Point(x, y)
            with pytest.raises(ValidationError) as got:
                PoiSet(xs, ys)
            assert str(got.value) == str(want.value)
        if isinstance(bad, float):  # a float64 array takes the no-copy path
            with pytest.raises(ValidationError, match=r"Point\.y must be a finite real number"):
                PoiSet(np.zeros(3), np.array([0.0, bad, 0.0]))

    def test_refuses_mismatched_lengths(self):
        with pytest.raises(ValidationError, match="differ in length"):
            PoiSet([0.0, 1.0], [0.0])
        with pytest.raises(ValidationError, match="1 categories for 2 POIs"):
            PoiSet([0.0, 1.0], [0.0, 1.0], ["shop"])

    def test_arrays_are_read_only_copies(self):
        xs = np.array([1.0, 2.0])
        pois = PoiSet(xs, [3.0, 4.0], ["a", "b"])
        xs[0] = 9.0
        assert pois.xs.tolist() == [1.0, 2.0] and pois.categories == ("a", "b")
        with pytest.raises(ValueError):
            pois.ys[0] = 0.0
        assert PoiSet([1, 2], [3, 4]).categories == ("", "")


class TestBufferCount:
    def test_tight_cluster_counts_all(self):
        rng = np.random.default_rng(5)
        center = (1000.0, 1000.0)
        coords = [
            (center[0] + r * np.cos(a), center[1] + r * np.sin(a))
            for r, a in zip(rng.uniform(0, 50, 5), rng.uniform(0, 2 * np.pi, 5))
        ]
        pois = make_set(coords)
        expected = brute_counts(pois, 500.0)
        assert expected.tolist() == [5] * 5
        for x, y in locations(pois):
            assert buffer_count(pois, Point(x, y), 500.0) == 5

    def test_isolated_poi_counts_itself(self):
        pois = make_set([(10.0, 10.0)])
        assert buffer_count(pois, Point(10.0, 10.0), 500.0) == 1

    def test_empty_set(self):
        pois = make_set([])
        assert buffer_count(pois, Point(0, 0), 500.0) == 0

    def test_tie_at_exact_radius_included(self):
        pois = make_set([(0.0, 0.0), (500.0, 0.0)])
        assert buffer_count(pois, Point(0, 0), 500.0) == 2

    def test_bad_radius(self):
        pois = make_set([(0.0, 0.0)])
        with pytest.raises(ParameterError):
            buffer_count(pois, Point(0, 0), 0.0)
        with pytest.raises(ParameterError):
            buffer_count(pois, Point(0, 0), -1.0)


class TestDensePois:
    def test_cluster_all_dense(self):
        rng = np.random.default_rng(6)
        coords = [(100 + float(rng.uniform(0, 40)), 100 + float(rng.uniform(0, 40))) for _ in range(5)]
        pois = make_set(coords)
        assert pois.dense(500.0, 5).tolist() == [True] * 5

    def test_threshold_one_returns_all(self):
        pois = make_set([(0, 0), (5000, 0), (0, 5000)])
        assert pois.dense(500.0, 1).tolist() == [True] * 3

    def test_threshold_above_size_returns_none(self):
        pois = make_set([(0, 0), (1, 1), (2, 2)])
        assert pois.dense(500.0, 4).tolist() == [False] * 3

    def test_bad_threshold(self):
        pois = make_set([(0, 0)])
        with pytest.raises(ParameterError):
            pois.dense(500.0, 0)

    def test_index_matches_brute_force(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            pois = random_poi_set(rng, 600)
            counts = brute_counts(pois, 400.0)
            expect = {i for i in range(len(pois)) if counts[i] >= 4}
            got = set(np.flatnonzero(pois.dense(400.0, 4)).tolist())
            assert got == expect

    def test_index_query_equals_linear_scan(self):
        rng = np.random.default_rng(12)
        pois = random_poi_set(rng, 300, span=2000.0)
        xs, ys = pois.xs, pois.ys
        for _ in range(50):
            qx, qy = rng.uniform(-200, 2200, 2)
            radius = float(rng.uniform(1, 900))
            dx = xs - qx
            dy = ys - qy
            linear = np.flatnonzero(dx * dx + dy * dy <= radius * radius)
            assert np.flatnonzero(pois._within(qx, qy, radius)).tolist() == linear.tolist()
            assert pois.count_within(qx, qy, radius) == linear.size


class TestComputeTileMask:
    grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=20, n_rows=20, tile_size=30.0)

    def test_no_pois_all_retained(self):
        mask = compute_tile_mask(self.grid, make_set([]), 500.0, 5)
        assert mask.retained.all()
        assert mask.n_excluded == 0

    def test_cluster_in_one_tile_excludes_exactly_it(self):
        # five POIs inside tile (3, 4): x in [90,120), y in [120,150)
        coords = [(95.0 + i, 125.0 + i) for i in range(5)]
        pois = make_set(coords)
        mask = compute_tile_mask(self.grid, pois, 500.0, 5)
        assert np.array_equal(mask.retained, brute_dense_mask(self.grid, pois, 500.0, 5))
        assert mask.n_excluded == 1
        assert not mask.retained[4, 3]

    def test_isolated_poi_keeps_tile(self):
        pois = make_set([(95.0, 125.0)])
        mask = compute_tile_mask(self.grid, pois, 500.0, 5)
        assert mask.retained.all()

    def test_outside_poi_contributes_but_never_marks(self):
        # four POIs outside the grid push the single inside POI over threshold
        inside = (15.0, 15.0)
        outside = [(-50.0, 15.0), (-60.0, 20.0), (-55.0, 10.0), (-45.0, 25.0)]
        pois = make_set([inside] + outside)
        mask = compute_tile_mask(self.grid, pois, 500.0, 5)
        assert not mask.retained[0, 0]  # inside POI is dense
        assert mask.n_excluded == 1  # outside POIs never mark tiles

    def test_idempotent_and_deterministic(self):
        rng = np.random.default_rng(8)
        pois = random_poi_set(rng, 400, span=600.0)
        a = compute_tile_mask(self.grid, pois, 500.0, 5)
        b = compute_tile_mask(self.grid, pois, 500.0, 5)
        assert np.array_equal(a.retained, b.retained)

    def test_matches_brute_force_on_random_sets(self):
        for seed in (21, 22):
            rng = np.random.default_rng(seed)
            pois = random_poi_set(rng, 500, span=600.0)
            mask = compute_tile_mask(self.grid, pois, 350.0, 4)
            assert np.array_equal(mask.retained, brute_dense_mask(self.grid, pois, 350.0, 4))

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(31)
        pois = random_poi_set(rng, 300, span=600.0)
        excluded = []
        for radius in (100.0, 300.0, 700.0):
            mask = compute_tile_mask(self.grid, pois, radius, 4)
            excluded.append(set(mask.excluded_flat().tolist()))
        assert excluded[0] <= excluded[1] <= excluded[2]

    def test_antimonotone_in_threshold(self):
        rng = np.random.default_rng(32)
        pois = random_poi_set(rng, 300, span=600.0)
        excluded = []
        for threshold in (2, 4, 8):
            mask = compute_tile_mask(self.grid, pois, 400.0, threshold)
            excluded.append(set(mask.excluded_flat().tolist()))
        assert excluded[2] <= excluded[1] <= excluded[0]


# (radius, min_x, x1, x2): x1 and x2 pass the closed-disc test, yet cells exactly
# `radius` wide indexed as floor((x - min_x) / radius) put them two cells apart.
STRADDLING = [
    (333.3, -3757187.075615207, -903472.4756152073, -903139.1756152074),
    (0.1, -981.6836990471543, 438.41630095284575, 438.5163009528457),
    (0.001, -0.5831571153158075, 3.973842884684192, 3.974842884684192),
]


def assert_counts_exact(coords, radius):
    pois = make_set(coords)
    assert pois.buffer_counts(radius).tolist() == brute_counts(pois, radius).tolist()


class TestBufferCounts:
    @pytest.mark.parametrize("radius", [500.0, 333.3, 0.1])
    @pytest.mark.parametrize("offset", [0.0, 1e7, -12345.678])
    def test_rows_exactly_radius_apart_along_x_and_y(self, radius, offset):
        row = [offset + i * radius for i in range(-20, 21)]
        assert_counts_exact([(x, offset) for x in row], radius)
        assert_counts_exact([(offset, y) for y in row], radius)
        assert_counts_exact([(x, y) for x in row[::4] for y in row[::4]], radius)

    @pytest.mark.parametrize("radius, min_x, x1, x2", STRADDLING)
    def test_pairs_that_straddle_a_cell_boundary(self, radius, min_x, x1, x2):
        dx = x2 - x1
        assert dx != radius and dx * dx <= radius * radius
        assert np.floor((x2 - min_x) / radius) - np.floor((x1 - min_x) / radius) == 2
        coords = [(min_x, 0.0), (x1, 0.0), (x2, 0.0)]
        assert_counts_exact(coords, radius)
        assert_counts_exact([(y, x) for x, y in coords], radius)

    def test_coordinates_offset_by_1e7(self):
        pois = random_poi_set(np.random.default_rng(41), 300, span=3000.0)
        coords = [(x + 1e7, y - 1e7) for x, y in locations(pois)]
        assert_counts_exact(coords, 400.0)

    def test_duplicates_and_all_identical(self):
        coords = [(0.0, 0.0), (0.0, 0.0), (500.0, 0.0), (500.0, 0.0), (900.0, 1.0)] * 3
        assert_counts_exact(coords, 500.0)
        # span 0, and 90 000 pairs in one cell: more than one block of pairs
        assert_counts_exact([(123.25, -7.5)] * 300, 500.0)

    def test_one_poi_and_empty_set(self):
        assert make_set([(5.0, 5.0)]).buffer_counts(500.0).tolist() == [1]
        counts = make_set([]).buffer_counts(500.0)
        assert counts.shape == (0,) and counts.dtype == np.int64

    def test_millimetre_radius_over_a_kilometre_span(self):
        rng = np.random.default_rng(42)
        base = rng.uniform(0, 1e6, (100, 2))
        near = base[:40] + rng.uniform(-1e-3, 1e-3, (40, 2))
        coords = [tuple(c) for c in np.vstack([base, near, base[:10] + [1e-3, 0.0]])]
        assert_counts_exact(coords, 1e-3)

    def test_radius_larger_than_span(self):
        pois = random_poi_set(np.random.default_rng(43), 60, span=100.0)
        assert pois.buffer_counts(1e4).tolist() == brute_counts(pois, 1e4).tolist() == [60] * 60

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_small_pair_blocks(self, block):
        pois = random_poi_set(np.random.default_rng(44), 150, span=800.0)
        with mock.patch.object(poi_filter, "_PAIR_BLOCK", block):
            got = pois.buffer_counts(250.0)
        assert got.tolist() == brute_counts(pois, 250.0).tolist()


# Lattice coordinates put many pairs at exactly the radius; floats fill the rest.
coord = st.one_of(
    st.integers(-24, 24).map(lambda k: k * 12.5),
    st.floats(min_value=-300.0, max_value=300.0, allow_nan=False),
)
radius_st = st.one_of(st.sampled_from([12.5, 25.0, 37.5, 100.0]), st.floats(min_value=1e-3, max_value=1000.0))


@settings(max_examples=150, deadline=None)
@given(
    coords=st.lists(st.tuples(coord, coord), max_size=40),
    offset=st.sampled_from([0.0, 1e7]),
    radius=radius_st,
    threshold=st.integers(min_value=1, max_value=6),
    block=st.sampled_from([3, 64, 2**16]),
)
def test_dense_pois_and_mask_equal_brute_force(coords, offset, radius, threshold, block):
    pois = make_set([(x + offset, y + offset) for x, y in coords])
    grid = TileGrid(origin_x=offset - 150.0, origin_y=offset - 150.0, n_cols=10, n_rows=10, tile_size=30.0)
    counts = brute_counts(pois, radius)
    with mock.patch.object(poi_filter, "_PAIR_BLOCK", block):
        dense = pois.dense(radius, threshold)
        mask = compute_tile_mask(grid, pois, radius, threshold)
    assert dense.tolist() == (counts >= threshold).tolist()
    assert np.array_equal(mask.retained, brute_dense_mask(grid, pois, radius, threshold))


def assert_dense_exact(coords, radius, threshold):
    pois = make_set(coords)
    assert pois.dense(radius, threshold).tolist() == (brute_counts(pois, radius) >= threshold).tolist()


# Two points in one certificate cell (radius / sqrt(2) wide, cell (-1, -1)):
# x / side rounds to exactly -1.0 for the first, so floor keeps it in the cell,
# yet the pair's distance exceeds the radius by 4.5e-13 in the squared test.
# Each extent alone is below the radius, so only the DX*DX + DY*DY test refuses it.
CORNER_RADIUS = 57.376371024552625
CORNER = [(-40.5712210313365, -40.5712210313365), (-1.04e-322, -1.04e-322)]
ULP_1E7 = 2.0**-29  # spacing of the floats in [2**23, 2**24)


class TestDense:
    def test_corner_pair_of_one_cell_is_not_certified(self):
        pois = make_set(CORNER)
        assert pois.buffer_counts(CORNER_RADIUS).tolist() == [1, 1]
        assert pois.dense(CORNER_RADIUS, 2).tolist() == [False, False]
        assert pois.dense(CORNER_RADIUS, 1).tolist() == [True, True]

    @pytest.mark.parametrize("threshold", [2, 3, 5])
    def test_cell_one_short_of_the_threshold(self, threshold):
        # a tight cluster of threshold - 1 points far from everything else
        cluster = [(1e7 + 0.25 * i, 1e7 - 0.5 * i) for i in range(threshold - 1)]
        assert_dense_exact(cluster + [(0.0, 0.0)], 500.0, threshold)
        assert not make_set(cluster).dense(500.0, threshold).any()

    def test_all_identical_points(self):
        for n in (1, 2, 5, 40):
            pois = make_set([(1e7, -1e7)] * n)
            for threshold in (1, n, n + 1):
                assert pois.dense(500.0, threshold).tolist() == [n >= threshold] * n

    def test_threshold_one_and_above_the_count(self):
        pois = random_poi_set(np.random.default_rng(51), 80, span=900.0)
        assert pois.dense(300.0, 1).all()
        assert not pois.dense(300.0, 81).any()
        assert not pois.dense(300.0, 10**400).any()

    @pytest.mark.parametrize("radius", [1e-200, 1e-300, 5e-324, 1e-9, 3e-9])
    def test_tiny_radius_near_1e7_keeps_float_keys(self, radius):
        # x / side is far beyond the int64 range (or inf); no warning may escape,
        # since the CLI counts any warning as "completed with warnings".
        steps = [(0, 0), (0, 0), (1, 0), (1, 1), (3, 3), (3, 3), (3, 3), (-2, 5)]
        coords = [(1e7 + i * ULP_1E7, 1e7 - j * ULP_1E7) for i, j in steps]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for threshold in (1, 2, 3, 4):
                assert_dense_exact(coords, radius, threshold)

    def test_lattice_at_1e7_with_pairs_exactly_the_radius_apart(self):
        # step radius / 2: cells hold points half a radius apart in x and y,
        # and many pairs lie exactly on the closed disc's edge
        radius = 250.0
        row = [1e7 + k * radius / 2 for k in range(-6, 7)]
        coords = [(x, y) for x in row for y in row]
        for threshold in (4, 9, 13, 14, 30):
            assert_dense_exact(coords, radius, threshold)

    def test_matches_buffer_counts_on_random_sets(self):
        for seed in (61, 62, 63):
            pois = random_poi_set(np.random.default_rng(seed), 700, span=4000.0)
            for radius, threshold in ((500.0, 5), (120.0, 3), (40.0, 2)):
                assert pois.dense(radius, threshold).tolist() == (pois.buffer_counts(radius) >= threshold).tolist()

    def test_only_undecided_points_are_pair_counted(self):
        cluster = [(100.0 + i, 200.0 + i) for i in range(6)]
        pois = make_set(cluster + [(5000.0, 5000.0)])
        seen = []
        real = PoiSet._pair_counts

        def spy(self, radius, query):
            seen.append(query.tolist())
            return real(self, radius, query)

        with mock.patch.object(PoiSet, "_pair_counts", spy):
            dense = pois.dense(500.0, 5)
        assert dense.tolist() == [True] * 6 + [False]
        assert seen == [[6]]

    def test_bad_parameters(self):
        pois = make_set([(0.0, 0.0)])
        for radius in (0.0, float("nan"), 1e200, True):
            with pytest.raises(ParameterError, match="radius"):
                pois.dense(radius, 1)
        for threshold in (0, 2.0, None, True):
            with pytest.raises(ParameterError, match="threshold"):
                pois.dense(1.0, threshold)


# Cell-corner coordinates, a 1e7 lattice of step 12.5 and random floats.
dense_coord = st.one_of(
    st.integers(-24, 24).map(lambda k: k * 12.5),
    st.sampled_from([c for xy in CORNER for c in xy]),
    st.floats(min_value=-300.0, max_value=300.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    coords=st.lists(st.tuples(dense_coord, dense_coord), max_size=40),
    repeat=st.integers(min_value=1, max_value=3),
    offset=st.sampled_from([0.0, 1e7]),
    radius=st.one_of(radius_st, st.sampled_from([CORNER_RADIUS, 25.0 * 2**0.5])),
    threshold=st.integers(min_value=1, max_value=50),
)
def test_dense_and_mask_equal_brute_force(coords, repeat, offset, radius, threshold):
    pois = make_set([(x + offset, y + offset) for x, y in coords] * repeat)
    grid = TileGrid(origin_x=offset - 150.0, origin_y=offset - 150.0, n_cols=10, n_rows=10, tile_size=30.0)
    expect = brute_counts(pois, radius) >= threshold
    assert pois.dense(radius, threshold).tolist() == expect.tolist()
    mask = compute_tile_mask(grid, pois, radius, threshold)
    assert np.array_equal(mask.retained, brute_dense_mask(grid, pois, radius, threshold))


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=30),
    radius=st.sampled_from([1e-200, 1e-300, 5e-324, ULP_1E7, 2.5 * ULP_1E7]),
    threshold=st.integers(min_value=1, max_value=8),
)
def test_dense_at_tiny_radii_near_1e7_equals_brute_force(steps, radius, threshold):
    coords = [(1e7 + i * ULP_1E7, -1e7 + j * ULP_1E7) for i, j in steps]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_dense_exact(coords, radius, threshold)


class TestParameterValidation:
    pois = make_set([(0.0, 0.0), (1.0, 1.0)])
    grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=2, n_rows=2, tile_size=30.0)

    @pytest.mark.parametrize("radius", [True, "500", None, float("nan"), float("inf"), 0, -5.0, 1e200])
    def test_bad_radius(self, radius):
        calls = [
            lambda: buffer_count(self.pois, Point(0, 0), radius),
            lambda: self.pois.dense(radius, 5),
            lambda: compute_tile_mask(self.grid, self.pois, radius, 5),
            lambda: self.pois.buffer_counts(radius),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match="radius"):
                call()

    def test_radius_beyond_float_range(self):
        with pytest.raises(ParameterError, match="radius"):
            self.pois.dense(10**310, 5)
        with pytest.raises(ParameterError, match="radius"):
            self.pois.buffer_counts(-(10**400))

    def test_missing_threshold(self):
        with pytest.raises(ParameterError, match="threshold"):
            self.pois.dense(500.0, None)

    @pytest.mark.parametrize("threshold", [True, 2.5, 5.0, "5", 0, -1])
    def test_bad_threshold(self, threshold):
        with pytest.raises(ParameterError, match="threshold"):
            self.pois.dense(500.0, threshold)
        with pytest.raises(ParameterError, match="threshold"):
            compute_tile_mask(self.grid, self.pois, 500.0, threshold)

    def test_numpy_scalars_accepted(self):
        mask = compute_tile_mask(self.grid, self.pois, np.float64(500.0), np.int64(2))
        assert mask.n_excluded == 1
        assert buffer_count(self.pois, Point(0, 0), np.float32(2.0)) == 2
