from __future__ import annotations

import json
import math
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from popgrid import io
from popgrid.errors import (
    ConfigurationError,
    FormatError,
    GeometryError,
    HeaderOrderWarning,
    LevelMismatchError,
    ParseError,
    PopgridError,
    SchemaError,
    TruncationError,
    ValidationError,
)
from popgrid.geo import Polygon, TileGrid, rectangle
from popgrid.poi_filter import PoiSet, TileMask

# rings whose shoelace area overflows float64: a 1e200 m square, and a sliver
# whose one large coordinate meets a nonzero x
_OVERFLOWING_SQUARE = [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200], [0, 0]]
_OVERFLOWING_SLIVER = [[0, 0], [0, 0], [0, 1.7976931348623157e308], [2, 0]]


class TestReadAdminUnits:
    def test_golden(self, data_dir):
        units = io.read_admin_units(data_dir / "admin.geojson", expected_level="circle")
        assert [u.id for u in units] == ["c1", "c2"]
        assert units[0].population == 100.0
        assert units[0].level == io.AdminLevel.CIRCLE
        assert units[0].bbox.max_x == 120.0

    def test_missing_population_names_feature(self, tmp_path, data_dir):
        doc = json.loads((data_dir / "admin.geojson").read_text())
        del doc["features"][1]["properties"]["population"]
        p = tmp_path / "a.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="c2"):
            io.read_admin_units(p)

    @pytest.mark.parametrize("raw_id, fid", [("c7", "c7"), (7, "7"), (-(10**30), str(-(10**30)))])
    def test_id_is_a_string_or_an_integer(self, tmp_path, data_dir, raw_id, fid):
        doc = json.loads((data_dir / "admin.geojson").read_text())
        doc["features"][0]["properties"]["id"] = raw_id
        p = tmp_path / "a.geojson"
        p.write_text(json.dumps(doc))
        assert io.read_admin_units(p)[0].id == fid

    @pytest.mark.parametrize(
        "rings, message",
        [
            ([[]], "exterior ring needs at least 3 distinct vertices, got 0"),
            ([[[0, 0], [1, 1], [0, 0], [1, 1]]], "exterior ring needs at least 3 distinct vertices, got 2"),
            ([[[0, 0], [-0.0, 0.0], [0, -0.0], [1, 1]]], "exterior ring needs at least 3 distinct vertices, got 2"),
            ([[[0, 0], [1, 1], [2, 2], [0, 0]]], "exterior ring has zero area"),
            (
                [[[0, 0], [9, 0], [9, 9], [0, 9]], [[1, 1], [1, 1]]],
                "hole ring 0 needs at least 3 distinct vertices, got 1",
            ),
            ([[[0, 0], [9, 0], [9, 9], [0, 9]], [[1, 1], [2, 2], [3, 3]]], "hole ring 0 has zero area"),
            # a RuntimeWarning would be raised (pyproject's filterwarnings) in place of the GeometryError
            ([_OVERFLOWING_SQUARE], "exterior ring has an area that is not finite: its coordinates are too large"),
            ([_OVERFLOWING_SLIVER], "exterior ring has an area that is not finite: its coordinates are too large"),
        ],
    )
    def test_ring_error_names_the_feature(self, tmp_path, data_dir, rings, message):
        doc = json.loads((data_dir / "admin.geojson").read_text())
        doc["features"][1]["geometry"]["coordinates"] = rings
        p = tmp_path / "a.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(GeometryError) as e:
            io.read_admin_units(p)
        assert str(e.value) == f"{p}: feature 'c2': {message}"

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.geojson"
        p.write_text('{"type": "FeatureCollection",\n  "features": [}')
        with pytest.raises(ParseError, match="line 2"):
            io.read_admin_units(p)

    def test_mixed_levels(self, tmp_path, data_dir):
        doc = json.loads((data_dir / "admin.geojson").read_text())
        doc["features"][1]["properties"]["level"] = "tehsil"
        p = tmp_path / "a.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(LevelMismatchError):
            io.read_admin_units(p)

    def test_expected_level_mismatch(self, data_dir):
        with pytest.raises(LevelMismatchError):
            io.read_admin_units(data_dir / "admin.geojson", expected_level="block")

    def test_negative_population(self, tmp_path, data_dir):
        doc = json.loads((data_dir / "admin.geojson").read_text())
        doc["features"][0]["properties"]["population"] = -5
        p = tmp_path / "a.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            io.read_admin_units(p)

    @pytest.mark.parametrize(
        "population", [True, "1e3", 10**400, math.nan, -1.0], ids=["bool", "str", "overflow", "nan", "negative"]
    )
    def test_admin_unit_refuses_what_as_real_refuses(self, population):
        with pytest.raises(ValidationError, match="invalid population"):
            io.AdminUnit(id="a", level=io.AdminLevel.CIRCLE, geometry=(rectangle(0, 0, 1, 1),), population=population)

    def test_duplicate_id(self, tmp_path, data_dir):
        doc = json.loads((data_dir / "admin.geojson").read_text())
        doc["features"][1]["properties"]["id"] = "c1"
        p = tmp_path / "a.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="duplicate"):
            io.read_admin_units(p)

    def test_declared_degrees_rejected(self, tmp_path, data_dir):
        doc = json.loads((data_dir / "admin.geojson").read_text())
        doc["coordinate_units"] = "EPSG:4326"
        p = tmp_path / "a.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="declared as geographic degrees"):
            io.read_admin_units(p)

    def test_require_projected_keeps_declared_degrees_a_validation_error(self, tmp_path, data_dir):
        # declared degrees are a ValidationError, not the ConfigurationError
        # that undeclared degree-like coordinates get
        doc = json.loads((data_dir / "admin.geojson").read_text())
        doc["coordinate_units"] = "WGS84 degrees"
        p = tmp_path / "a.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="declared as geographic degrees"):
            io.read_admin_units(p)

    def test_degree_like_coordinates_rejected(self, tmp_path, data_dir):
        ring = [[74.0, 31.0], [74.5, 31.0], [74.5, 31.5], [74.0, 31.5], [74.0, 31.0]]
        feature = {
            "type": "Feature",
            "properties": {"id": "d1", "level": "circle", "population": 10},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        }
        doc = {"type": "FeatureCollection", "features": [feature]}
        p = tmp_path / "degrees.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError) as err:
            io.read_admin_units(p)
        assert str(err.value) == (
            f"{p}: coordinates fit inside longitude/latitude ranges and the file "
            "does not declare coordinate_units 'meters'; reproject to a planar meter CRS "
            "(or add the declaration) before running"
        )
        for members in ({"coordinate_units": "meters"}, {"crs": {"type": "name", "properties": {"name": "UTM 43N"}}}):
            p.write_text(json.dumps({**doc, **members}))
            assert len(io.read_admin_units(p)) == 1
        # a collection with no units has no coordinates to judge
        p.write_text(json.dumps({**doc, "features": []}))
        assert io.read_admin_units(p) == []

    def test_multipolygon(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "coordinate_units": "meters",  # the parts fit inside lon/lat ranges
            "features": [
                {
                    "type": "Feature",
                    "properties": {"id": "m1", "level": "circle", "population": 7},
                    "geometry": {
                        "type": "MultiPolygon",
                        "coordinates": [
                            [[[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]],
                            [[[20, 0], [30, 0], [30, 10], [20, 10], [20, 0]]],
                        ],
                    },
                }
            ],
        }
        p = tmp_path / "m.geojson"
        p.write_text(json.dumps(doc))
        (unit,) = io.read_admin_units(p)
        assert len(unit.geometry) == 2
        assert unit.bbox.max_x == 30.0

    def test_city_scale_dataset_accepted(self, tmp_path):
        # a few hundred circle polygons, the size class of a real district
        features = []
        for k in range(867):
            x0 = float((k % 30) * 100)
            y0 = float((k // 30) * 100)
            features.append(
                {
                    "type": "Feature",
                    "properties": {"id": f"circle-{k}", "level": "circle", "population": 1000 + k},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [
                            [[x0, y0], [x0 + 100, y0], [x0 + 100, y0 + 100], [x0, y0 + 100], [x0, y0]]
                        ],
                    },
                }
            )
        p = tmp_path / "city.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        units = io.read_admin_units(p, expected_level="circle")
        assert len(units) == 867
        assert all(u.level == io.AdminLevel.CIRCLE for u in units)

    def test_round_trip_exact(self, tmp_path, data_dir):
        units = io.read_admin_units(data_dir / "admin.geojson")
        p = tmp_path / "rt.geojson"
        io.write_admin_units(units, p)
        back = io.read_admin_units(p)
        assert len(back) == len(units)
        for a, b in zip(units, back):
            assert a.id == b.id and a.population == b.population and a.level == b.level
            for ga, gb in zip(a.geometry, b.geometry):
                assert ga.exterior == gb.exterior
                assert ga.holes == gb.holes


class TestReadPoi:
    def test_csv(self, data_dir):
        pois = io.read_poi(data_dir / "poi.csv")
        assert len(pois) == 3
        assert pois.xs[0] == 45.0
        assert pois.categories[1] == "school"

    def test_geojson(self, data_dir):
        pois = io.read_poi(data_dir / "poi.geojson")
        assert len(pois) == 3
        assert pois.categories[2] == ""

    def test_empty_feature_collection(self, tmp_path):
        p = tmp_path / "e.geojson"
        p.write_text('{"type": "FeatureCollection", "features": []}')
        assert len(io.read_poi(p)) == 0

    def test_header_only_csv(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("x,y,category\n")
        assert len(io.read_poi(p)) == 0

    def test_bad_coordinate_row(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("x,y,category\nabc,4,shop\n")
        with pytest.raises(ValidationError, match="row 1"):
            io.read_poi(p)

    def test_non_point_geometry(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {},
                    "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
                }
            ],
        }
        p = tmp_path / "l.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            io.read_poi(p)

    def test_bad_csv_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("lon,lat\n1,2\n")
        with pytest.raises(SchemaError):
            io.read_poi(p)

    def test_the_earlier_of_two_faults_is_reported(self, tmp_path):
        point = {"type": "Feature", "properties": {}, "geometry": {"type": "Point", "coordinates": ["1", 2.0]}}
        line = {"type": "Feature", "properties": {}, "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]}}
        p = tmp_path / "two.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": [point, line]}))
        with pytest.raises(ValidationError) as e:
            io.read_poi(p)
        assert str(e.value) == f"{p}: feature #0: Point.x must be a finite real number, got '1'"
        # a bad coordinate, then a vertex too short to be one, in one ring
        ring = [[0, 0], [10, 0], [10, True], [5], [0, 10]]
        unit = {"properties": {"id": "a", "level": "circle", "population": 1}, "type": "Feature"}
        unit["geometry"] = {"type": "Polygon", "coordinates": [ring]}
        p.write_text(json.dumps({"type": "FeatureCollection", "features": [unit]}))
        with pytest.raises(ValidationError) as e:
            io.read_admin_units(p)
        assert str(e.value) == f"{p}: feature 'a': Point.y must be a finite real number, got True"

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6).filter(lambda c: c == c.strip()),
            ),
            max_size=12,
        )
    )
    def test_write_then_read_is_bit_identical(self, tmp_path_factory, points):
        pois = PoiSet([x for x, _, _ in points], [y for _, y, _ in points], [c for _, _, c in points])
        d = tmp_path_factory.mktemp("poi")
        io.write_poi_csv(pois, d / "p.csv")
        io.write_poi_geojson(pois, d / "p.geojson")
        for back in (io.read_poi(d / "p.csv"), io.read_poi(d / "p.geojson")):
            assert back.xs.tobytes() == pois.xs.tobytes() and back.ys.tobytes() == pois.ys.tobytes()
            assert back.categories == pois.categories

    def test_csv_round_trip(self, tmp_path, data_dir):
        pois = io.read_poi(data_dir / "poi.csv")
        p = tmp_path / "rt.csv"
        io.write_poi_csv(pois, p)
        back = io.read_poi(p)
        assert back.xs.tobytes() == pois.xs.tobytes() and back.ys.tobytes() == pois.ys.tobytes()
        assert back.categories == pois.categories


# JSON numbers a position may hold, each kind the float64 conversion meets:
# ints past 2**53 and past the float range, -0.0, subnormals
_json_numbers = st.one_of(
    st.floats(-1e6, 1e6),
    st.integers(1, 1100).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308]),
)
# JSON values a coordinate must not be
_json_refused = st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "1", "x", [], [1, 2], {"a": 1}])
_coordinates = st.integers(0, 49).flatmap(lambda k: _json_refused if k == 0 else _json_numbers)


@st.composite
def json_positions(draw):
    """A GeoJSON position, most often [x, y]; now and then 1 or 3 values
    long, or not an array at all."""
    kind = draw(st.integers(0, 49))
    if kind == 0:
        return draw(_coordinates)
    size = {1: 1, 2: 3}.get(kind, 2)
    return draw(st.lists(_coordinates, min_size=size, max_size=size))


def outcome(call):
    """What ``call()`` gives: its value, or the type and text of its error."""
    try:
        return call()
    except PopgridError as e:
        return type(e), str(e)


def ring_bytes(polygons) -> list[bytes]:
    return [a.tobytes() for poly in polygons for ring in poly.rings for a in ring]


class TestBulkIngest:
    """Both GeoJSON readers check a position column in bulk; they accept what
    ``_coord_pair`` accepts, giving the same bits, and refuse with its error
    for the first refused position."""

    @settings(max_examples=150, deadline=None)
    @given(rings=st.lists(st.lists(json_positions(), max_size=6), min_size=1, max_size=2))
    @example(rings=[_OVERFLOWING_SQUARE])
    @example(rings=[_OVERFLOWING_SLIVER])
    def test_admin_rings_match_the_per_position_reference(self, tmp_path_factory, rings):
        unit = {"type": "Feature", "properties": {"id": "u", "level": "circle", "population": 1}}
        unit["geometry"] = {"type": "Polygon", "coordinates": rings}
        p = tmp_path_factory.mktemp("admin") / "a.geojson"
        # meters declared: a small random ring would otherwise fit lon/lat ranges
        doc = {"type": "FeatureCollection", "coordinate_units": "meters", "features": [unit]}
        p.write_text(json.dumps(doc))
        where = f"{p}: feature 'u'"

        def build():
            pairs = [[io._coord_pair(v, where) for v in ring] for ring in json.loads(json.dumps(rings))]
            try:
                return [Polygon(pairs[0], pairs[1:])]
            except GeometryError as e:
                raise GeometryError(f"{where}: {e}") from None

        got = outcome(lambda: io.read_admin_units(p))
        expected = outcome(build)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert not isinstance(got, tuple), got
            assert ring_bytes(got[0].geometry) == ring_bytes(expected)

    @settings(max_examples=150, deadline=None)
    @given(positions=st.lists(json_positions(), max_size=6))
    def test_poi_columns_match_the_per_position_reference(self, tmp_path_factory, positions):
        features = [
            {"type": "Feature", "properties": {"category": "c"}, "geometry": {"type": "Point", "coordinates": v}}
            for v in positions
        ]
        p = tmp_path_factory.mktemp("poi") / "p.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": features}))

        def build():
            pairs = [io._coord_pair(v, f"{p}: feature #{i}") for i, v in enumerate(json.loads(json.dumps(positions)))]
            return np.array(pairs, dtype=np.float64).reshape(-1, 2)

        got = outcome(lambda: io.read_poi(p))
        expected = outcome(build)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert not isinstance(got, tuple), got
            assert got.xs.tobytes() == expected[:, 0].tobytes() and got.ys.tobytes() == expected[:, 1].tobytes()
            assert got.categories == ("c",) * len(positions)

    @pytest.mark.parametrize(
        "first, second, error, message",
        [
            ("coordinate", "geometry", ValidationError, "Point.x must be a finite real number, got '1'"),
            ("geometry", "coordinate", SchemaError, "POI geometry must be Point, got 'LineString'"),
            ("properties", "coordinate", SchemaError, "properties must be an object or null, got []"),
            ("category", "geometry", SchemaError, "category must be a string or null, got 5"),
        ],
    )
    def test_the_earlier_of_two_poi_faults_is_reported(self, tmp_path, first, second, error, message):
        faults = {
            "coordinate": lambda f: f["geometry"].update(coordinates=["1", 2.0]),
            "geometry": lambda f: f["geometry"].update(type="LineString"),
            "properties": lambda f: f.update(properties=[]),
            "category": lambda f: f["properties"].update(category=5),
        }
        features = [
            {"type": "Feature", "properties": {"category": "c"}, "geometry": {"type": "Point", "coordinates": [i, i]}}
            for i in range(10)
        ]
        faults[first](features[3])
        faults[second](features[7])
        p = tmp_path / "two.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        with pytest.raises(error) as e:
            io.read_poi(p)
        assert str(e.value) == f"{p}: feature #3: {message}"

    def test_the_earlier_of_two_ring_faults_is_reported(self, tmp_path):
        exterior = [[0, 0], [90, 0], [True, 90], [0, 90]]
        hole = [[10, 10], ["x", 10], [20, 20]]
        unit = {"type": "Feature", "properties": {"id": "a", "level": "circle", "population": 1}}
        unit["geometry"] = {"type": "Polygon", "coordinates": [exterior, hole]}
        p = tmp_path / "two.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": [unit]}))
        with pytest.raises(ValidationError) as e:
            io.read_admin_units(p)
        assert str(e.value) == f"{p}: feature 'a': Point.x must be a finite real number, got True"
        exterior[2] = [90, 90]
        p.write_text(json.dumps({"type": "FeatureCollection", "features": [unit]}))
        with pytest.raises(ValidationError) as e:
            io.read_admin_units(p)
        assert str(e.value) == f"{p}: feature 'a': Point.x must be a finite real number, got 'x'"

    def test_the_bulk_check_alone_accepts_the_golden_files(self, data_dir, monkeypatch):
        def refuse(value, where):
            raise AssertionError(f"{where}: {value!r} went through the per-position check")

        monkeypatch.setattr(io, "_coord_pair", refuse)
        readers = {"admin.geojson": io.read_admin_units, "poi.geojson": io.read_poi}
        paths = sorted(data_dir.glob("*.geojson"))
        assert [path.name for path in paths] == sorted(readers)
        for path in paths:
            assert len(readers[path.name](path)) > 0

    @pytest.mark.parametrize("properties", [None, {}, {"category": None}, {"category": ""}])
    def test_poi_without_a_category_reads_as_empty(self, tmp_path, properties):
        feature = {"type": "Feature", "properties": properties, "geometry": {"type": "Point", "coordinates": [1, 2]}}
        p = tmp_path / "p.geojson"
        p.write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}))
        assert io.read_poi(p).categories == ("",)


def integral(v) -> bool:
    """Every value is an integer below 2**53 in magnitude."""
    return bool(np.all(np.isfinite(v))) and bool(np.all(v == np.floor(v))) and bool(np.all(np.abs(v) < 2**53))


def reference_ascii_grid(raster: io.Raster) -> str:
    """ESRI ASCII grid text written one cell at a time: integers for an
    ``integral`` grid, else shortest-exact reals, the rule chosen once for
    the grid and once for the nodata value."""

    def fmt(v: float, as_int: bool) -> str:
        return str(int(v)) if as_int else repr(float(v))

    values = np.asarray(raster.values, dtype=np.float64)
    as_int = integral(values)
    na = fmt(raster.nodata_value, integral(np.float64(raster.nodata_value)))
    lines = [
        f"NCOLS {raster.n_cols}",
        f"NROWS {raster.n_rows}",
        f"XLLCORNER {float(raster.origin_x)!r}",
        f"YLLCORNER {float(raster.origin_y)!r}",
        f"CELLSIZE {float(raster.pixel_size)!r}",
        f"NODATA_VALUE {na}",
    ]
    for r in range(raster.n_rows - 1, -1, -1):
        cells = (na if raster.nodata[r, c] else fmt(values[r, c], as_int) for c in range(raster.n_cols))
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


SAFE_INT = 2**53 - 1
_ints = st.integers(-SAFE_INT, SAFE_INT) | st.sampled_from([0, 1, SAFE_INT, -SAFE_INT])
_integral = _ints.map(float) | st.just(-0.0)
_reals = st.floats(allow_nan=False)
# one cell that turns an integer grid into a real one (or, if integral, does not)
_spoilers = st.sampled_from([2.0**53, -(2.0**53), 0.5, -1.25, 5e-324, math.inf, -math.inf]) | _reals
_nodata_values = st.sampled_from([-9999.0, -99.5, 0.25, -0.0, 2.0**53]) | _integral | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def grid_rasters(draw) -> io.Raster:
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = n_rows * n_cols
    cells = st.lists(draw(st.sampled_from([_integral, _reals])), min_size=n, max_size=n)
    values = np.array(draw(cells), dtype=np.float64).reshape(n_rows, n_cols)
    spoiler = draw(st.none() | _spoilers)
    if spoiler is not None:
        values[draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))] = spoiler
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    coord = st.floats(-1e7, 1e7)
    return io.Raster(
        origin_x=draw(coord),
        origin_y=draw(coord),
        pixel_size=draw(st.floats(1e-3, 1e4)),
        values=values,
        nodata=np.array(draw(flags)).reshape(n_rows, n_cols),
        nodata_value=draw(_nodata_values),
    )


class TestAsciiGrid:
    @settings(max_examples=300, deadline=None)
    @given(raster=grid_rasters())
    def test_write_matches_per_cell_reference(self, tmp_path_factory, raster):
        p = tmp_path_factory.mktemp("grid") / "g.asc"
        io.write_ascii_grid(raster, p)
        assert p.read_bytes() == reference_ascii_grid(raster).encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(raster=grid_rasters())
    def test_read_of_write_is_bit_equal(self, tmp_path_factory, raster):
        # a read marks every cell equal to NODATA_VALUE as nodata and zeroes it
        data = raster.values[~raster.nodata]
        assume(not np.any(data == raster.nodata_value))
        raster = io.Raster(
            raster.origin_x,
            raster.origin_y,
            raster.pixel_size,
            np.where(raster.nodata, 0.0, raster.values),
            raster.nodata,
            raster.nodata_value,
        )
        p = tmp_path_factory.mktemp("grid") / "g.asc"
        io.write_ascii_grid(raster, p)
        back = io.read_ascii_grid(p)
        expected = raster.values
        if integral(expected):
            expected = expected + 0.0  # an integer grid writes -0.0 as 0
        assert back.values.tobytes() == expected.tobytes()
        assert np.array_equal(back.nodata, raster.nodata)
        assert back.grid == raster.grid
        assert back.nodata_value == raster.nodata_value

    @pytest.mark.parametrize(
        "sep, header_sep",
        [
            ("\r\n", "\r\n"),
            ("\n", "\n\n  \t\n"),  # blank lines between header lines
            ("\r\n", "\r\n\r\n \r\n"),
            ("\f", "\f"),
            ("\n", "\f\n"),
            ("\x0b", "\x1c\u2028"),
        ],
    )
    def test_golden_mask_line_separators(self, tmp_path, data_dir, sep, header_sep):
        lf = io.read_ascii_grid(data_dir / "mask.asc")
        lines = (data_dir / "mask.asc").read_text().splitlines()
        p = tmp_path / "m.asc"
        p.write_bytes((header_sep.join(lines[:6]) + header_sep + sep.join(lines[6:]) + sep).encode("utf-8"))
        r = io.read_ascii_grid(p)
        assert r.grid == lf.grid and r.nodata_value == lf.nodata_value
        assert r.values.tobytes() == lf.values.tobytes()
        assert np.array_equal(r.nodata, lf.nodata)

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda cells: "\n".join(cells),  # one value per line
            lambda cells: " ".join(cells),  # every value on one line
            lambda cells: "\n".join(" ".join(cells[i : i + 5]) for i in range(0, len(cells), 5)),  # mid-row
        ],
        ids=["one-per-line", "one-line", "mid-row"],
    )
    def test_golden_mask_rewrapped(self, tmp_path, data_dir, wrap):
        lines = (data_dir / "mask.asc").read_text().splitlines()
        cells = " ".join(lines[6:]).split()
        p = tmp_path / "m.asc"
        p.write_text("\n".join(lines[:6]) + "\n" + wrap(cells) + "\n")
        r, lf = io.read_ascii_grid(p), io.read_ascii_grid(data_dir / "mask.asc")
        assert r.grid == lf.grid and r.nodata_value == lf.nodata_value
        assert r.values.tobytes() == lf.values.tobytes()
        assert np.array_equal(r.nodata, lf.nodata)

    @pytest.mark.parametrize(
        "body, found",
        [
            (lambda rows: rows[:-2], 48),  # two rows short
            (lambda rows: rows[:-1] + [rows[-1][:-6]], 61),  # three values short, mid-row
            (lambda rows: [], 0),  # header only
            (lambda rows: rows + ["1 0 1"], 67),
            (lambda rows: rows + ["x y"], 66),  # surplus values are counted, not parsed
        ],
        ids=["short-rows", "short-mid-row", "header-only", "long", "long-non-numeric-surplus"],
    )
    def test_wrong_length_reports_the_count_found(self, tmp_path, data_dir, body, found):
        lines = (data_dir / "mask.asc").read_text().splitlines()
        p = tmp_path / "t.asc"
        p.write_text("\n".join(lines[:6] + body(lines[6:])) + "\n")
        with pytest.raises(TruncationError, match=rf"expected 64 values, found {found}$"):
            io.read_ascii_grid(p)

    def test_header_asking_for_more_values_than_the_body_has_characters(self, tmp_path, data_dir):
        # refused from the text's size, before a grid of 10**16 cells is allocated
        text = (data_dir / "mask.asc").read_text().replace("NCOLS 8", "NCOLS 100000000")
        p = tmp_path / "t.asc"
        p.write_text(text.replace("NROWS 8", "NROWS 100000000"))
        with pytest.raises(TruncationError, match=r"expected 10000000000000000 values, found 64$"):
            io.read_ascii_grid(p)

    @pytest.mark.parametrize("body", [lambda rows: rows[:-2], lambda rows: rows + ["1 0 1"]], ids=["short", "long"])
    def test_wrong_length_with_a_non_numeric_value_names_the_value(self, tmp_path, data_dir, body):
        # the first fault in file order is the one reported
        lines = (data_dir / "mask.asc").read_text().splitlines()
        lines[7] = "x" + lines[7][1:]
        p = tmp_path / "t.asc"
        p.write_text("\n".join(lines[:6] + body(lines[6:])) + "\n")
        with pytest.raises(FormatError, match="could not convert string to float: 'x'") as info:
            io.read_ascii_grid(p)
        assert not isinstance(info.value, TruncationError)

    @pytest.fixture(scope="class")
    def real_grid(self) -> io.Raster:
        rng = np.random.default_rng(5)
        return io.Raster(0.0, 0.0, 30.0, rng.random((512, 512)) * 1000.0)

    @staticmethod
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_holds_the_text_and_the_grid_not_a_token_per_cell(self, tmp_path, real_grid):
        # The text and its lines are alive together for a moment (2 bytes per
        # byte of file); then the lines, the float64 values and the nodata flags
        # (9 bytes per cell). A str per cell would cost about 70 bytes a cell.
        p = tmp_path / "g.asc"
        io.write_ascii_grid(real_grid, p)
        bound = 2 * p.stat().st_size + 9 * real_grid.values.size + 2**20
        assert self.traced_peak(lambda: io.read_ascii_grid(p)) < bound

    def test_write_never_holds_the_files_text(self, tmp_path, real_grid):
        # No more than grid-sized temporaries (as_raster's nodata flags). The
        # text is about 18 bytes per cell here, so one whole copy of it breaks
        # the bound.
        p = tmp_path / "g.asc"
        assert self.traced_peak(lambda: io.write_ascii_grid(real_grid, p)) < 9 * real_grid.values.size + 2**20
        assert io.read_ascii_grid(p).values.tobytes() == real_grid.values.tobytes()

    def test_write_of_an_integer_grid_tests_its_rule_a_block_at_a_time(self, tmp_path):
        # Every cell of an integer grid must be tested before the first row is
        # written; whole-grid floor and abs temporaries would cost 9 bytes a cell.
        rng = np.random.default_rng(9)
        mask = io.Raster(0.0, 0.0, 15.0, (rng.random((512, 512)) < 0.4) * 1.0, rng.random((512, 512)) < 0.05)
        p = tmp_path / "m.asc"
        assert self.traced_peak(lambda: io.write_ascii_grid(mask, p)) < 2 * mask.values.size
        assert p.read_bytes() == reference_ascii_grid(mask).encode("utf-8")

    @pytest.mark.parametrize("block", [7, 64, 2**14])
    @pytest.mark.parametrize("spoiler", [None, 0.5, 2.0**53, math.inf, math.nan])
    @pytest.mark.parametrize("cell", [0, 1000, 4095])
    def test_rule_is_chosen_over_every_block(self, tmp_path, monkeypatch, block, spoiler, cell):
        monkeypatch.setattr(io, "_RULE_BLOCK", block)
        values = np.arange(4096.0).reshape(64, 64) - 2000.0
        if spoiler is not None:
            values.flat[cell] = spoiler
        raster = io.Raster(0.0, 0.0, 30.0, values)
        p = tmp_path / "g.asc"
        io.write_ascii_grid(raster, p)
        assert p.read_bytes() == reference_ascii_grid(raster).encode("utf-8")

    def test_binary_check_copies_no_values(self):
        # The {0, 1} check runs on the values in place: two bytes of flags a
        # cell, where a copy of the valid cells alone costs eight.
        rng = np.random.default_rng(10)
        raster = io.Raster(0.0, 0.0, 15.0, (rng.random((512, 512)) < 0.4) * 1.0, rng.random((512, 512)) < 0.05)
        assert self.traced_peak(lambda: io.BinaryRaster.from_raster(raster)) < 3 * raster.values.size

    def test_binary_check_names_the_first_bad_cell(self):
        values = np.zeros((3, 4))
        values[1, 2], values[2, 0], values[0, 1] = 0.5, 7.0, -3.0
        nodata = np.zeros((3, 4), dtype=bool)
        nodata[0, 1] = True
        with pytest.raises(ValidationError, match=r"^binary raster has 2 cells outside \{0, 1\} \(e\.g\. 0\.5\)$"):
            io.BinaryRaster(0.0, 0.0, 15.0, values, nodata)

    def test_golden_mask(self, data_dir):
        r = io.read_ascii_grid(data_dir / "mask.asc")
        assert (r.n_cols, r.n_rows) == (8, 8)
        assert r.pixel_size == 15.0
        assert int(r.nodata.sum()) == 2
        # header is read top row first; row 0 of values is the southern row
        assert r.values[0].tolist() == [1, 1, 0, 1, 0, 1, 1, 1]
        binary = io.BinaryRaster.from_raster(r)
        assert int(binary.values.sum()) == 34

    def test_integer_round_trip_exact(self, tmp_path):
        vals = np.array([[1, 0], [0, 1]], dtype=np.float64)
        r = io.Raster(origin_x=0.0, origin_y=0.0, pixel_size=30.0, values=vals)
        p = tmp_path / "g.asc"
        io.write_ascii_grid(r, p)
        back = io.read_ascii_grid(p)
        assert np.array_equal(back.values, vals)
        assert back.origin_x == 0.0 and back.pixel_size == 30.0

    def test_real_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        for i in range(10):
            vals = rng.random((4, 6)) * 10.0 ** rng.integers(-6, 7)
            nd = rng.random((4, 6)) < 0.15
            r = io.Raster(
                origin_x=float(rng.uniform(-1e5, 1e5)),
                origin_y=float(rng.uniform(-1e5, 1e5)),
                pixel_size=float(rng.uniform(0.1, 100)),
                values=np.where(nd, 0.0, vals),
                nodata=nd,
            )
            p = tmp_path / f"g{i}.asc"
            io.write_ascii_grid(r, p)
            back = io.read_ascii_grid(p)
            assert np.array_equal(back.values, r.values)
            assert np.array_equal(back.nodata, r.nodata)
            assert back.origin_x == r.origin_x
            assert back.origin_y == r.origin_y
            assert back.pixel_size == r.pixel_size

    def test_population_grid_round_trip(self, tmp_path):
        grid = TileGrid(origin_x=30.0, origin_y=-60.0, n_cols=3, n_rows=2, tile_size=30.0)
        pg = io.PopulationGrid(grid=grid, values=np.array([[0.1, 2.25, 0.0], [75.0, 25.0, 1e-7]]))
        p = tmp_path / "pop.asc"
        io.write_ascii_grid(pg, p)
        back = io.population_grid_from_raster(io.read_ascii_grid(p))
        assert back.grid == grid
        assert np.array_equal(back.values, pg.values)

    def test_integer_values_with_fractional_nodata_value(self, tmp_path):
        nd = np.array([[True, False], [False, False]])
        r = io.Raster(
            origin_x=0.0,
            origin_y=0.0,
            pixel_size=1.0,
            values=np.array([[0.0, 3.0], [1.0, 2.0]]),
            nodata=nd,
            nodata_value=-99.5,
        )
        p = tmp_path / "frac.asc"
        io.write_ascii_grid(r, p)
        back = io.read_ascii_grid(p)
        assert np.array_equal(back.nodata, nd)
        assert np.array_equal(back.values, r.values)

    def test_swapped_header_keys_warn_but_read(self, tmp_path, data_dir):
        lines = (data_dir / "mask.asc").read_text().splitlines()
        lines[0], lines[1] = lines[1], lines[0]  # NROWS before NCOLS
        p = tmp_path / "swapped.asc"
        p.write_text("\n".join(lines) + "\n")
        with pytest.warns(HeaderOrderWarning):
            r = io.read_ascii_grid(p)
        assert (r.n_cols, r.n_rows) == (8, 8)

    def test_missing_header_key(self, tmp_path, data_dir):
        lines = (data_dir / "mask.asc").read_text().splitlines()
        del lines[4]  # CELLSIZE
        p = tmp_path / "m.asc"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="CELLSIZE"):
            io.read_ascii_grid(p)

    def test_truncated_values(self, tmp_path, data_dir):
        lines = (data_dir / "mask.asc").read_text().splitlines()
        p = tmp_path / "t.asc"
        p.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(TruncationError):
            io.read_ascii_grid(p)

    def test_extra_values(self, tmp_path, data_dir):
        p = tmp_path / "x.asc"
        p.write_text((data_dir / "mask.asc").read_text() + "1 0 1\n")
        with pytest.raises(TruncationError):
            io.read_ascii_grid(p)

    def test_non_numeric_value(self, tmp_path, data_dir):
        text = (data_dir / "mask.asc").read_text().replace("\n1 1 0 0 1 0 0 1", "\n1 x 0 0 1 0 0 1", 1)
        p = tmp_path / "n.asc"
        p.write_text(text)
        with pytest.raises(FormatError):
            io.read_ascii_grid(p)

    def test_first_non_numeric_value_in_file_order_is_named(self, tmp_path, data_dir):
        lines = (data_dir / "mask.asc").read_text().splitlines()
        lines[6] = "x" + lines[6][1:]  # top row
        lines[-1] = "y" + lines[-1][1:]  # bottom row: a parse in south-up order would name it
        p = tmp_path / "n.asc"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="could not convert string to float: 'x'"):
            io.read_ascii_grid(p)

    def test_non_integer_ncols(self, tmp_path, data_dir):
        text = (data_dir / "mask.asc").read_text().replace("NCOLS 8", "NCOLS 8.5")
        p = tmp_path / "f.asc"
        p.write_text(text)
        with pytest.raises(FormatError):
            io.read_ascii_grid(p)

    def test_nodata_excluded_from_binary(self, data_dir):
        r = io.read_ascii_grid(data_dir / "mask.asc")
        b = io.BinaryRaster.from_raster(r)
        assert not b.values[b.nodata].any()

    def test_nonbinary_rejected(self, tmp_path):
        r = io.Raster(origin_x=0, origin_y=0, pixel_size=1.0, values=np.array([[0.0, 2.0]]))
        with pytest.raises(ValidationError):
            io.BinaryRaster.from_raster(r)

    def test_tile_mask_raster(self):
        grid = TileGrid(origin_x=0, origin_y=0, n_cols=2, n_rows=2, tile_size=30.0)
        mask = TileMask(grid=grid, retained=np.array([[True, False], [True, True]]))
        r = io.raster_from_tile_mask(mask)
        assert r.values.tolist() == [[1.0, 0.0], [1.0, 1.0]]


_DIGITS = st.text("0123456789", min_size=30, max_size=40)
_grid_tokens = st.one_of(
    st.floats().map(repr),
    st.tuples(st.sampled_from(["", "-", "+"]), _DIGITS, st.integers(0, 40)).map(
        lambda t: t[0] + t[1][: t[2]] + "." + t[1][t[2] :]
    ),
    st.sampled_from(
        ["inf", "-inf", "+inf", "Inf", "INF", "infinity", "-Infinity", "+iNfInItY", "nan", "-nan", "+NaN", "NAN"]
    ),
    st.sampled_from(["+1", ".5", "5.", "-0", "-0.0", "0", "1e5", "1E-5", "+.5e+3", "1e400", "-9999"]),
    st.sampled_from(["1_0", "1_000.5", "١٢", "١.٥", "３"]),  # float() only
    st.sampled_from(["x", "1e", "--1", "nan(1)", "0x10", "#", "1#2", "infinit"]),  # neither
)


@st.composite
def grid_texts(draw) -> str:
    """ESRI ASCII grid text with an awkward body: any layout, any separators,
    tokens ``float`` accepts and numpy may not, and sometimes a value short
    or over."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    numeric = st.sampled_from(["0", "1", "2.5", "-0.0", "1e-300"]) | _grid_tokens.filter(_is_float)
    tokens = draw(st.lists(draw(st.sampled_from([numeric, _grid_tokens])), min_size=1, max_size=n_rows * n_cols + 1))
    if len(tokens) < n_rows * n_cols and draw(st.booleans()):
        tokens += ["1"] * (n_rows * n_cols - len(tokens))  # usually the right count
    sep = draw(st.sampled_from([" ", "  ", "\t", "\xa0", " \x0b", "\x0c"]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\x0b", "\x0c"]))
    width = draw(st.sampled_from([n_cols, n_cols, 1, max(1, n_cols - 1), n_cols + 1]))  # 1: one per line
    lines = [sep.join(tokens[i : i + width]) for i in range(0, len(tokens), width)]
    comment = draw(st.sampled_from([None, None, None, "#", " # 1"]))  # a "#" ends no line early
    if comment:
        lines[draw(st.integers(0, len(lines) - 1))] += comment
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\xa0"])))
    header = f"NCOLS {n_cols}\nNROWS {n_rows}\nXLLCORNER 0.0\nYLLCORNER 0.0\nCELLSIZE 15.0\nNODATA_VALUE -9999\n"
    return header + eol.join(lines) + eol


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_outcome(path: Path):
    """What a read of ``path`` gives: the raster's bits, or the error's type
    and message."""
    try:
        r = io.read_ascii_grid(path)
    except PopgridError as e:
        return type(e), str(e)
    return r.grid, r.nodata_value, r.values.view(np.int64).tobytes(), r.nodata.tobytes()


_NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF]
_palette_values = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53, 2.0**53 + 2, 5e-324]
) | st.sampled_from(_NAN_BITS).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))) | _reals


class TestGridFastPaths:
    """numpy parses one-row-per-line bodies and the streamed reader every
    other; the writer formats each distinct value of a block once. Both must
    give what the plain per-cell code gives."""

    @settings(max_examples=400, deadline=None)
    @given(text=grid_texts())
    def test_read_equals_the_streamed_reader(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("grid") / "g.asc"
        p.write_bytes(text.encode("utf-8"))
        with mock.patch.object(io, "_parse_rows", lambda *args: None):
            want = read_outcome(p)
        assert read_outcome(p) == want

    def test_numpy_parses_one_row_per_line_only(self, data_dir):
        lines = (data_dir / "mask.asc").read_text().splitlines()
        assert io._parse_rows(lines, 6, 8, 8) is not None
        assert io._parse_rows(lines + ["", " \xa0"], 6, 8, 8) is not None  # blank lines do not count
        column = lines[:6] + " ".join(lines[6:]).split()  # one value per line
        with mock.patch.object(io.np, "loadtxt", side_effect=AssertionError("more lines than rows")):
            assert io._parse_rows(column, 6, 8, 8) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_write_matches_per_cell_reference(self, tmp_path_factory, data):
        n_rows, n_cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        block = data.draw(st.sampled_from([1, 2, 5, 16, 2**12]))  # n_cols > block, and not dividing it
        palette = data.draw(st.lists(_palette_values, min_size=1, max_size=6))
        n = n_rows * n_cols
        if data.draw(st.booleans()):  # few distinct values
            cells = data.draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
        else:  # about all distinct
            cells = data.draw(st.lists(_reals | _palette_values, min_size=n, max_size=n))
        flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        raster = io.Raster(
            0.0,
            0.0,
            30.0,
            np.array(cells, dtype=np.float64).reshape(n_rows, n_cols),
            np.array(flags).reshape(n_rows, n_cols),
            data.draw(_nodata_values),
        )
        p = tmp_path_factory.mktemp("grid") / "g.asc"
        with mock.patch.object(io, "_WRITE_BLOCK", block):
            io.write_ascii_grid(raster, p)
        assert p.read_bytes() == reference_ascii_grid(raster).encode("utf-8")

    def test_write_of_a_signaling_nan_warns_nothing(self, tmp_path):
        values = np.array([[1.0, 0.0]])
        values.view(np.int64)[0, 1] = 0x7FF0000000000001  # np.floor of it sets "invalid"
        raster = io.Raster(0.0, 0.0, 1.0, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            io.write_ascii_grid(raster, tmp_path / "g.asc")
        assert (tmp_path / "g.asc").read_bytes() == reference_ascii_grid(raster).encode("utf-8")

    @pytest.mark.parametrize("n_cols", [4096 + 37, 1000, 3])
    def test_write_of_real_blocks_matches_per_cell_reference(self, tmp_path, n_cols):
        rng = np.random.default_rng(n_cols)
        values = rng.choice([0.0, -0.0, 0.1, 2.5e-8, 7.0], size=(2 + 9000 // n_cols, n_cols))
        values[-1] = rng.random(n_cols)  # one block of distinct reals
        raster = io.Raster(0.0, 0.0, 30.0, values, rng.random(values.shape) < 0.1)
        p = tmp_path / "g.asc"
        io.write_ascii_grid(raster, p)
        assert p.read_bytes() == reference_ascii_grid(raster).encode("utf-8")

    @pytest.mark.parametrize("distinct, formatted_cells", [(3, 3), (2048, 2048), (4096, 4096)])
    def test_each_distinct_value_is_formatted_once_per_block(self, tmp_path, monkeypatch, distinct, formatted_cells):
        formatted = []
        row_formatter = io._row_formatter

        def counting(values):
            fmt = row_formatter(values)
            return lambda row: (formatted.append(len(row)), fmt(row))[1]

        monkeypatch.setattr(io, "_row_formatter", counting)
        values = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) % distinct + 0.5
        io.write_ascii_grid(io.Raster(0.0, 0.0, 30.0, values), tmp_path / "g.asc")
        # the nodata token, then one block of 4096 cells: each distinct value once
        assert sum(formatted) == 1 + formatted_cells


class TestRasterGrid:
    """``Raster.grid`` and ``Raster.on`` are the bridges between a raster and
    the TileGrid of its cells."""

    def test_on_reproduces_rasters_field_for_field(self):
        rng = np.random.default_rng(23)
        for cls in (io.Raster, io.BinaryRaster):
            for _ in range(25):
                shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
                r = cls(
                    origin_x=float(rng.uniform(-1e6, 1e6)),
                    origin_y=float(rng.uniform(-1e6, 1e6)),
                    pixel_size=float(rng.uniform(0.01, 1000.0)),
                    values=rng.integers(0, 2, size=shape).astype(np.float64),
                    nodata=rng.random(shape) < 0.2,
                    nodata_value=float(rng.uniform(-1e4, 0.0)),
                )
                back = cls.on(r.grid, r.values, r.nodata, r.nodata_value)
                assert type(back) is cls
                for f in fields(io.Raster):
                    mine, theirs = getattr(back, f.name), getattr(r, f.name)
                    if isinstance(mine, np.ndarray):
                        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
                    else:
                        assert mine == theirs, f.name
                assert (r.grid.n_cols, r.grid.n_rows) == (shape[1], shape[0])
                assert r.grid.tile_size == r.pixel_size

    def test_on_rejects_values_of_another_shape(self):
        grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=3, n_rows=2, tile_size=30.0)
        with pytest.raises(ValidationError, match="does not match grid"):
            io.Raster.on(grid, np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "bad",
        [
            {"origin_x": float("nan")},
            {"origin_y": float("inf")},
            {"origin_x": -float("inf")},
            {"pixel_size": True},
            {"pixel_size": "30"},
            {"pixel_size": float("nan")},
            {"pixel_size": 0.0},
            {"values": np.zeros((0, 3))},
            {"values": np.zeros((3, 0))},
        ],
    )
    def test_constructor_rejects_a_lattice_tilegrid_rejects(self, bad):
        kwargs = {"origin_x": 0.0, "origin_y": 0.0, "pixel_size": 30.0, "values": np.zeros((2, 3)), **bad}
        with pytest.raises(ValidationError):
            io.Raster(**kwargs)


class TestGoldenFuzz:
    """Every schema-breaking mutation of a golden file must raise the
    contracted error class."""

    def test_admin_mutations(self, tmp_path, data_dir):
        base = json.loads((data_dir / "admin.geojson").read_text())
        cases = []

        def variant(mutate, expected, match=None):
            doc = json.loads(json.dumps(base))
            mutate(doc)
            cases.append((json.dumps(doc), expected, match))

        variant(lambda d: d["features"][0]["properties"].pop("id"), SchemaError)
        variant(lambda d: d["features"][0]["properties"].pop("level"), SchemaError)
        variant(lambda d: d["features"][0]["properties"].pop("population"), SchemaError)
        variant(lambda d: d["features"][0]["properties"].update(population="lots"), SchemaError)
        variant(lambda d: d["features"][0]["properties"].update(population=-1), ValidationError)
        variant(lambda d: d["features"][0]["properties"].update(population=True), SchemaError)
        variant(lambda d: d["features"][0]["properties"].update(population="1e3"), SchemaError)
        variant(lambda d: d["features"][0]["properties"].update(population=10**400), ValidationError)
        variant(lambda d: d["features"][0]["properties"].update(level="galaxy"), SchemaError)
        variant(lambda d: d["features"][1]["properties"].update(level="block"), LevelMismatchError)
        variant(lambda d: d["features"][0].update(geometry={"type": "Point", "coordinates": [0, 0]}), SchemaError)
        variant(lambda d: d["features"][0]["geometry"].update(coordinates=[[[0, 0], [1, 1]]]), GeometryError)
        variant(
            lambda d: d["features"][0]["geometry"].update(coordinates=[[[0, 0], ["x", 1], [1, 1], [0, 1]]]),
            ValidationError,
        )
        for bad in (["1", "2"], [10**400, 1], [1, True]):
            variant(
                lambda d, bad=bad: d["features"][0]["geometry"].update(coordinates=[[[0, 0], bad, [1, 1], [0, 1]]]),
                ValidationError,
            )
        variant(lambda d: d.update(type="FeatureList"), SchemaError)
        variant(lambda d: d.update(features={}), SchemaError)
        for bad in (["a"], True, False, {"k": "v"}, 1.5):
            variant(
                lambda d, bad=bad: d["features"][0]["properties"].update(id=bad),
                SchemaError,
                "feature #0: id .* is not a string or an integer",
            )
        for text, expected, match in cases:
            p = tmp_path / "fuzz.geojson"
            p.write_text(text)
            with pytest.raises(expected, match=match):
                io.read_admin_units(p)
        # truncation makes it unparseable
        p = tmp_path / "fuzz.geojson"
        p.write_text(json.dumps(base)[:-25])
        with pytest.raises(ParseError):
            io.read_admin_units(p)

    def test_mask_mutations(self, tmp_path, data_dir):
        base = (data_dir / "mask.asc").read_text()
        cases = [
            (base.replace("NODATA_VALUE -9999\n", ""), FormatError),
            (base.replace("NCOLS 8", "NCOLS eight"), FormatError),
            (base.replace("CELLSIZE 15.0", "CELLSIZE -15.0"), FormatError),
            ("\n".join(base.splitlines()[:-1]) + "\n", TruncationError),
            (base + "0 1\n", TruncationError),
            (base.replace("NCOLS 8\n", "NCOLS 8\nNCOLS 8\n"), FormatError),
            (base.replace("NCOLS 8", "NCOLS nan"), FormatError),
            (base.replace("NROWS 8", "NROWS inf"), FormatError),
            (base.replace("XLLCORNER 0.0", "XLLCORNER nan"), ValidationError),
            (base.replace("YLLCORNER 0.0", "YLLCORNER -inf"), ValidationError),
            (base.replace("CELLSIZE 15.0", "CELLSIZE nan"), ValidationError),
        ]
        for text, expected in cases:
            p = tmp_path / "fuzz.asc"
            p.write_text(text)
            with pytest.raises(expected):
                io.read_ascii_grid(p)

    def test_poi_csv_mutations(self, tmp_path, data_dir):
        base = (data_dir / "poi.csv").read_text()
        cases = [
            (base.replace("x,y,category", "a,b,c"), SchemaError),
            (base.replace("45.0,45.0", "forty,45.0"), ValidationError),
            (base.replace("45.0,45.0,market", "45.0"), SchemaError),
        ]
        for text, expected in cases:
            p = tmp_path / "fuzz.csv"
            p.write_text(text)
            with pytest.raises(expected):
                io.read_poi(p)

    def test_poi_geojson_mutations(self, tmp_path, data_dir):
        base = json.loads((data_dir / "poi.geojson").read_text())
        doc = json.loads(json.dumps(base))
        doc["features"][0]["geometry"]["type"] = "Polygon"
        p = tmp_path / "fuzz.geojson"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            io.read_poi(p)
        for bad in (["x", 1], ["1", "2"], [10**400, 1], [False, 1]):
            doc = json.loads(json.dumps(base))
            doc["features"][0]["geometry"]["coordinates"] = bad
            p.write_text(json.dumps(doc))
            with pytest.raises(ValidationError):
                io.read_poi(p)
        for bad in (["x"], [], "x", 0, True):
            doc = json.loads(json.dumps(base))
            doc["features"][1]["properties"] = bad
            p.write_text(json.dumps(doc))
            with pytest.raises(SchemaError, match="feature #1: properties must be an object or null"):
                io.read_poi(p)
        for bad in (["a"], {"k": 1}, 5, True):
            doc = json.loads(json.dumps(base))
            doc["features"][1]["properties"]["category"] = bad
            p.write_text(json.dumps(doc))
            with pytest.raises(SchemaError, match="feature #1: category must be a string or null"):
                io.read_poi(p)

    def test_every_error_is_a_popgrid_error(self):
        for cls in (SchemaError, ValidationError, FormatError, TruncationError, ParseError):
            assert issubclass(cls, PopgridError)
