from __future__ import annotations

import argparse
import builtins
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from popgrid import cli, errors, io, synth
from popgrid.cli import main
from popgrid.geo import BBox


def make_scenario(s: Path) -> dict:
    rc = main(["synth", "--seed", "11", "--out", str(s), "--extent", "960", "--n-units", "5", "--scattered", "20"])
    assert rc == 0
    return {
        "admin": str(s / "admin.geojson"),
        "poi": str(s / "poi.geojson"),
        "mask": str(s / "mask.asc"),
        "truth": str(s / "truth_tiles.asc"),
        "meta": str(s / "scenario.json"),
        "dir": s,
    }


@pytest.fixture
def scenario(tmp_path) -> dict:
    return make_scenario(tmp_path / "s")


def run_pipeline(scenario, out_dir, *extra) -> int:
    return main(
        [
            "run",
            "--admin",
            scenario["admin"],
            "--poi",
            scenario["poi"],
            "--mask",
            scenario["mask"],
            "--out",
            str(out_dir),
            "--origin-x",
            "0",
            "--origin-y",
            "0",
            "--n-cols",
            "32",
            "--n-rows",
            "32",
            *extra,
        ]
    )


# One value of each JSON kind, for every PipelineConfig field.
CONFIG_VALUES = {"true": True, "str": "x", "list": [1], "null": None, "huge": 10**400, "nan": math.nan}
# The cells of that table that are a valid config, and why; every other cell
# exits 2 with a typed error.
VALID_CONFIG_CELLS = {
    ("out", "str"): "out names the output directory, and any string is a path",
    ("origin_x", "null"): "the grid is derived from the admin extent",
    ("origin_y", "null"): "the grid is derived from the admin extent",
    ("n_cols", "null"): "the grid is derived from the admin extent",
    ("n_rows", "null"): "the grid is derived from the admin extent",
    ("poi_threshold", "huge"): "no tile reaches the threshold, so POI exclusion turns off",
    ("workers", "huge"): "workers is accepted and ignored",
}


class TestValidate:
    def test_valid_trio_exits_zero(self, scenario):
        rc = main(
            ["validate", "--admin", scenario["admin"], "--poi", scenario["poi"], "--mask", scenario["mask"]]
        )
        assert rc == 0

    def test_missing_population_exits_two_with_feature_id(self, tmp_path, scenario, capsys):
        doc = json.loads(Path(scenario["admin"]).read_text())
        del doc["features"][2]["properties"]["population"]
        bad = tmp_path / "bad.geojson"
        bad.write_text(json.dumps(doc))
        rc = main(["validate", "--admin", str(bad), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["status"] == "errors"
        assert out["errors"] == [f"SchemaError: {bad}: feature 'u002': missing required property 'population'"]

    @pytest.mark.parametrize(
        "population, error",
        [(True, "SchemaError"), ("1e3", "SchemaError"), (10**400, "ValidationError")],
        ids=["bool", "str", "overflow"],
    )
    def test_non_real_population_exits_two_with_feature_id(self, tmp_path, scenario, capsys, population, error):
        doc = json.loads(Path(scenario["admin"]).read_text())
        doc["features"][2]["properties"]["population"] = population
        bad = tmp_path / "bad.geojson"
        bad.write_text(json.dumps(doc))
        rc = main(["validate", "--admin", str(bad), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["status"] == "errors"
        assert out["errors"][0].startswith(f"{error}: {bad}: feature 'u002': ")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_poi_properties_not_an_object_exits_two(self, tmp_path, scenario, capsys, command):
        doc = json.loads(Path(scenario["poi"]).read_text())
        doc["features"][1]["properties"] = ["x"]
        bad = tmp_path / "bad.geojson"
        bad.write_text(json.dumps(doc))
        if command == "validate":
            rc = main(["validate", "--poi", str(bad)])
        else:
            rc = run_pipeline({**scenario, "poi": str(bad)}, tmp_path / "out")
            assert not (tmp_path / "out").exists()
        captured = capsys.readouterr()
        assert rc == 2
        assert f"SchemaError: {bad}: feature #1: properties must be an object or null" in captured.out + captured.err

    def test_population_past_the_int_digit_limit_exits_two(self, tmp_path, scenario, capsys):
        # json.loads refuses an integer literal of over 4300 digits with a
        # plain ValueError, not a JSONDecodeError
        doc = json.loads(Path(scenario["admin"]).read_text())
        doc["features"][2]["properties"]["population"] = "HUGE"
        bad = tmp_path / "bad.geojson"
        bad.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000))
        rc = main(["validate", "--admin", str(bad), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert out["errors"][0].startswith(f"ParseError: {bad}: ")

    def test_disjoint_extents_exit_two(self, tmp_path, scenario, capsys):
        far = io.Raster(
            origin_x=1e6, origin_y=1e6, pixel_size=15.0, values=np.ones((4, 4))
        )
        far_path = tmp_path / "far.asc"
        io.write_ascii_grid(far, far_path)
        rc = main(["validate", "--admin", scenario["admin"], "--mask", str(far_path)])
        assert rc == 2
        message = "ERROR: ConfigurationError: admin polygons and built-up mask have disjoint extents"
        assert message in capsys.readouterr().out

    def test_degree_like_admin_without_flag_is_rejected(self, tmp_path, capsys):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"id": "d1", "level": "circle", "population": 10},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [
                            [[74.0, 31.0], [74.5, 31.0], [74.5, 31.5], [74.0, 31.5], [74.0, 31.0]]
                        ],
                    },
                }
            ],
        }
        bad = tmp_path / "degrees.geojson"
        bad.write_text(json.dumps(doc))
        rc = main(["validate", "--admin", str(bad)])
        assert rc == 2
        message = f"ERROR: ConfigurationError: {bad}: coordinates fit inside longitude/latitude ranges"
        assert message in capsys.readouterr().out
        # declaring meters makes the same coordinates acceptable
        doc["coordinate_units"] = "meters"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--admin", str(bad)]) == 0

    def test_header_order_warning_exits_one(self, tmp_path, scenario):
        lines = Path(scenario["mask"]).read_text().splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        swapped = tmp_path / "swapped.asc"
        swapped.write_text("\n".join(lines) + "\n")
        rc = main(["validate", "--mask", str(swapped)])
        assert rc == 1

    def test_nothing_to_validate(self, capsys):
        assert main(["validate"]) == 2
        assert "ERROR: ConfigurationError: nothing to validate" in capsys.readouterr().out

    @pytest.mark.parametrize("vertex", [[10**400, 0.0], ["1", "2"], [True, 0.0]], ids=["overflow", "str", "bool"])
    def test_bad_coordinate_exits_two(self, tmp_path, vertex, capsys):
        ring = [[0.0, 0.0], vertex, [120.0, 120.0], [0.0, 120.0], [0.0, 0.0]]
        doc = {
            "type": "FeatureCollection",
            "coordinate_units": "meters",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"id": "c1", "level": "circle", "population": 10},
                    "geometry": {"type": "Polygon", "coordinates": [ring]},
                }
            ],
        }
        bad = tmp_path / "bad.geojson"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--admin", str(bad), "--json"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "errors"
        assert out["errors"][0].startswith(f"ValidationError: {bad}: feature 'c1': Point.")


class TestRun:
    def test_conserves_and_reruns_identically(self, tmp_path, scenario):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert run_pipeline(scenario, out1) == 0
        assert run_pipeline(scenario, out2, "--workers", "4") == 0
        report = json.loads((out1 / "report.json").read_text())
        totals = report["totals"]
        assert totals["population_out"] == pytest.approx(totals["population_in"], rel=1e-9)
        for name in ("population.asc", "tile_mask.asc", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_threshold_one_excludes_superset(self, tmp_path, scenario):
        # R=120 keeps some POIs isolated on this small extent, so lowering
        # the threshold strictly grows the excluded set
        out_default = tmp_path / "d"
        out_all = tmp_path / "a"
        assert run_pipeline(scenario, out_default, "--poi-radius", "120") == 0
        assert run_pipeline(scenario, out_all, "--poi-radius", "120", "--poi-threshold", "1") == 0
        m_default = io.read_ascii_grid(out_default / "tile_mask.asc")
        m_all = io.read_ascii_grid(out_all / "tile_mask.asc")
        retained_default = m_default.values == 1
        retained_all = m_all.values == 1
        # threshold 1 marks every POI dense: excluded set grows
        assert (retained_all <= retained_default).all()
        assert retained_all.sum() < retained_default.sum()

    def test_missing_input_exits_two(self, tmp_path, scenario, capsys):
        rc = main(
            [
                "run",
                "--admin",
                scenario["admin"],
                "--poi",
                scenario["poi"],
                "--mask",
                str(tmp_path / "nope.asc"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert "ERROR: FileNotFoundError: " in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, scenario, capsys):
        cfg = {
            "admin": scenario["admin"],
            "poi": scenario["poi"],
            "mask": scenario["mask"],
            "out": str(tmp_path / "o"),
            "poi_threshold": 5,
            "origin_x": 0.0,
            "origin_y": 0.0,
            "n_cols": 32,
            "n_rows": 32,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["poi_threshold"] == 5
        rc = main(["run", "--config", str(cfg_path), "--poi-threshold", "1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["poi_threshold"] == 1

    def test_config_integer_past_the_digit_limit_exits_two(self, tmp_path, scenario, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"poi_radius": 1' + "0" * 5000 + "}")
        out = tmp_path / "o"
        argv = ["run", "--config", str(cfg_path), "--admin", scenario["admin"], "--poi", scenario["poi"],
                "--mask", scenario["mask"], "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"ERROR: ConfigurationError: {cfg_path}: invalid JSON config (" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"admin": "x", "typo_key": 1}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert f"ERROR: ConfigurationError: {cfg_path}: unknown config keys ['typo_key']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes",
        [
            {"n_cols": 5.5},
            {"n_rows": True},
            {"poi_threshold": 2.5},
            {"poi_threshold": True},
            {"poi_radius": "500"},
        ],
    )
    def test_non_integer_grid_size_exits_two(self, tmp_path, scenario, capsys, sizes):
        cfg = {name: scenario[name] for name in ("admin", "poi", "mask")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, "out": str(tmp_path / "o"), **sizes}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        error = "ParameterError" if any(k.startswith("poi_") for k in sizes) else "ValidationError"
        assert f"ERROR: {error}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_default_grid_matches_truth_grid(self, tmp_path):
        s = tmp_path / "s"
        assert main(["synth", "--seed", "42", "--extent", "3840", "--out", str(s)]) == 0
        out = tmp_path / "o"
        args = ["--admin", str(s / "admin.geojson"), "--poi", str(s / "poi.geojson"), "--mask", str(s / "mask.asc")]
        assert main(["run", *args, "--out", str(out)]) == 0
        estimate = io.population_grid_from_raster(io.read_ascii_grid(out / "population.asc"))
        assert (estimate.grid.n_cols, estimate.grid.n_rows) == (128, 128)
        truth = synth.generate(synth.ScenarioSpec(seed=42, extent=BBox(0.0, 0.0, 3840.0, 3840.0)))
        synth.score(estimate, truth)  # raises AlignmentError unless the grids match

    @pytest.mark.parametrize(
        "config, error",
        [
            ({"tile_size": "30"}, "ParameterError"),
            ({"tile_size": True}, "ParameterError"),
            ({"tile_size": None}, "ParameterError"),
            ({"workers": "4"}, "ParameterError"),
            ({"workers": 2.5}, "ParameterError"),
            ({"workers": True}, "ParameterError"),
            ({"admin": 5}, "ConfigurationError"),
            ({"out": 7}, "ConfigurationError"),
            ({"origin_x": "0", "origin_y": 0, "n_cols": 32, "n_rows": 32}, "ParameterError"),
            ({"origin_y": 10**400}, "ParameterError"),
            ({"poi_radius": 10**310}, "ParameterError"),
            ({"poi_threshold": None}, "ParameterError"),
            ({"theta": 0.9}, "ConfigurationError"),
            ([1, 2], "ConfigurationError"),
        ],
        ids=[
            "tile_size-str",
            "tile_size-bool",
            "tile_size-null",
            "workers-str",
            "workers-float",
            "workers-bool",
            "admin-int",
            "out-int",
            "origin_x-str",
            "origin_y-huge",
            "poi_radius-huge",
            "poi_threshold-null",
            "theta-unknown",
            "top-level-array",
        ],
    )
    def test_badly_typed_config_exits_two(self, tmp_path, scenario, capsys, config, error):
        if isinstance(config, dict):
            paths = {name: scenario[name] for name in ("admin", "poi", "mask")}
            config = {**paths, "out": str(tmp_path / "o"), **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert f"ERROR: {error}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.fixture(scope="class")
    def shared_scenario(self, tmp_path_factory) -> dict:
        return make_scenario(tmp_path_factory.mktemp("table") / "s")

    @pytest.mark.parametrize("value", list(CONFIG_VALUES))
    @pytest.mark.parametrize("name", [f.name for f in fields(cli.PipelineConfig)])
    def test_config_field_value_table(self, tmp_path, shared_scenario, capsys, monkeypatch, name, value):
        monkeypatch.chdir(tmp_path)  # where a relative out path lands
        paths = {key: shared_scenario[key] for key in ("admin", "poi", "mask")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**paths, "out": str(tmp_path / "o"), name: CONFIG_VALUES[value]}))
        code = main(["run", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        if (name, value) in VALID_CONFIG_CELLS:
            assert code == 0, err
            return
        assert code == 2
        typed = re.match(r"ERROR: (\w+): ", err)
        assert typed, err
        error = getattr(errors, typed[1], None) or getattr(builtins, typed[1])
        assert issubclass(error, (errors.PopgridError, OSError))
        assert not (tmp_path / "o").exists()

    def test_non_finite_tile_size_flag_exits_two(self, tmp_path, scenario, capsys):
        assert run_pipeline(scenario, tmp_path / "o", "--tile-size", "nan") == 2
        assert "ERROR: ParameterError: tile size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, grid, refused",
        [
            ("run", ["--n-cols", str(10**23)], True),
            ("run", ["--n-cols", str(10**6), "--n-rows", str(10**6)], True),
            ("run", ["--n-cols", str(2**12), "--n-rows", str(2**12 + 1)], True),
            ("run", ["--n-cols", str(2**12), "--n-rows", str(2**12)], False),  # 2**24 tiles, the limit
            ("filter-poi", ["--tile-size", "1e-300"], True),  # derived from the admin extent
            ("filter-poi", ["--tile-size", "1e-320"], True),  # the derived tile count overflows a float
        ],
        ids=["1e23-cols", "1e6-by-1e6", "limit-plus-a-row", "limit", "derived", "derived-overflow"],
    )
    def test_grid_over_tile_limit_exits_two_before_tile_arrays(
        self, tmp_path, scenario, capsys, monkeypatch, command, grid, refused
    ):
        class TileMaskReached(Exception):
            pass

        def compute_tile_mask(*args):
            raise TileMaskReached

        monkeypatch.setattr(cli, "compute_tile_mask", compute_tile_mask)
        out = tmp_path / "o"
        argv = [command, "--admin", scenario["admin"], "--poi", scenario["poi"], "--out", str(out), *grid]
        if command == "run":
            argv += ["--mask", scenario["mask"]]
        if not refused:
            with pytest.raises(TileMaskReached):
                main(argv)
            return
        assert main(argv) == 2
        assert "ERROR: ParameterError: a grid of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "filter-poi"])
    def test_unrepresentable_derived_origin_exits_two_before_tile_arrays(
        self, tmp_path, scenario, capsys, monkeypatch, command
    ):
        # 1000 m / 1e-310 m overflows a float: no tile index exists for the origin
        ring = [[1000.0, 1000.0], [2000.0, 1000.0], [2000.0, 2000.0], [1000.0, 2000.0], [1000.0, 1000.0]]
        feature = {
            "type": "Feature",
            "properties": {"id": "a", "level": "circle", "population": 10},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        }
        admin = tmp_path / "square.geojson"
        admin.write_text(json.dumps({"type": "FeatureCollection", "coordinate_units": "meters", "features": [feature]}))

        def compute_tile_mask(*args):
            raise AssertionError("a tile array was made")

        monkeypatch.setattr(cli, "compute_tile_mask", compute_tile_mask)
        out = tmp_path / "o"
        argv = [command, "--admin", str(admin), "--poi", scenario["poi"], "--out", str(out), "--tile-size", "1e-310"]
        if command == "run":
            argv += ["--mask", scenario["mask"]]
        assert main(argv) == 2
        assert "ERROR: ParameterError: tile size 1e-310 is too small" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_binary_mask_error_names_the_file(self, tmp_path, scenario, capsys, command):
        mask = io.read_ascii_grid(scenario["mask"])
        values = mask.values.copy()
        values[0, 0] = 0.5
        bad = tmp_path / "mask.asc"
        io.write_ascii_grid(io.Raster.on(mask.grid, values), bad)
        if command == "run":
            assert run_pipeline({**scenario, "mask": str(bad)}, tmp_path / "o") == 2
        else:
            assert main(["validate", "--mask", str(bad)]) == 2
        captured = capsys.readouterr()
        message = captured.err + captured.out
        assert f"ERROR: ValidationError: {bad}: binary raster has 1 cells outside {{0, 1}} (e.g. 0.5)" in message
        assert "np.float64" not in message

    def test_reads_admin_file_once(self, tmp_path, scenario, monkeypatch):
        reads = []
        read_text = Path.read_text

        def counting_read_text(self, *args, **kwargs):
            reads.append(Path(self))
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        assert run_pipeline(scenario, tmp_path / "o") == 0
        assert reads.count(Path(scenario["admin"])) == 1


def write_degree_like_admin(path: Path, **members) -> None:
    """One unit whose coordinates fit inside lon/lat ranges; ``members`` are
    added to the collection (e.g. ``coordinate_units``)."""
    ring = [[74.0, 31.0], [74.5, 31.0], [74.5, 31.5], [74.0, 31.5], [74.0, 31.0]]
    feature = {
        "type": "Feature",
        "properties": {"id": "d1", "level": "circle", "population": 10},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [feature], **members}))


class TestProjectedAdmin:
    """Every command that reads admin polygons rejects degree-like ones."""

    @pytest.fixture
    def argv(self, tmp_path) -> dict:
        grid = io.Raster(origin_x=74.0, origin_y=31.0, pixel_size=0.25, values=np.ones((2, 2)))
        io.write_ascii_grid(grid, tmp_path / "grid.asc")
        (tmp_path / "poi.csv").write_text("x,y,category\n74.1,31.1,shop\n")
        admin = str(tmp_path / "admin.geojson")
        return {
            "validate": ["validate", "--admin", admin],
            "run": [
                "run",
                "--admin",
                admin,
                "--poi",
                str(tmp_path / "poi.csv"),
                "--mask",
                str(tmp_path / "grid.asc"),
                "--out",
                str(tmp_path / "o"),
            ],
            "zonal": ["zonal", "--grid", str(tmp_path / "grid.asc"), "--admin", admin, "--out", str(tmp_path / "z.csv")],
            "filter-poi": ["filter-poi", "--admin", admin, "--poi", str(tmp_path / "poi.csv"), "--out", str(tmp_path / "m.asc")],
        }

    @pytest.mark.parametrize("command", ["validate", "run", "zonal", "filter-poi"])
    def test_degree_like_admin_exits_two_until_meters_declared(self, tmp_path, argv, command, capsys):
        admin = tmp_path / "admin.geojson"
        write_degree_like_admin(admin)
        assert main(argv[command]) == 2
        captured = capsys.readouterr()
        message = f"ERROR: ConfigurationError: {admin}: coordinates fit inside longitude/latitude ranges"
        assert message in captured.out + captured.err
        assert not any((tmp_path / name).exists() for name in ("o", "z.csv", "m.asc"))
        write_degree_like_admin(admin, coordinate_units="meters")
        assert main(argv[command]) == 0

    def test_admin_without_units_exits_two_with_explicit_grid(self, tmp_path, scenario, capsys):
        empty = tmp_path / "empty.geojson"
        empty.write_text('{"type": "FeatureCollection", "coordinate_units": "meters", "features": []}')
        assert run_pipeline({**scenario, "admin": str(empty)}, tmp_path / "o") == 2
        assert "ERROR: ValidationError: no polygons" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "run", "filter-poi"])
    def test_admin_without_units_exits_two(self, tmp_path, argv, command, capsys):
        (tmp_path / "admin.geojson").write_text('{"type": "FeatureCollection", "features": []}')
        assert main(argv[command]) == 2
        captured = capsys.readouterr()
        assert "ERROR: ValidationError: no polygons" in captured.out + captured.err


class TestOverflowingAdminRing:
    """A 1e200 m square's shoelace area overflows float64: a GeometryError
    naming the feature, with no numpy warning and no output."""

    @pytest.mark.parametrize("command", ["validate", "zonal"])
    def test_exits_two_with_a_geometry_error(self, tmp_path, scenario, capsys, command):
        ring = [[0.0, 0.0], [1e200, 0.0], [1e200, 1e200], [0.0, 1e200], [0.0, 0.0]]
        feature = {
            "type": "Feature",
            "properties": {"id": "big", "level": "circle", "population": 10},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        }
        admin = tmp_path / "big.geojson"
        admin.write_text(json.dumps({"type": "FeatureCollection", "coordinate_units": "meters", "features": [feature]}))
        csv_path = tmp_path / "z.csv"
        argv = {
            "validate": ["validate", "--admin", str(admin)],
            "zonal": ["zonal", "--grid", scenario["mask"], "--admin", str(admin), "--out", str(csv_path)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        message = captured.out + captured.err
        assert f"ERROR: GeometryError: {admin}: feature 'big': exterior ring has an area that is not finite" in message
        assert "WARNING" not in message
        assert not csv_path.exists()


def write_nan_origin_grid(path: Path, source: str) -> None:
    text = Path(source).read_text()
    path.write_text(text.replace("XLLCORNER 0.0\n", "XLLCORNER nan\n", 1))


class TestNonFiniteGrid:
    """A grid file whose XLLCORNER is NaN cannot become a raster, in any command."""

    def test_validate_reports_it_in_its_own_object(self, tmp_path, scenario, capsys):
        nan_grid = tmp_path / "nan.asc"
        write_nan_origin_grid(nan_grid, scenario["mask"])
        for extra in ([], ["--admin", scenario["admin"]]):
            assert main(["validate", "--json", "--mask", str(nan_grid), *extra]) == 2
            out = json.loads(capsys.readouterr().out)
            assert out["status"] == "errors"
            assert out["errors"] == [f"ValidationError: {nan_grid}: TileGrid.origin_x must be a finite real number, got nan"]
            assert "mask" not in out["checked"]

    @pytest.mark.parametrize("command", ["render", "zonal", "evaluate", "run"])
    def test_command_exits_two(self, tmp_path, scenario, command, capsys):
        nan_grid = tmp_path / "nan.asc"
        write_nan_origin_grid(nan_grid, scenario["mask"])
        argv = {
            "render": ["render", "--grid", str(nan_grid), "--out", str(tmp_path / "h.pgm")],
            "zonal": ["zonal", "--grid", str(nan_grid), "--admin", scenario["admin"], "--out", str(tmp_path / "z.csv")],
            "evaluate": ["evaluate", "--predicted", str(nan_grid), "--reference", scenario["mask"]],
            "run": ["run", "--admin", scenario["admin"], "--poi", scenario["poi"], "--mask", str(nan_grid),
                    "--out", str(tmp_path / "o")],
        }[command]
        assert main(argv) == 2
        message = f"ERROR: ValidationError: {nan_grid}: TileGrid.origin_x must be a finite real number, got nan"
        assert message in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in ("h.pgm", "z.csv", "o"))


def append_byte(path: Path, source: str, byte: bytes = b"\xff") -> int:
    """Copy ``source`` to ``path`` with ``byte`` appended; return its offset."""
    data = Path(source).read_bytes()
    path.write_bytes(data + byte)
    return len(data)


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any text input is a FormatError naming the
    file and the byte's offset, with exit code 2."""

    @pytest.mark.parametrize(
        "command, role",
        [
            ("render", "mask"),
            ("validate", "mask"),
            ("validate", "poi"),
            ("validate", "admin"),
            ("run", "poi"),
            ("run", "mask"),
            ("run", "admin"),
            ("run", "config"),
            ("zonal", "admin"),
            ("filter-poi", "poi"),
        ],
    )
    def test_exits_two_with_a_format_error(self, tmp_path, scenario, capsys, command, role):
        if role == "config":
            (tmp_path / "ok.json").write_text('{"level": "circle"}')
            source = str(tmp_path / "ok.json")
        else:
            source = scenario[role]
        bad = tmp_path / ("bad" + Path(source).suffix)
        offset = append_byte(bad, source)
        paths = {**scenario, role: str(bad)}
        out = tmp_path / "out"
        argv = {
            "render": ["render", "--grid", paths["mask"], "--out", str(out)],
            "validate": ["validate", f"--{role}", str(bad)],
            "run": ["run", "--admin", paths["admin"], "--poi", paths["poi"], "--mask", paths["mask"],
                    "--out", str(out)] + (["--config", str(bad)] if role == "config" else []),
            "zonal": ["zonal", "--grid", scenario["truth"], "--admin", paths["admin"], "--out", str(out)],
            "filter-poi": ["filter-poi", "--admin", paths["admin"], "--poi", paths["poi"], "--out", str(out)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        # validate reports on stdout, every other command on stderr
        message = captured.out if command == "validate" else captured.err
        assert f"ERROR: FormatError: {bad}: not UTF-8 text: byte 0xff at offset {offset}" in message
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".csv", ".txt"])
    def test_poi_csv_names_the_offset_of_a_byte_mid_file(self, tmp_path, suffix):
        bad = tmp_path / ("poi" + suffix)
        head = "x,y,category\n" + "".join(f"{i}.5,{i}.25,shop\n" for i in range(2000))
        bad.write_bytes(head.encode() + b"9,9,caf\xe9\n")
        with pytest.raises(errors.FormatError, match=rf"not UTF-8 text: byte 0xe9 at offset {len(head) + 7}$"):
            io.read_poi(bad)

    def test_grid_header_byte(self, tmp_path, scenario):
        text = Path(scenario["mask"]).read_bytes()
        bad = tmp_path / "m.asc"
        bad.write_bytes(text.replace(b"NCOLS", b"NC\x80OLS", 1))
        with pytest.raises(errors.FormatError, match=r"not UTF-8 text: byte 0x80 at offset 2$"):
            io.read_ascii_grid(bad)


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is not part of any input's text."""

    @staticmethod
    def twin(path: Path, source: str | Path) -> Path:
        path.write_bytes(BOM + Path(source).read_bytes())
        return path

    @pytest.mark.parametrize("role", ["admin", "poi-geojson", "poi-csv", "grid", "config"])
    def test_reads_equal_its_twin_without_a_bom(self, tmp_path, data_dir, role):
        source = {
            "admin": data_dir / "admin.geojson",
            "poi-geojson": data_dir / "poi.geojson",  # found by read_poi's sniff
            "poi-csv": data_dir / "poi.csv",
            "grid": data_dir / "mask.asc",
            "config": tmp_path / "plain.json",
        }[role]
        if role == "config":
            source.write_text('{"level": "circle", "poi_radius": 55.5, "n_cols": 7}')
        bom = self.twin(tmp_path / ("bom" + source.suffix), source)
        if role == "admin":
            assert io.read_admin_units(bom) == io.read_admin_units(source)
        elif role.startswith("poi"):
            got, want = io.read_poi(bom), io.read_poi(source)
            assert (got.xs.tobytes(), got.ys.tobytes(), got.categories) == (
                want.xs.tobytes(),
                want.ys.tobytes(),
                want.categories,
            )
            assert len(io.read_poi(bom)) > 0
        elif role == "grid":
            got, want = io.read_ascii_grid(bom), io.read_ascii_grid(source)
            assert got.grid == want.grid and got.nodata_value == want.nodata_value
            assert got.values.tobytes() == want.values.tobytes()
            assert np.array_equal(got.nodata, want.nodata)
        else:
            load = lambda p: cli._load_config(argparse.Namespace(config=str(p)))  # noqa: E731
            assert load(bom) == load(source) != cli.PipelineConfig()

    def test_run_on_bom_inputs_writes_the_same_bytes(self, tmp_path, scenario, monkeypatch):
        read = []

        def spy(reader):
            def spied(path, *args, **kwargs):
                read.append(Path(path))
                return reader(path, *args, **kwargs)

            return spied

        for name in ("read_text", "read_admin_units", "read_poi", "read_ascii_grid"):
            monkeypatch.setattr(io, name, spy(getattr(io, name)))
        outs = {}
        for kind in ("plain", "bom"):
            paths = {role: scenario[role] for role in ("admin", "poi", "mask")}
            if kind == "bom":
                paths = {role: str(self.twin(tmp_path / Path(p).name, p)) for role, p in paths.items()}
            config = tmp_path / f"{kind}.json"
            config.write_text(json.dumps({**paths, "n_cols": 32, "n_rows": 32, "origin_x": 0, "origin_y": 0}))
            if kind == "bom":
                self.twin(config, config)
            outs[kind] = tmp_path / f"out-{kind}"
            read.clear()
            assert main(["run", "--config", str(config), "--out", str(outs[kind])]) == 0
            assert {config, *map(Path, paths.values())} <= set(read)
        # the bom run read only BOM-prefixed files: its config and each twin
        assert {p.read_bytes()[: len(BOM)] for p in read} == {BOM}
        for name in ("population.asc", "tile_mask.asc", "report.json"):
            assert (outs["bom"] / name).read_bytes() == (outs["plain"] / name).read_bytes()

    @pytest.mark.parametrize("name", ["admin.geojson", "poi.geojson", "poi.csv", "mask.asc"])
    def test_a_later_byte_that_is_not_utf8_keeps_its_file_offset(self, tmp_path, data_dir, name):
        bom = self.twin(tmp_path / ("bom-" + name), data_dir / name)
        bad = tmp_path / name
        offset = append_byte(bad, str(bom))
        assert offset == len(BOM) + (data_dir / name).stat().st_size
        reader = {".geojson": io.read_admin_units, ".csv": io.read_poi, ".asc": io.read_ascii_grid}[bad.suffix]
        if name == "poi.geojson":
            reader = io.read_poi
        with pytest.raises(errors.FormatError, match=rf"not UTF-8 text: byte 0xff at offset {offset}$"):
            reader(bad)


class TestFilterPoi:
    def test_explicit_grid(self, tmp_path, scenario):
        out = tmp_path / "mask_tiles.asc"
        rc = main(
            [
                "filter-poi",
                "--poi",
                scenario["poi"],
                "--out",
                str(out),
                "--origin-x",
                "0",
                "--origin-y",
                "0",
                "--n-cols",
                "32",
                "--n-rows",
                "32",
            ]
        )
        assert rc == 0
        grid = io.read_ascii_grid(out)
        assert set(np.unique(grid.values)) <= {0.0, 1.0}
        assert (grid.values == 0).sum() > 0

    def test_needs_grid_source(self, scenario, tmp_path, capsys):
        rc = main(["filter-poi", "--poi", scenario["poi"], "--out", str(tmp_path / "m.asc")])
        assert rc == 2
        assert "ERROR: ConfigurationError: filter-poi needs --admin or all of" in capsys.readouterr().err


class TestEvaluate:
    def test_self_comparison_perfect(self, scenario, capsys):
        rc = main(["evaluate", "--predicted", scenario["mask"], "--reference", scenario["mask"]])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == 1.0
        assert payload["f1"] == 1.0

    def test_misaligned_exits_two(self, tmp_path, scenario, capsys):
        other = io.Raster(origin_x=7.0, origin_y=0.0, pixel_size=15.0, values=np.ones((4, 4)))
        p = tmp_path / "other.asc"
        io.write_ascii_grid(other, p)
        rc = main(["evaluate", "--predicted", scenario["mask"], "--reference", str(p)])
        assert rc == 2
        assert "ERROR: AlignmentError: rasters do not share geometry" in capsys.readouterr().err

    def test_hand_fixture(self, tmp_path, capsys):
        ref = io.Raster(
            origin_x=0,
            origin_y=0,
            pixel_size=30.0,
            values=np.array([[0, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1], [1, 1, 1, 1]], dtype=float),
        )
        pred = io.Raster(
            origin_x=0,
            origin_y=0,
            pixel_size=30.0,
            values=np.array([[1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 1]], dtype=float),
        )
        rp, pp = tmp_path / "ref.asc", tmp_path / "pred.asc"
        io.write_ascii_grid(ref, rp)
        io.write_ascii_grid(pred, pp)
        rc = main(["evaluate", "--predicted", str(pp), "--reference", str(rp), "--out", str(tmp_path / "m.json")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["tp"], payload["fp"], payload["fn"], payload["tn"]) == (9, 1, 1, 5)
        assert payload["accuracy"] == pytest.approx(14 / 16, abs=1e-12)
        assert payload["f1"] == pytest.approx(18 / 20, abs=1e-12)
        saved = json.loads((tmp_path / "m.json").read_text())
        assert saved == payload

    @pytest.mark.parametrize("bad", ["2", "nan"])
    @pytest.mark.parametrize("role", ["--predicted", "--reference"])
    def test_non_binary_input_exits_two(self, tmp_path, capsys, bad, role):
        header = "NCOLS 2\nNROWS 2\nXLLCORNER 0.0\nYLLCORNER 0.0\nCELLSIZE 30.0\nNODATA_VALUE -9999\n"
        binary, other = tmp_path / "binary.asc", tmp_path / "other.asc"
        binary.write_text(header + "1 0\n1 1\n")
        other.write_text(header + f"1 0\n{bad} 1\n")
        inputs = {"--predicted": str(binary), "--reference": str(binary), role: str(other)}
        rc = main(["evaluate", *[a for kv in inputs.items() for a in kv], "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"ERROR: ValidationError: {other}: binary raster has 1 cells outside {{0, 1}} (e.g. {float(bad)!r})" in err
        assert "np.float64" not in err
        assert not (tmp_path / "m.json").exists()

    def test_downsampling_comparison(self, tmp_path, scenario, capsys):
        # reference at tile resolution: downsample the fine mask explicitly
        fine = io.read_ascii_grid(scenario["mask"])
        from popgrid.evaluate import downsample_to_tiles
        from popgrid.geo import TileGrid

        grid = TileGrid(0.0, 0.0, 32, 32, 30.0)
        coarse = downsample_to_tiles(fine, grid, theta=0.5)
        cp = tmp_path / "coarse.asc"
        io.write_ascii_grid(coarse, cp)
        rc = main(["evaluate", "--predicted", scenario["mask"], "--reference", str(cp), "--theta", "0.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == 1.0


class TestZonal:
    def test_rows_reconcile(self, tmp_path, scenario, capsys):
        out = tmp_path / "o"
        assert run_pipeline(scenario, out) == 0
        capsys.readouterr()  # drop the run summary
        csv_path = tmp_path / "zonal.csv"
        rc = main(
            [
                "zonal",
                "--grid",
                str(out / "population.asc"),
                "--admin",
                scenario["admin"],
                "--out",
                str(csv_path),
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "unit_id,population_sum,tile_count,built_tile_count,mean_density_per_km2"
        assert len(lines) == 2 + 5  # header + 5 units + _unassigned
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(payload["grand_total"], rel=1e-9)


class TestRender:
    def test_all_zero_grid_renders_black(self, tmp_path):
        r = io.Raster(origin_x=0, origin_y=0, pixel_size=30.0, values=np.zeros((3, 4)))
        p = tmp_path / "z.asc"
        io.write_ascii_grid(r, p)
        out = tmp_path / "z.pgm"
        assert main(["render", "--grid", str(p), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "4 3"
        assert lines[2] == "255"
        assert all(v == "0" for line in lines[3:] for v in line.split())

    def test_single_hot_tile_is_single_white_pixel(self, tmp_path):
        vals = np.zeros((3, 4))
        vals[1, 2] = 9.5
        r = io.Raster(origin_x=0, origin_y=0, pixel_size=30.0, values=vals)
        p = tmp_path / "h.asc"
        io.write_ascii_grid(r, p)
        out = tmp_path / "h.pgm"
        assert main(["render", "--grid", str(p), "--out", str(out)]) == 0
        pixels = [int(v) for line in out.read_text().strip().splitlines()[3:] for v in line.split()]
        assert pixels.count(255) == 1
        assert pixels.count(0) == 11
        # raster row 1 maps to image row 1 (rows flip top-down): index 1*4+2
        assert pixels[6] == 255

    def test_linear_and_log_share_argmax(self, tmp_path):
        rng = np.random.default_rng(9)
        vals = rng.random((6, 6)) * 1000
        vals[4, 2] = 5000.0  # unique peak
        r = io.Raster(origin_x=0, origin_y=0, pixel_size=30.0, values=vals)
        p = tmp_path / "s.asc"
        io.write_ascii_grid(r, p)
        outs = {}
        for scale in ("linear", "log"):
            out = tmp_path / f"{scale}.pgm"
            assert main(["render", "--grid", str(p), "--out", str(out), "--scale", scale]) == 0
            pixels = [
                int(v) for line in out.read_text().strip().splitlines()[3:] for v in line.split()
            ]
            outs[scale] = pixels
        assert outs["linear"] != outs["log"]
        assert outs["linear"].index(255) == outs["log"].index(255)

    def test_p5_binary_output(self, tmp_path):
        vals = np.array([[0.0, 1.0], [2.0, 4.0]])
        r = io.Raster(origin_x=0, origin_y=0, pixel_size=30.0, values=vals)
        p = tmp_path / "b.asc"
        io.write_ascii_grid(r, p)
        out = tmp_path / "b.pgm"
        assert main(["render", "--grid", str(p), "--out", str(out), "--format", "p5"]) == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        # top row of the image is the northern raster row [2, 4] -> [128, 255]
        assert list(data[-4:]) == [128, 255, 0, 64]

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_non_finite_data_cell_exits_two(self, tmp_path, capsys, bad):
        vals = np.array([[0.0, 1.0, -9999.0], [2.0, bad, 4.0]])
        p = tmp_path / "bad.asc"
        io.write_ascii_grid(io.Raster(origin_x=0, origin_y=0, pixel_size=30.0, values=vals), p)
        out = tmp_path / "bad.pgm"
        assert main(["render", "--grid", str(p), "--out", str(out)]) == 2
        assert "ERROR: ValidationError: cannot render 1 non-finite data cells" in capsys.readouterr().err
        assert not out.exists()


class TestSynthCommand:
    def test_writes_consumable_scenario(self, scenario):
        units = io.read_admin_units(scenario["admin"], expected_level="circle")
        assert len(units) == 5
        meta = json.loads(Path(scenario["meta"]).read_text())
        assert meta["seed"] == 11
        assert meta["grid"]["n_cols"] == 32

    def test_rerun_identical_bytes(self, tmp_path):
        for d in ("a", "b"):
            rc = main(["synth", "--seed", "77", "--out", str(tmp_path / d), "--extent", "480", "--n-units", "3"])
            assert rc == 0
        for name in ("admin.geojson", "poi.geojson", "mask.asc", "truth_tiles.asc", "scenario.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [("--pixel-size", "nan"), ("--tile-size", "inf"), ("--built-lo", "nan"), ("--pop-lo", "nan"), ("--pop-hi", "inf")],
    )
    def test_non_finite_size_or_range_exits_two(self, tmp_path, capsys, flag, value):
        assert main(["synth", "--seed", "1", "--out", str(tmp_path / "x"), flag, value]) == 2
        assert "ERROR: ValidationError: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("extent", ["1e300", "1e6"])
    def test_oversized_extent_exits_two(self, tmp_path, capsys, extent):
        assert main(["synth", "--seed", "1", "--out", str(tmp_path / "x"), "--extent", extent]) == 2
        err = capsys.readouterr().err
        assert "ERROR: GenerationError: " in err and "pixel limit" in err
        assert not (tmp_path / "x").exists()

    def test_infeasible_spec_exits_two(self, tmp_path, capsys):
        rc = main(
            [
                "synth",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "x"),
                "--extent",
                "480",
                "--built-lo",
                "0",
                "--built-hi",
                "0",
            ]
        )
        assert rc == 2
        assert "ERROR: GenerationError: zero built fraction cannot host a nonzero population" in capsys.readouterr().err
