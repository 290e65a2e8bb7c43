"""Command-line front end for the disaggregation pipeline.

Subcommands: validate, run, filter-poi, evaluate, zonal, render, synth.
Exit codes: 0 success, 1 completed with warnings, 2 error. With --json a
machine-readable object is printed to stdout instead of prose.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

from . import disaggregate, evaluate, io, render, synth
from .errors import AlignmentError, ConfigurationError, ParameterError, PopgridError, ValidationError
from .geo import BBox, TileGrid, as_real, parts_bbox
from .poi_filter import compute_tile_mask

DEFAULT_TILE_SIZE = 30.0
DEFAULT_POI_RADIUS = 500.0
DEFAULT_POI_THRESHOLD = 5
DEFAULT_THETA = 0.5
# 64x the 512 x 512 tiles of the benchmark city, or about 15,000 km2 of 30 m
# tiles. `run` holds several tile-sized arrays at once (up to 8 bytes a tile),
# so a larger grid is refused before any of them exists.
MAX_TILES = 2**24


@dataclass
class PipelineConfig:
    """Settings for the run/filter-poi commands; a JSON config file mirrors
    these field names and explicit flags override the file."""

    admin: str | None = None
    poi: str | None = None
    mask: str | None = None
    out: str | None = None
    level: str = io.AdminLevel.CIRCLE.value
    tile_size: float = DEFAULT_TILE_SIZE
    poi_radius: float = DEFAULT_POI_RADIUS
    poi_threshold: int = DEFAULT_POI_THRESHOLD
    origin_x: float | None = None
    origin_y: float | None = None
    n_cols: int | None = None
    n_rows: int | None = None
    workers: int = 1


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        text = io.read_text(config_path)
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"{config_path}: invalid JSON config ({e.msg})") from None
        except ValueError as e:  # an integer literal past Python's int-to-str digit limit
            raise ConfigurationError(f"{config_path}: invalid JSON config ({e})") from None
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{config_path}: a config file must hold a JSON object")
        known = {f.name for f in fields(PipelineConfig)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"{config_path}: unknown config keys {sorted(unknown)}")
        cfg = replace(cfg, **raw)
    overrides = {}
    for f in fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    # n_cols/n_rows (TileGrid) and poi_radius/poi_threshold (poi_filter) are
    # type-checked where they are used; the level's value by AdminLevel.
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in ("admin", "poi", "mask", "out") and value is not None and not isinstance(value, str):
            raise ConfigurationError(f"{f.name} must be a path string, got {value!r}")
        if f.name == "level" and not isinstance(value, str):
            raise ConfigurationError(f"level must be an admin level name, got {value!r}")
        if f.name in ("origin_x", "origin_y") and value is not None and not math.isfinite(as_real(value)):
            raise ParameterError(f"{f.name} must be a finite number, got {value!r}")
    if not (math.isfinite(as_real(cfg.tile_size)) and cfg.tile_size > 0):
        raise ParameterError(f"tile size must be a positive finite number, got {cfg.tile_size!r}")
    if isinstance(cfg.workers, bool) or not isinstance(cfg.workers, numbers.Integral) or cfg.workers < 1:
        raise ParameterError(f"workers must be an integer of at least 1, got {cfg.workers!r}")
    return cfg


def _tile_floor(coord: float, ts: float) -> float:
    """The tile edge at or below ``coord``; a tile index beyond the float
    range is refused before ``math.floor`` sees it."""
    index = coord / ts
    if not math.isfinite(index):
        raise ParameterError(f"tile size {ts!r} is too small to place a grid origin at {coord!r}")
    return math.floor(index) * ts


def _derive_grid(cfg: PipelineConfig, units=None) -> TileGrid:
    ts = cfg.tile_size
    if None in (cfg.origin_x, cfg.origin_y, cfg.n_cols, cfg.n_rows):
        if units is None:
            raise ConfigurationError("filter-poi needs --admin or all of --origin-x/--origin-y/--n-cols/--n-rows")
        box = parts_bbox([p for u in units for p in u.geometry])
    origin_x = cfg.origin_x if cfg.origin_x is not None else _tile_floor(box.min_x, ts)
    origin_y = cfg.origin_y if cfg.origin_y is not None else _tile_floor(box.min_y, ts)
    cap = MAX_TILES + 1  # an overflowing quotient still rounds up, and still exceeds the limit
    n_cols = cfg.n_cols if cfg.n_cols is not None else max(1, math.ceil(min((box.max_x - origin_x) / ts, cap)))
    n_rows = cfg.n_rows if cfg.n_rows is not None else max(1, math.ceil(min((box.max_y - origin_y) / ts, cap)))
    grid = TileGrid(origin_x=origin_x, origin_y=origin_y, n_cols=n_cols, n_rows=n_rows, tile_size=ts)
    if grid.n_tiles > MAX_TILES:
        raise ParameterError(f"a grid of {n_cols} x {n_rows} tiles exceeds the {MAX_TILES}-tile limit")
    return grid


def _read_binary(path: str) -> io.BinaryRaster:
    """The 0/1 raster at ``path``; a ValidationError names the file."""
    raster = io.read_ascii_grid(path)
    try:
        return io.BinaryRaster.from_raster(raster)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    errors: list[str] = []
    warns: list[str] = []
    checked: dict[str, dict] = {}
    admin_box = None
    mask_raster = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.admin:
            try:
                units = io.read_admin_units(args.admin, expected_level=args.level)
                admin_box = parts_bbox([p for u in units for p in u.geometry])
                checked["admin"] = {
                    "units": len(units),
                    "bbox": [admin_box.min_x, admin_box.min_y, admin_box.max_x, admin_box.max_y],
                    "population_total": float(sum(u.population for u in units)),
                }
            except (PopgridError, OSError) as e:
                errors.append(f"{type(e).__name__}: {e}")
        if args.poi:
            try:
                pois = io.read_poi(args.poi)
                checked["poi"] = {"points": len(pois)}
            except (PopgridError, OSError) as e:
                errors.append(f"{type(e).__name__}: {e}")
        if args.mask:
            try:
                mask_raster = _read_binary(args.mask)
                checked["mask"] = {
                    "n_cols": mask_raster.n_cols,
                    "n_rows": mask_raster.n_rows,
                    "pixel_size": mask_raster.pixel_size,
                }
            except (PopgridError, OSError) as e:
                errors.append(f"{type(e).__name__}: {e}")
        if admin_box is not None and mask_raster is not None:
            if not admin_box.intersects(mask_raster.grid.extent()):
                errors.append("ConfigurationError: admin polygons and built-up mask have disjoint extents")
    warns.extend(str(w.message) for w in caught)
    if not (args.admin or args.poi or args.mask):
        errors.append("ConfigurationError: nothing to validate: pass --admin, --poi and/or --mask")
    code = 2 if errors else (1 if warns else 0)
    status = {0: "ok", 1: "warnings", 2: "errors"}[code]
    if args.json:
        print(json.dumps({"status": status, "errors": errors, "warnings": warns, "checked": checked}, indent=2))
    else:
        for e in errors:
            print(f"ERROR: {e}")
        for w in warns:
            print(f"WARNING: {w}")
        print(f"validate: {status}")
    return code


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    for name in ("admin", "poi", "mask", "out"):
        if getattr(cfg, name) is None:
            raise ConfigurationError(f"run needs --{name} (or a config file entry)")
    t0 = time.perf_counter()
    units = io.read_admin_units(cfg.admin, expected_level=cfg.level)
    if not units:
        raise ValidationError(f"no polygons in {cfg.admin}: run needs at least one admin unit")
    pois = io.read_poi(cfg.poi)
    mask = _read_binary(cfg.mask)
    grid = _derive_grid(cfg, units)
    tile_mask = compute_tile_mask(grid, pois, cfg.poi_radius, cfg.poi_threshold)
    pop_grid, report = disaggregate.run_disaggregation(mask, grid, units, tile_mask)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pop_path = out_dir / "population.asc"
    mask_path = out_dir / "tile_mask.asc"
    report_path = out_dir / "report.json"
    io.write_ascii_grid(pop_grid, pop_path)
    io.write_ascii_grid(io.raster_from_tile_mask(tile_mask), mask_path)
    payload = report.to_dict()
    payload["parameters"] = {
        "tile_size": grid.tile_size,
        "poi_radius": cfg.poi_radius,
        "poi_threshold": cfg.poi_threshold,
        "grid": {
            "origin_x": grid.origin_x,
            "origin_y": grid.origin_y,
            "n_cols": grid.n_cols,
            "n_rows": grid.n_rows,
        },
        "tiles_excluded": tile_mask.n_excluded,
    }
    payload["outputs"] = {"population": pop_path.name, "tile_mask": mask_path.name}
    io.write_json(payload, report_path)
    elapsed = time.perf_counter() - t0
    print(f"run: finished in {elapsed:.2f}s", file=sys.stderr)
    _emit(
        args,
        payload,
        f"population total {report.population_out_total:.3f} over {grid.n_cols}x{grid.n_rows} tiles "
        f"({tile_mask.n_excluded} excluded); report: {report_path}",
    )
    return 0


def cmd_filter_poi(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if cfg.poi is None or cfg.out is None:
        raise ConfigurationError("filter-poi needs --poi and --out")
    pois = io.read_poi(cfg.poi)
    units = None
    if cfg.admin is not None:
        units = io.read_admin_units(cfg.admin, expected_level=cfg.level)
    grid = _derive_grid(cfg, units)
    tile_mask = compute_tile_mask(grid, pois, cfg.poi_radius, cfg.poi_threshold)
    io.write_ascii_grid(io.raster_from_tile_mask(tile_mask), cfg.out)
    _emit(
        args,
        {
            "tiles": grid.n_tiles,
            "excluded": tile_mask.n_excluded,
            "out": str(cfg.out),
        },
        f"tile mask: {tile_mask.n_excluded} of {grid.n_tiles} tiles excluded -> {cfg.out}",
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    predicted = _read_binary(args.predicted)
    reference = _read_binary(args.reference)
    if predicted.grid == reference.grid:
        counts = evaluate.confusion(predicted, reference)
    elif predicted.pixel_size < reference.pixel_size:
        ratio = reference.pixel_size / predicted.pixel_size
        if (
            abs(ratio - round(ratio)) > 1e-9
            or predicted.origin_x != reference.origin_x
            or predicted.origin_y != reference.origin_y
            or predicted.n_cols != reference.n_cols * round(ratio)
            or predicted.n_rows != reference.n_rows * round(ratio)
        ):
            raise AlignmentError(
                "predicted raster cannot be downsampled onto the reference grid "
                "(origins must match and cell sizes nest evenly)"
            )
        coarse = evaluate.downsample_to_tiles(predicted, reference.grid, theta=args.theta)
        counts = evaluate.confusion(coarse, reference)
    else:
        raise AlignmentError(
            "rasters do not share geometry and the prediction is not finer than the reference"
        )
    m = evaluate.metrics(counts)
    payload = m.to_dict(counts)
    if args.out:
        io.write_json(payload, args.out)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_zonal(args: argparse.Namespace) -> int:
    pop = io.population_grid_from_raster(io.read_ascii_grid(args.grid))
    units = io.read_admin_units(args.admin, expected_level=args.level)
    built = io.read_ascii_grid(args.built) if args.built else None
    rows = evaluate.zonal_stats(pop, units, built=built)
    io.write_zonal_csv(rows, args.out)
    payload = {
        "rows": len(rows),
        "grand_total": pop.total(),
        "assigned_total": float(sum(r.population_sum for r in rows[:-1])),
        "unassigned_total": rows[-1].population_sum,
        "out": str(args.out),
    }
    _emit(
        args,
        payload,
        f"zonal: {len(rows)} rows (grand total {pop.total():.3f}) -> {args.out}",
    )
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    raster = io.read_ascii_grid(args.grid)
    render.render_pgm(raster, args.out, scale=args.scale, fmt=args.format)
    _emit(
        args,
        {"out": str(args.out), "scale": args.scale, "format": args.format},
        f"render: {args.grid} -> {args.out} ({args.format}, {args.scale})",
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    extent = BBox(0.0, 0.0, args.extent, args.extent)
    spec = synth.ScenarioSpec(
        seed=args.seed,
        extent=extent,
        n_units=args.n_units,
        built_fraction_range=(args.built_lo, args.built_hi),
        n_poi_clusters=args.clusters,
        poi_cluster_size_range=(args.cluster_lo, args.cluster_hi),
        population_range=(args.pop_lo, args.pop_hi),
        tile_size=args.tile_size if args.tile_size is not None else DEFAULT_TILE_SIZE,
        pixel_size=args.pixel_size,
        n_scattered_pois=args.scattered,
    )
    truth = synth.generate(spec)
    paths = synth.write_scenario(truth, args.out)
    _emit(
        args,
        {"seed": args.seed, "paths": paths, "total_population": truth.total_population()},
        f"synth: seed {args.seed}, {len(truth.units)} units, "
        f"{len(truth.pois)} POIs, total population {truth.total_population():.3f} -> {args.out}",
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file mirroring the pipeline settings")
    p.add_argument("--admin", help="admin polygons (GeoJSON)")
    p.add_argument("--poi", help="POI points (GeoJSON or CSV)")
    p.add_argument("--mask", help="built-up mask (ESRI ASCII grid)")
    p.add_argument("--out", help="output path")
    p.add_argument("--level", default=None, help="admin level of the input (default circle)")
    p.add_argument("--tile-size", dest="tile_size", type=float, default=None)
    p.add_argument("--poi-radius", dest="poi_radius", type=float, default=None)
    p.add_argument("--poi-threshold", dest="poi_threshold", type=int, default=None)
    p.add_argument("--origin-x", dest="origin_x", type=float, default=None)
    p.add_argument("--origin-y", dest="origin_y", type=float, default=None)
    p.add_argument("--n-cols", dest="n_cols", type=int, default=None)
    p.add_argument("--n-rows", dest="n_rows", type=int, default=None)
    p.add_argument("--workers", type=int, default=None, help="accepted and ignored: popgrid runs on one thread")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popgrid",
        description="Distribute admin-unit census counts onto a square tile grid, "
        "weighted by built-up pixels, with POI-density exclusion of non-residential tiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema/CRS/extent checks on input files")
    p.add_argument("--admin")
    p.add_argument("--poi")
    p.add_argument("--mask")
    p.add_argument("--level", default=io.AdminLevel.CIRCLE.value)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="full pipeline: ingest, POI filter, allocate, write outputs")
    _add_config_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("filter-poi", help="compute and write the tile retention mask")
    _add_config_flags(p)
    p.set_defaults(func=cmd_filter_poi)

    p = sub.add_parser("evaluate", help="confusion metrics between two binary rasters")
    p.add_argument("--predicted", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--theta", type=float, default=DEFAULT_THETA, help="built fraction for downsampling")
    p.add_argument("--out", help="also write the metrics JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("zonal", help="sum a population grid per admin unit")
    p.add_argument("--grid", required=True, help="population grid (ESRI ASCII)")
    p.add_argument("--admin", required=True)
    p.add_argument("--built", help="optional tile-resolution 0/1 raster for built tile counts")
    p.add_argument("--level", default=io.AdminLevel.CIRCLE.value)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_zonal)

    p = sub.add_parser("render", help="render a grid to a grayscale PGM image")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("--format", choices=("p2", "p5", "P2", "P5"), default="P2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("synth", help="generate a synthetic scenario in pipeline formats")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--extent", type=float, default=3840.0, help="square extent side in meters")
    p.add_argument("--n-units", dest="n_units", type=int, default=12)
    p.add_argument("--built-lo", dest="built_lo", type=float, default=0.15)
    p.add_argument("--built-hi", dest="built_hi", type=float, default=0.55)
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--cluster-lo", dest="cluster_lo", type=int, default=5)
    p.add_argument("--cluster-hi", dest="cluster_hi", type=int, default=12)
    p.add_argument("--pop-lo", dest="pop_lo", type=float, default=500.0)
    p.add_argument("--pop-hi", dest="pop_hi", type=float, default=5000.0)
    p.add_argument("--scattered", type=int, default=0)
    p.add_argument("--tile-size", dest="tile_size", type=float, default=None)
    p.add_argument("--pixel-size", dest="pixel_size", type=float, default=15.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func is cmd_validate:
            return cmd_validate(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.func(args)
        for w in caught:
            print(f"WARNING: {w.message}", file=sys.stderr)
        if code == 0 and caught:
            code = 1
        return code
    except (PopgridError, OSError) as e:
        if getattr(args, "json", False):
            print(json.dumps({"status": "error", "error": type(e).__name__, "message": str(e)}))
        else:
            print(f"ERROR: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
