"""File formats: admin polygons (GeoJSON), POIs (GeoJSON/CSV), rasters
(ESRI ASCII grid), and report output (JSON/CSV).

A raster's cells are a :class:`TileGrid` (``Raster.grid``), and
``Raster.on(grid, values)`` builds a raster on a grid; these are the only
two bridges between the descriptions, so a raster with a non-finite origin
or cell size, or an empty axis, cannot be built.

Coordinates are projected meters throughout. Files written by this module
use shortest-exact float formatting, so a write/read cycle reproduces every
value bit-for-bit. GeoJSON feature collections we emit carry a foreign
member ``"coordinate_units": "meters"``; readers reject collections whose
``crs``/``coordinate_units`` member declares a geographic (degree) system.
With ``require_projected`` (every CLI command sets it), ``read_admin_units``
also rejects degree-like coordinates in a collection declaring no meter units.

ESRI ASCII grids are written a whole row at a time under one formatting rule
per grid, and read from one whitespace split of the text after the header.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    FormatError,
    HeaderOrderWarning,
    LevelMismatchError,
    ParseError,
    SchemaError,
    TruncationError,
    ValidationError,
)
from .geo import BBox, Point, Polygon, TileGrid, parts_bbox
from .poi_filter import PoiPoint, PoiSet, TileMask

_ASCII_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_GEOGRAPHIC_TOKENS = ("4326", "wgs84", "crs84", "degree", "longlat", "geographic")
_METER_TOKENS = ("meter", "metre", "projected", "utm", "local")


class AdminLevel(str, Enum):
    TEHSIL = "tehsil"
    CHARGE = "charge"
    CIRCLE = "circle"
    BLOCK = "block"

    @classmethod
    def parse(cls, value: object) -> "AdminLevel":
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            raise SchemaError(
                f"unknown admin level {value!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class AdminUnit:
    """A census polygon (possibly multi-part) carrying a population count."""

    id: str
    level: AdminLevel
    geometry: tuple[Polygon, ...]
    population: float

    def __post_init__(self):
        object.__setattr__(self, "geometry", tuple(self.geometry))
        if not self.geometry:
            raise ValidationError(f"admin unit {self.id!r} has no geometry")
        pop = float(self.population)
        if not math.isfinite(pop) or pop < 0:
            raise ValidationError(f"admin unit {self.id!r} has invalid population {self.population!r}")
        object.__setattr__(self, "population", pop)

    @cached_property
    def bbox(self) -> BBox:
        return parts_bbox(self.geometry)


@dataclass(frozen=True)
class Raster:
    """A georeferenced value grid; row 0 is the southernmost row.

    Its cells are the tiles of ``grid``, a :class:`TileGrid` built (and so
    checked) at construction: pixel (c, r) is centered at
    (origin_x + (c+0.5)*pixel_size, origin_y + (r+0.5)*pixel_size).
    ``nodata`` masks missing cells.
    """

    origin_x: float
    origin_y: float
    pixel_size: float
    values: np.ndarray
    nodata: np.ndarray = field(default=None)  # type: ignore[assignment]
    nodata_value: float = -9999.0
    grid: TileGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ValidationError(f"raster values must be 2-D, got shape {values.shape}")
        nodata = self.nodata
        if nodata is None:
            nodata = np.zeros(values.shape, dtype=bool)
        nodata = np.asarray(nodata, dtype=bool)
        if nodata.shape != values.shape:
            raise ValidationError("nodata mask shape does not match values")
        grid = TileGrid(self.origin_x, self.origin_y, values.shape[1], values.shape[0], self.pixel_size)
        values.setflags(write=False)
        nodata.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "nodata", nodata)
        object.__setattr__(self, "grid", grid)

    @classmethod
    def on(cls, grid: TileGrid, values, nodata=None, nodata_value: float = -9999.0):
        """A raster whose cells are the tiles of ``grid``."""
        raster = cls(grid.origin_x, grid.origin_y, grid.tile_size, values, nodata, nodata_value)
        if raster.grid != grid:
            raise ValidationError(
                f"raster values shape {raster.values.shape} does not match grid {grid.n_rows}x{grid.n_cols}"
            )
        return raster

    @property
    def n_rows(self) -> int:
        return self.grid.n_rows

    @property
    def n_cols(self) -> int:
        return self.grid.n_cols


class BinaryRaster(Raster):
    """A raster whose valid cells are exactly 0 or 1 (the built-up mask)."""

    def __post_init__(self):
        super().__post_init__()
        valid = self.values[~self.nodata]
        if valid.size and not np.all((valid == 0) | (valid == 1)):
            bad = valid[(valid != 0) & (valid != 1)]
            raise ValidationError(
                f"binary raster has {bad.size} cells outside {{0, 1}} (e.g. {float(bad.flat[0])!r})"
            )

    @classmethod
    def from_raster(cls, raster: Raster) -> "BinaryRaster":
        return cls.on(raster.grid, raster.values, raster.nodata, raster.nodata_value)


@dataclass(frozen=True)
class PopulationGrid:
    """Per-tile population estimates on a TileGrid."""

    grid: TileGrid
    values: np.ndarray  # float64, shape (n_rows, n_cols)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.n_rows, self.grid.n_cols):
            raise ValidationError(
                f"population values shape {values.shape} does not match grid "
                f"{self.grid.n_rows}x{self.grid.n_cols}"
            )
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValidationError("population values must be finite and non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def total(self) -> float:
        return float(self.values.sum())

    def as_raster(self) -> Raster:
        return Raster.on(self.grid, self.values)


# ---------------------------------------------------------------------------
# GeoJSON
# ---------------------------------------------------------------------------


def _load_json(path: str | Path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e.msg}", line=e.lineno, column=e.colno) from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level JSON value must be an object")
    return doc


def _reject_geographic(doc: dict, path: str | Path, units: Sequence[AdminUnit] = ()) -> None:
    """Reject a collection that declares degrees; given ``units``, also one that
    declares no meter units while the units' bbox fits in lon/lat ranges."""
    val = next((doc[k] for k in ("coordinate_units", "crs") if doc.get(k) is not None), "")
    declared = json.dumps(val) if isinstance(val, (dict, list)) else str(val)
    low = declared.lower()
    if any(tok in low for tok in _GEOGRAPHIC_TOKENS):
        raise ValidationError(
            f"{path}: coordinates declared as geographic degrees ({declared!r}); "
            "popgrid requires a projected meter CRS"
        )
    if not units or any(tok in low for tok in _METER_TOKENS):
        return
    box = parts_bbox([p for u in units for p in u.geometry])
    if -180.0 <= box.min_x <= box.max_x <= 180.0 and -90.0 <= box.min_y <= box.max_y <= 90.0:
        raise ConfigurationError(
            f"{path}: coordinates fit inside longitude/latitude ranges and the file "
            "does not declare coordinate_units 'meters'; reproject to a planar meter CRS "
            "(or add the declaration) before running"
        )


def _features(doc: dict, path: str | Path) -> list[dict]:
    if doc.get("type") != "FeatureCollection":
        raise SchemaError(f"{path}: expected a FeatureCollection, got {doc.get('type')!r}")
    feats = doc.get("features")
    if not isinstance(feats, list):
        raise SchemaError(f"{path}: FeatureCollection has no features array")
    return feats


def _coord_pair(value: object, where: str) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise SchemaError(f"{where}: coordinate must be an [x, y] array, got {value!r}")
    try:
        return Point(value[0], value[1])
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from None


def _polygon_from_rings(rings: object, where: str) -> Polygon:
    if not isinstance(rings, list) or not rings:
        raise SchemaError(f"{where}: Polygon coordinates must be a non-empty ring array")
    parsed = []
    for ring in rings:
        if not isinstance(ring, list):
            raise SchemaError(f"{where}: ring must be an array of positions")
        parsed.append([_coord_pair(v, where) for v in ring])
    return Polygon(exterior=parsed[0], holes=tuple(parsed[1:]))


def _geometry_parts(geom: object, where: str) -> tuple[Polygon, ...]:
    if not isinstance(geom, dict):
        raise SchemaError(f"{where}: feature has no geometry object")
    gtype = geom.get("type")
    coords = geom.get("coordinates")
    if gtype == "Polygon":
        return (_polygon_from_rings(coords, where),)
    if gtype == "MultiPolygon":
        if not isinstance(coords, list) or not coords:
            raise SchemaError(f"{where}: MultiPolygon coordinates must be a non-empty array")
        return tuple(_polygon_from_rings(rings, where) for rings in coords)
    raise SchemaError(f"{where}: unsupported geometry type {gtype!r} (expected Polygon/MultiPolygon)")


def _required_property(props: object, key: str, where: str) -> object:
    if not isinstance(props, dict) or key not in props or props[key] is None:
        raise SchemaError(f"{where}: missing required property {key!r}")
    return props[key]


def read_admin_units(
    path: str | Path, expected_level: AdminLevel | str | None = None, *, require_projected: bool = False
) -> list[AdminUnit]:
    """Read admin polygons from a GeoJSON FeatureCollection.

    Every feature needs properties ``id``, ``level`` and ``population`` and a
    Polygon/MultiPolygon geometry. When ``expected_level`` is given, all
    features must carry it; otherwise they must all share one level. With
    ``require_projected``, degree-like coordinates are a ``ConfigurationError``.
    """
    doc = _load_json(path)
    _reject_geographic(doc, path)
    if expected_level is not None and not isinstance(expected_level, AdminLevel):
        expected_level = AdminLevel.parse(expected_level)
    units: list[AdminUnit] = []
    seen_ids: set[str] = set()
    level_seen: AdminLevel | None = expected_level
    for i, feat in enumerate(_features(doc, path)):
        if not isinstance(feat, dict):
            raise SchemaError(f"{path}: feature #{i} is not an object")
        props = feat.get("properties")
        raw_id = _required_property(props, "id", f"{path}: feature #{i}")
        fid = str(raw_id)
        where = f"{path}: feature {fid!r}"
        level = AdminLevel.parse(_required_property(props, "level", where))
        if level_seen is None:
            level_seen = level
        elif level != level_seen:
            raise LevelMismatchError(
                f"{where}: level {level.value!r} does not match expected {level_seen.value!r}"
            )
        raw_pop = _required_property(props, "population", where)
        try:
            population = float(raw_pop)
        except (TypeError, ValueError):
            raise SchemaError(f"{where}: population {raw_pop!r} is not a number") from None
        if fid in seen_ids:
            raise ValidationError(f"{where}: duplicate admin unit id")
        seen_ids.add(fid)
        geometry = _geometry_parts(feat.get("geometry"), where)
        try:
            units.append(AdminUnit(id=fid, level=level, geometry=geometry, population=population))
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}") from None
    if require_projected:
        _reject_geographic(doc, path, units)
    return units


def write_admin_units(units: Sequence[AdminUnit], path: str | Path) -> None:
    features = []
    for u in units:
        if len(u.geometry) == 1:
            geom = {"type": "Polygon", "coordinates": _rings_to_coords(u.geometry[0])}
        else:
            geom = {
                "type": "MultiPolygon",
                "coordinates": [_rings_to_coords(p) for p in u.geometry],
            }
        features.append(
            {
                "type": "Feature",
                "properties": {"id": u.id, "level": u.level.value, "population": u.population},
                "geometry": geom,
            }
        )
    doc = {"type": "FeatureCollection", "coordinate_units": "meters", "features": features}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _rings_to_coords(poly: Polygon) -> list[list[list[float]]]:
    rings = [poly.exterior] + list(poly.holes)
    out = []
    for ring in rings:
        coords = [[p.x, p.y] for p in ring]
        coords.append(coords[0])  # close per GeoJSON convention
        out.append(coords)
    return out


def read_poi(path: str | Path) -> PoiSet:
    """Read POIs from GeoJSON (Point features) or CSV (header x,y,category).

    The format is chosen by extension (.csv) with a content sniff fallback.
    An empty collection or a header-only CSV yields an empty set.
    """
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return _read_poi_csv(p)
    with open(p, encoding="utf-8") as fh:
        head = fh.read(200).lstrip()
    if head.startswith("{"):
        return _read_poi_geojson(p)
    return _read_poi_csv(p)


def _read_poi_geojson(path: Path) -> PoiSet:
    doc = _load_json(path)
    _reject_geographic(doc, path)
    points = []
    for i, feat in enumerate(_features(doc, path)):
        if not isinstance(feat, dict):
            raise SchemaError(f"{path}: feature #{i} is not an object")
        geom = feat.get("geometry")
        if not isinstance(geom, dict) or geom.get("type") != "Point":
            got = geom.get("type") if isinstance(geom, dict) else None
            raise SchemaError(f"{path}: feature #{i}: POI geometry must be Point, got {got!r}")
        loc = _coord_pair(geom.get("coordinates"), f"{path}: feature #{i}")
        props = feat.get("properties") or {}
        category = str(props.get("category", "") or "")
        points.append(PoiPoint(location=loc, category=category))
    return PoiSet(points)


def _read_poi_csv(path: Path) -> PoiSet:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return PoiSet(())
        header = [h.strip().lower() for h in header]
        if header[:2] != ["x", "y"]:
            raise SchemaError(f"{path}: expected CSV header x,y[,category], got {header}")
        has_category = len(header) > 2 and header[2] == "category"
        points = []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise SchemaError(f"{path}: row {row_no}: expected at least x,y")
            try:
                x = float(row[0])
                y = float(row[1])
            except ValueError:
                raise ValidationError(
                    f"{path}: row {row_no}: unparseable coordinate {row[:2]!r}"
                ) from None
            try:
                loc = Point(x, y)
            except ValidationError as e:
                raise ValidationError(f"{path}: row {row_no}: {e}") from None
            category = row[2].strip() if has_category and len(row) > 2 else ""
            points.append(PoiPoint(location=loc, category=category))
    return PoiSet(points)


def write_poi_csv(pois: Iterable[PoiPoint], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "category"])
        for p in pois:
            writer.writerow([repr(p.location.x), repr(p.location.y), p.category])


def write_poi_geojson(pois: Iterable[PoiPoint], path: str | Path) -> None:
    features = [
        {
            "type": "Feature",
            "properties": {"category": p.category},
            "geometry": {"type": "Point", "coordinates": [p.location.x, p.location.y]},
        }
        for p in pois
    ]
    doc = {"type": "FeatureCollection", "coordinate_units": "meters", "features": features}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# ESRI ASCII grid
# ---------------------------------------------------------------------------


def read_ascii_grid(path: str | Path) -> Raster:
    """Read an ESRI ASCII grid.

    Header keys are matched case-insensitively by name; all six canonical
    keys (NCOLS, NROWS, XLLCORNER, YLLCORNER, CELLSIZE, NODATA_VALUE) are
    required. An unconventional key order is accepted with a warning. Values
    follow row-major from the top (northern) row down.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    header: dict[str, float] = {}
    order: list[str] = []
    for line_no, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        key = parts[0].lower()
        if key in _ASCII_HEADER_KEYS and len(header) < len(_ASCII_HEADER_KEYS):
            if len(parts) != 2:
                raise FormatError(f"{path}: header line {line_no + 1} must be 'KEY value'")
            if key in header:
                raise FormatError(f"{path}: duplicate header key {parts[0]!r}")
            try:
                header[key] = float(parts[1])
            except ValueError:
                raise FormatError(
                    f"{path}: header key {parts[0]!r} has non-numeric value {parts[1]!r}"
                ) from None
            order.append(key)
        else:
            break
    missing = [k for k in _ASCII_HEADER_KEYS if k not in header]
    if missing:
        raise FormatError(f"{path}: missing header keys {[m.upper() for m in missing]}")
    if tuple(order) != _ASCII_HEADER_KEYS:
        warnings.warn(
            f"{path}: header keys in unconventional order {[k.upper() for k in order]}",
            HeaderOrderWarning,
            stacklevel=2,
        )
    for key in ("ncols", "nrows"):
        if not header[key].is_integer() or header[key] < 1:
            raise FormatError(f"{path}: {key.upper()} must be a positive integer, got {header[key]}")
    n_cols = int(header["ncols"])
    n_rows = int(header["nrows"])
    cellsize = header["cellsize"]
    if cellsize <= 0:
        raise FormatError(f"{path}: CELLSIZE must be positive, got {cellsize}")
    # An accepted header line holds two tokens, a skipped one none, and every
    # line separator is whitespace to str.split: the rest are the body's.
    del lines
    tokens = text.split()
    del text
    del tokens[: 2 * len(header)]
    expected = n_cols * n_rows
    if len(tokens) != expected:
        raise TruncationError(f"{path}: expected {expected} values, found {len(tokens)}")
    # Parse in file order (the first bad value is named) into the south-up array,
    # made while the tokens live: freeing them first raises malloc's mmap
    # threshold, puts the array on the heap and raised the peak RSS of `run`.
    values = np.empty((n_rows, n_cols))
    cells = map(float, tokens)
    try:
        for r in range(n_rows - 1, -1, -1):  # file is top row first; store south-up
            values[r] = np.fromiter(cells, np.float64, n_cols)
    except ValueError as e:
        raise FormatError(f"{path}: non-numeric grid value ({e})") from None
    del cells, tokens
    nodata_value = header["nodata_value"]
    nodata = values == nodata_value
    values[nodata] = 0.0
    try:
        return Raster(header["xllcorner"], header["yllcorner"], cellsize, values, nodata, nodata_value)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def _row_formatter(values: np.ndarray):
    """The row formatter for a grid of ``values``: ``str`` of the int64 cast
    when every value is an integer below 2**53 in magnitude, else
    shortest-exact ``repr``."""
    if np.isfinite(values).all() and (values == np.floor(values)).all() and (np.abs(values) < 2**53).all():
        return lambda row: map(str, row.astype(np.int64).tolist())
    return lambda row: map(repr, row.tolist())


def write_ascii_grid(obj: Raster | PopulationGrid, path: str | Path) -> None:
    """Write a raster or population grid as an ESRI ASCII grid.

    Integer-valued grids are written as integers; reals use shortest exact
    float formatting so a read of the written file reproduces each value
    bit-for-bit. The rule is chosen once for the whole grid, and once for
    the nodata value on its own.
    """
    raster = obj.as_raster() if isinstance(obj, PopulationGrid) else obj
    values = np.asarray(raster.values, dtype=np.float64)
    na = np.array([raster.nodata_value], dtype=np.float64)
    (na_token,) = _row_formatter(na)(na)
    out = [
        f"NCOLS {raster.n_cols}",
        f"NROWS {raster.n_rows}",
        f"XLLCORNER {repr(float(raster.origin_x))}",
        f"YLLCORNER {repr(float(raster.origin_y))}",
        f"CELLSIZE {repr(float(raster.pixel_size))}",
        f"NODATA_VALUE {na_token}",
    ]
    format_row = _row_formatter(values)
    for row, row_na in zip(values[::-1], raster.nodata[::-1]):  # top row first
        tokens = list(format_row(row))
        for c in np.flatnonzero(row_na).tolist():
            tokens[c] = na_token
        out.append(" ".join(tokens))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def raster_from_tile_mask(mask: TileMask) -> Raster:
    """Retained flags as a 0/1 raster at tile resolution (1 = retained)."""
    return Raster.on(mask.grid, mask.retained.astype(np.float64))


def population_grid_from_raster(raster: Raster) -> PopulationGrid:
    """Interpret a tile-resolution raster as a population grid.

    Nodata cells become 0; negative values are rejected.
    """
    values = np.where(raster.nodata, 0.0, np.asarray(raster.values, dtype=np.float64))
    return PopulationGrid(grid=raster.grid, values=values)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def write_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8")


def write_zonal_csv(rows: Iterable, path: str | Path) -> None:
    """Write ZonalRow records (see evaluate module) as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["unit_id", "population_sum", "tile_count", "built_tile_count", "mean_density_per_km2"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.unit_id,
                    repr(row.population_sum),
                    row.tile_count,
                    row.built_tile_count,
                    repr(row.mean_density),
                ]
            )
