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
``crs``/``coordinate_units`` member declares a geographic (degree) system,
and ``read_admin_units`` also rejects degree-like coordinates in a collection
declaring no meter units.
GeoJSON readers check each ring's positions, and the POI file's position
column, in bulk with numpy under the ``geo.as_real`` rule; only a refused
input goes through the per-position check, which names the first fault.
Rings and POIs go on as float arrays (``Polygon.rings``, ``PoiSet(xs, ys,
categories)``); writers format those arrays from ``tolist()``.

ESRI ASCII grids are read a line at a time, never holding a string per cell:
numpy parses a body laid out one grid row per line, and the streamed reader
every other body, with the same values and the same error messages. They are
written in blocks of rows under one formatting rule per grid, each distinct
value of a block formatted once. Every text input may start with a UTF-8
byte-order mark.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    FormatError,
    GeometryError,
    HeaderOrderWarning,
    LevelMismatchError,
    ParseError,
    SchemaError,
    TruncationError,
    ValidationError,
)
from .geo import BBox, Polygon, TileGrid, _require_finite, as_real, parts_bbox
from .poi_filter import PoiSet, TileMask

_ASCII_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_GEOGRAPHIC_TOKENS = ("4326", "wgs84", "crs84", "degree", "longlat", "geographic")
_METER_TOKENS = ("meter", "metre", "projected", "utm", "local")
_RULE_BLOCK = 2**14  # grid cells tested at once for the integer formatting rule
_WRITE_BLOCK = 2**12  # grid cells formatted at once


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
        pop = as_real(self.population)
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
        ok = self.values == 0  # checked in place: one byte a cell, no copy of the values
        ok |= self.values == 1
        ok |= self.nodata
        if not ok.all():
            bad = self.values[~ok]
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


def _not_utf8(path: str | Path) -> FormatError:
    """The error for a file that does not decode as UTF-8, naming the first
    offending byte and its offset."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        return FormatError(f"{path}: not UTF-8 text: byte {data[e.start]:#04x} at offset {e.start}")
    return FormatError(f"{path}: not UTF-8 text")  # the file changed since the failed read


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``, without a leading byte-order mark; a byte
    that is not UTF-8 is a ``FormatError``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _utf8_lines(fh, path: str | Path):
    """The lines of the text file ``fh`` opened on ``path``; a byte that is
    not UTF-8 is a ``FormatError``."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _load_json(path: str | Path) -> dict:
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e.msg}", line=e.lineno, column=e.colno) from None
    except ValueError as e:  # an integer literal past Python's int-to-str digit limit
        raise ParseError(f"{path}: {e}") from None
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


def _coord_pair(value: object, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise SchemaError(f"{where}: coordinate must be an [x, y] array, got {value!r}")
    return _finite_pair(value[0], value[1], where)


def _finite_pair(x: object, y: object, where: str) -> tuple[float, float]:
    """(x, y) as floats under the ``as_real`` rule; a refused one raises the
    error ``Point`` does, after ``where``."""
    try:
        return _require_finite(x, "Point.x"), _require_finite(y, "Point.y")
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from None


def _position_array(values: list) -> np.ndarray | None:
    """The JSON positions ``values`` as an (n, 2) float64 array, checked in
    bulk; None when any is refused.

    A position is accepted when it is a list of at least two values whose
    first two are an ``int`` or a ``float`` (not a ``bool``) that is finite
    as a float64; a third or later value is ignored. numpy converts an int
    to the float ``float()`` gives, and one past the float range raises
    ``OverflowError``. For JSON values this refuses exactly what
    ``_coord_pair`` refuses.
    """
    if not values:
        return np.empty((0, 2))
    if set(map(type, values)) != {list}:
        return None
    try:
        columns = (list(map(itemgetter(0), values)), list(map(itemgetter(1), values)))
    except IndexError:  # a position of fewer than two values
        return None
    if not set(map(type, columns[0])) | set(map(type, columns[1])) <= {int, float}:
        return None
    try:
        array = np.array(columns, dtype=np.float64).T
    except OverflowError:
        return None
    return array if np.isfinite(array).all() else None


def _positions(values: list, where: str) -> np.ndarray:
    """The JSON positions ``values`` as an (n, 2) float64 array; the first
    refused one raises ``_coord_pair``'s error, after ``where``."""
    array = _position_array(values)
    if array is None:  # name the first fault
        array = np.array([_coord_pair(v, where) for v in values], dtype=np.float64)
    return array


def _polygon_from_rings(rings: object, where: str) -> Polygon:
    if not isinstance(rings, list) or not rings:
        raise SchemaError(f"{where}: Polygon coordinates must be a non-empty ring array")
    parsed = []
    for ring in rings:
        if not isinstance(ring, list):
            raise SchemaError(f"{where}: ring must be an array of positions")
        parsed.append(_positions(ring, where))
    try:
        return Polygon(exterior=parsed[0], holes=tuple(parsed[1:]))
    except GeometryError as e:
        raise GeometryError(f"{where}: {e}") from None


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


def read_admin_units(path: str | Path, expected_level: AdminLevel | str = AdminLevel.CIRCLE) -> list[AdminUnit]:
    """Read admin polygons from a GeoJSON FeatureCollection.

    Every feature needs properties ``id``, ``level`` and ``population`` and a
    Polygon/MultiPolygon geometry, and its level must be ``expected_level``.
    Declared degrees are a ``ValidationError``; coordinates that fit inside
    lon/lat ranges, in a collection declaring no meter units, are a
    ``ConfigurationError``.
    """
    doc = _load_json(path)
    _reject_geographic(doc, path)
    if not isinstance(expected_level, AdminLevel):
        expected_level = AdminLevel.parse(expected_level)
    units: list[AdminUnit] = []
    seen_ids: set[str] = set()
    for i, feat in enumerate(_features(doc, path)):
        if not isinstance(feat, dict):
            raise SchemaError(f"{path}: feature #{i} is not an object")
        props = feat.get("properties")
        raw_id = _required_property(props, "id", f"{path}: feature #{i}")
        if isinstance(raw_id, bool) or not isinstance(raw_id, (str, int)):
            raise SchemaError(f"{path}: feature #{i}: id {raw_id!r} is not a string or an integer")
        fid = str(raw_id)
        where = f"{path}: feature {fid!r}"
        level = AdminLevel.parse(_required_property(props, "level", where))
        if level != expected_level:
            raise LevelMismatchError(
                f"{where}: level {level.value!r} does not match expected {expected_level.value!r}"
            )
        population = _required_property(props, "population", where)
        if isinstance(population, bool) or not isinstance(population, (int, float)):
            raise SchemaError(f"{where}: population {population!r} is not a number")
        if fid in seen_ids:
            raise ValidationError(f"{where}: duplicate admin unit id")
        seen_ids.add(fid)
        geometry = _geometry_parts(feat.get("geometry"), where)
        try:
            units.append(AdminUnit(id=fid, level=level, geometry=geometry, population=population))
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}") from None
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
    out = []
    for xs, ys in poly.rings:
        coords = list(map(list, zip(xs.tolist(), ys.tolist())))
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
    try:
        with open(p, encoding="utf-8-sig") as fh:
            head = fh.read(200).lstrip()
    except UnicodeDecodeError:
        raise _not_utf8(p) from None
    if head.startswith("{"):
        return _read_poi_geojson(p)
    return _read_poi_csv(p)


def _read_poi_geojson(path: Path) -> PoiSet:
    doc = _load_json(path)
    _reject_geographic(doc, path)
    feats = _features(doc, path)
    pois = _poi_columns(feats)
    return pois if pois is not None else _poi_features(feats, str(path))


def _poi_columns(feats: list) -> PoiSet | None:
    """The POIs of ``feats`` with each rule of ``_poi_features`` checked on a
    column of all features at once; None when any feature is refused."""
    if not set(map(type, feats)) <= {dict}:
        return None
    geoms = list(map(dict.get, feats, repeat("geometry")))
    if not set(map(type, geoms)) <= {dict}:
        return None
    # counted, not put in a set: a type may be a list, which does not hash
    if list(map(dict.get, geoms, repeat("type"))).count("Point") != len(geoms):
        return None
    positions = _position_array(list(map(dict.get, geoms, repeat("coordinates"))))
    if positions is None:
        return None
    props = list(map(dict.get, feats, repeat("properties")))
    if not set(map(type, props)) <= {dict, type(None)}:
        return None
    categories = [None if p is None else p.get("category") for p in props]
    if not set(map(type, categories)) <= {str, type(None)}:
        return None
    return PoiSet(positions[:, 0], positions[:, 1], [c or "" for c in categories])


def _poi_features(feats: list, name: str) -> PoiSet:
    """The POIs of ``feats``, checked a feature at a time: the definition of
    an accepted feature and of the error naming the first refused one."""
    xs, ys, categories = [], [], []
    for i, feat in enumerate(feats):
        if not isinstance(feat, dict):
            raise SchemaError(f"{name}: feature #{i} is not an object")
        geom = feat.get("geometry")
        if not isinstance(geom, dict) or geom.get("type") != "Point":
            got = geom.get("type") if isinstance(geom, dict) else None
            raise SchemaError(f"{name}: feature #{i}: POI geometry must be Point, got {got!r}")
        x, y = _coord_pair(geom.get("coordinates"), f"{name}: feature #{i}")
        props = feat.get("properties")
        if props is None:
            props = {}
        elif not isinstance(props, dict):
            raise SchemaError(f"{name}: feature #{i}: properties must be an object or null, got {props!r}")
        category = props.get("category")
        if category is not None and not isinstance(category, str):
            raise SchemaError(f"{name}: feature #{i}: category must be a string or null, got {category!r}")
        xs.append(x)
        ys.append(y)
        categories.append(category or "")
    return PoiSet(np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64), categories)


def _read_poi_csv(path: Path) -> PoiSet:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            return PoiSet()
        header = [h.strip().lower() for h in header]
        if header[:2] != ["x", "y"]:
            raise SchemaError(f"{path}: expected CSV header x,y[,category], got {header}")
        has_category = len(header) > 2 and header[2] == "category"
        name = str(path)  # formatted once, not once a row
        xs, ys, categories = [], [], []
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
            x, y = _finite_pair(x, y, f"{name}: row {row_no}")
            xs.append(x)
            ys.append(y)
            categories.append(row[2].strip() if has_category and len(row) > 2 else "")
    return PoiSet(np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64), categories)


def write_poi_csv(pois: PoiSet, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "category"])
        writer.writerows(zip(map(repr, pois.xs.tolist()), map(repr, pois.ys.tolist()), pois.categories))


def write_poi_geojson(pois: PoiSet, path: str | Path) -> None:
    features = [
        {"type": "Feature", "properties": {"category": c}, "geometry": {"type": "Point", "coordinates": [x, y]}}
        for x, y, c in zip(pois.xs.tolist(), pois.ys.tolist(), pois.categories)
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
    follow row-major from the top (northern) row down and may wrap across
    lines anywhere. They are parsed in file order, so the first non-numeric
    one is named; surplus values are counted, not parsed, and a header asking
    for more values than the body has characters is refused before parsing.
    """
    lines = read_text(path).splitlines()
    header: dict[str, float] = {}
    body = len(lines)
    for line_no, line in enumerate(lines):
        parts = line.split()
        if not parts:
            continue
        key = parts[0].lower()
        if key not in _ASCII_HEADER_KEYS or len(header) == len(_ASCII_HEADER_KEYS):
            body = line_no
            break
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
    missing = [k for k in _ASCII_HEADER_KEYS if k not in header]
    if missing:
        raise FormatError(f"{path}: missing header keys {[m.upper() for m in missing]}")
    if tuple(header) != _ASCII_HEADER_KEYS:
        warnings.warn(
            f"{path}: header keys in unconventional order {[k.upper() for k in header]}",
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
    expected = n_cols * n_rows
    # Every value takes a character, so a grid larger than the body is never allocated.
    if expected > sum(map(len, islice(lines, body, None))):
        found = sum(len(line.split()) for line in islice(lines, body, None))
        raise TruncationError(f"{path}: expected {expected} values, found {found}")
    values = _parse_rows(lines, body, n_rows, n_cols)
    if values is None:
        values = _stream_values(lines, body, n_rows, n_cols, path)
    nodata_value = header["nodata_value"]
    nodata = values == nodata_value
    values[nodata] = 0.0
    try:
        return Raster(header["xllcorner"], header["yllcorner"], cellsize, values, nodata, nodata_value)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def _parse_rows(lines: list[str], body: int, n_rows: int, n_cols: int) -> np.ndarray | None:
    """The south-up values of a body laid out one grid row per line, parsed
    by numpy; None for any other body. numpy accepts a subset of what
    ``float`` does (no ``1_0``, no Unicode digits), so a body it parses is
    one the streamed reader gives the same bits for."""
    rows = lines[body:]
    if len(rows) > n_rows and next(islice(filter(str.strip, rows), n_rows, None), None) is not None:
        return None  # more non-blank lines than grid rows: numpy's shape could not fit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a body of blank lines warns "no data"
        try:
            # comments=None: the default "#" would cut a line short
            values = np.loadtxt(reversed(rows), dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return None
    return values if values.shape == (n_rows, n_cols) else None


def _stream_values(lines: list[str], body: int, n_rows: int, n_cols: int, path: str | Path) -> np.ndarray:
    """The south-up values of a body wrapped anywhere, parsed with ``float``
    in file order: the definition of an accepted body and of its errors."""
    tokens = chain.from_iterable(map(str.split, islice(lines, body, None)))
    cells = map(float, tokens)
    values = np.empty((n_rows, n_cols))
    found = 0
    try:
        for r in range(n_rows - 1, -1, -1):  # file is top row first; store south-up
            row = np.fromiter(islice(cells, n_cols), np.float64)  # short once the body runs out
            values[r, : row.size] = row
            found += row.size
    except ValueError as e:
        raise FormatError(f"{path}: non-numeric grid value ({e})") from None
    found += sum(1 for _ in tokens)
    if found != n_rows * n_cols:
        raise TruncationError(f"{path}: expected {n_rows * n_cols} values, found {found}")
    return values


def _row_formatter(values: np.ndarray):
    """The row formatter for a grid of ``values``: ``str`` of the int64 cast
    when every value is an integer below 2**53 in magnitude, else
    shortest-exact ``repr``. The rule is tested ``_RULE_BLOCK`` cells at a
    time, so no whole-grid temporary exists."""
    step = max(1, _RULE_BLOCK // max(1, values.shape[-1]))
    for i in range(0, len(values), step):
        block = values[i : i + step]
        with np.errstate(invalid="ignore"):  # np.floor of a signaling NaN warns
            integral = (block == np.floor(block)) & (np.abs(block) < 2**53)  # false for inf and nan
        if not integral.all():
            return lambda row: map(repr, row.tolist())
    return lambda row: map(str, row.astype(np.int64).tolist())


def write_ascii_grid(obj: Raster | PopulationGrid, path: str | Path) -> None:
    """Write a raster or population grid as an ESRI ASCII grid.

    Integer-valued grids are written as integers; reals use shortest exact
    float formatting so a read of the written file reproduces each value
    bit-for-bit. The rule is chosen once for the whole grid, and once for
    the nodata value on its own. Rows go out ``_WRITE_BLOCK`` cells at a
    time, each distinct value of a block formatted once.
    """
    raster = obj.as_raster() if isinstance(obj, PopulationGrid) else obj
    values = np.asarray(raster.values, dtype=np.float64)
    na = np.array([raster.nodata_value], dtype=np.float64)
    (na_token,) = _row_formatter(na)(na)
    format_row = _row_formatter(values)
    step = max(1, _WRITE_BLOCK // raster.n_cols)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"NCOLS {raster.n_cols}\n"
            f"NROWS {raster.n_rows}\n"
            f"XLLCORNER {repr(float(raster.origin_x))}\n"
            f"YLLCORNER {repr(float(raster.origin_y))}\n"
            f"CELLSIZE {repr(float(raster.pixel_size))}\n"
            f"NODATA_VALUE {na_token}\n"
        )
        values, nodata = values[::-1], raster.nodata[::-1]  # top row first
        for i in range(0, raster.n_rows, step):
            fh.write(_format_block(values[i : i + step], nodata[i : i + step], format_row, na_token))


def _format_block(block: np.ndarray, block_na: np.ndarray, format_row, na_token: str) -> str:
    """The text of a block of rows, each distinct bit pattern (so ``-0.0``
    apart from ``0.0``) formatted once."""
    bits = block.view(np.int64)
    # np.sort then searchsorted: np.unique(return_inverse=True) argsorts,
    # which is twice as slow on a block of few distinct values
    ordered = np.sort(bits, axis=None)
    distinct = ordered[np.insert(ordered[1:] != ordered[:-1], 0, True)]
    table = np.array([*format_row(distinct.view(np.float64)), na_token], dtype=object)
    index = np.searchsorted(distinct, bits)
    index[block_na] = distinct.size
    return "".join(" ".join(row) + "\n" for row in table[index].tolist())


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
