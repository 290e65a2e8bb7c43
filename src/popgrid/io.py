"""File formats: admin polygons (GeoJSON), POIs (GeoJSON/CSV), rasters
(ESRI ASCII grid), and report output (JSON/CSV).

A raster's cells are a :class:`TileGrid` (``Raster.grid``), and
``Raster.on(grid, values)`` builds a raster on a grid; these are the only
two bridges between the descriptions, so a raster with a non-finite origin
or cell size, or an empty axis, cannot be built. The two checked kinds,
``BinaryRaster`` (data cells 0 or 1) and ``PopulationGrid`` (float64, finite,
non-negative, no nodata), are rasters built the same way.

Coordinates are projected meters throughout. Files written by this module
use shortest-exact float formatting, so a write/read cycle reproduces every
value bit-for-bit; ``write_ascii_grid`` refuses a raster whose nodata cells
would not read back as nodata and its data cells as data. GeoJSON feature collections we emit carry a foreign
member ``"coordinate_units": "meters"``; readers reject collections whose
``crs``/``coordinate_units`` member declares a geographic (degree) system,
and ``read_admin_units`` also rejects degree-like coordinates in a collection
declaring no meter units.
GeoJSON readers check structure only: a ring is an array of positions,
each an array of at least two values. Both POI formats are read by one
record walk: a GeoJSON feature or a CSV row at a time, each checked for
structure, into columns that ``PoiSet`` takes once. The coordinates go to
``Polygon`` and ``PoiSet``, whose ``geo.finite_coords`` is the one check of
a coordinate; only a refused input is walked again, to name its first
fault. Both GeoJSON readers pause the cyclic garbage collector,
process-wide, for their whole body (a decoded JSON document is a tree that
reference counting frees) and re-enable it on return if it was enabled when
they began. Writers format the arrays those types hold (``Polygon.rings``,
``PoiSet.xs``/``ys``) from ``tolist()``.

ESRI ASCII grids are read a line at a time, never holding a string per cell:
a 0/1 body laid out as popgrid writes it is checked as bytes, numpy parses
any other body laid out one grid row per line, and the streamed reader every
other body, with the same values and the same error messages. They are
written in blocks of rows: a 0/1 grid without nodata as bytes, any other
under one formatting rule per grid, each distinct value of a block formatted
once.

Every input is read once, as bytes, by ``read_text``, and decoded as UTF-8
before any parser sees it.

Output files are written to temporary names beside their targets and moved
into place together by ``staged``, so a failed command leaves none of them.
"""

from __future__ import annotations

import csv
import errno
import gc
import json
import math
import os
import re
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    FormatError,
    HeaderOrderWarning,
    LevelMismatchError,
    ParseError,
    PopgridError,
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
_BIT_BLOCK = 2**16  # cells of a 0/1 grid read or written at once as bytes
_ZERO_SPACE = int.from_bytes(b"0 ", "little")  # a cell and its separator as a "<u2"
_ZERO_NEWLINE = int.from_bytes(b"0\n", "little")


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
    ``nodata`` masks missing cells. Once every check has passed, the value
    and nodata arrays are made read-only in place, with no copy.
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
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "nodata", nodata)
        object.__setattr__(self, "grid", grid)
        self._check()
        # frozen last, so a refused raster leaves the caller's arrays writable
        values.setflags(write=False)
        nodata.setflags(write=False)

    def _check(self) -> None:
        """Refuse values outside the raster's kind; a subclass's own checks."""

    @classmethod
    def on(cls, grid: TileGrid, values, nodata=None, nodata_value: float = -9999.0):
        """A raster whose cells are the tiles of ``grid``."""
        shape = np.shape(values)
        if len(shape) == 2 and shape != (grid.n_rows, grid.n_cols):
            raise ValidationError(f"raster values shape {shape} does not match grid {grid.n_rows}x{grid.n_cols}")
        return cls(grid.origin_x, grid.origin_y, grid.tile_size, values, nodata, nodata_value)

    @property
    def n_rows(self) -> int:
        return self.grid.n_rows

    @property
    def n_cols(self) -> int:
        return self.grid.n_cols


class BinaryRaster(Raster):
    """A raster whose valid cells are exactly 0 or 1 (the built-up mask)."""

    def _check(self) -> None:
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
        """``raster`` checked as a 0/1 raster; a BinaryRaster is returned as it is."""
        if isinstance(raster, cls):
            return raster
        return cls.on(raster.grid, raster.values, raster.nodata, raster.nodata_value)


class PopulationGrid(Raster):
    """Per-tile population estimates: a float64 raster with no nodata cell
    whose values are finite and non-negative."""

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        super().__post_init__()

    def _check(self) -> None:
        if self.nodata.any():
            raise ValidationError(f"population grid has {np.count_nonzero(self.nodata)} nodata cell(s)")
        ok = np.isfinite(self.values)
        ok &= self.values >= 0
        if not ok.all():
            bad = self.values[~ok]
            cells = "1 cell that is" if bad.size == 1 else f"{bad.size} cells that are"
            raise ValidationError(
                f"population grid has {cells} negative or not finite (e.g. {float(bad.flat[0])!r})"
            )

    def total(self) -> float:
        return float(self.values.sum())


# ---------------------------------------------------------------------------
# GeoJSON
# ---------------------------------------------------------------------------


@contextmanager
def _collector_paused() -> Iterator[None]:
    """The block runs with Python's cyclic garbage collector paused; on exit,
    error or not, it is enabled again if it was enabled on entry. A decoded
    JSON document is a tree, freed by reference counting, in which a
    collection could free nothing but would walk every node. As a decorator
    it spans the whole call, so a reader's locals, the document among them,
    are freed before the collector runs again. The pause is process-wide,
    so it also holds other threads' collections, and it may end another
    reader's pause or undo a ``gc.disable()`` made during the call."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_text(path: str | Path) -> str:
    """The text of ``path``: its bytes, read once and decoded as UTF-8, less
    one leading byte-order mark, with line ends as they are. A byte that is
    not UTF-8 is a ``FormatError`` naming it and its offset from the file's
    first byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text: byte {data[e.start]:#04x} at offset {e.start}") from None


def decode_json(text: str) -> object:
    """The JSON value of ``text``, CR and CRLF read as LF. Text json refuses
    (malformed, an integer past the int-to-str digit limit, or nested past
    the recursion limit) is a ``ParseError`` giving the decoder's reason."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from None
    except ValueError as e:  # an integer literal past the digit limit
        raise ParseError(str(e)) from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None


def _json_object(text: str, path: str | Path) -> dict:
    """The JSON object ``text`` read from ``path``."""
    try:
        doc = decode_json(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e.reason}", line=e.line, column=e.column) from None
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


def _is_position_array(values: object) -> bool:
    """Whether ``values`` is a GeoJSON array of positions, arrays of at least two values."""
    if not isinstance(values, list) or not set(map(type, values)) <= {list}:
        return False
    return min(map(len, values), default=2) >= 2


def _polygon_from_rings(rings: object, where: str) -> Polygon:
    """The Polygon of GeoJSON ``rings``: io checks their structure, ``Polygon`` the rest."""
    if not isinstance(rings, list) or not rings:
        raise SchemaError(f"{where}: Polygon coordinates must be a non-empty ring array")
    if not all(map(_is_position_array, rings)):
        for ring in rings:  # name the first fault, of structure or of a coordinate
            if not isinstance(ring, list):
                raise SchemaError(f"{where}: ring must be an array of positions")
            for position in ring:
                _coord_pair(position, where)
    try:
        return Polygon(exterior=rings[0], holes=rings[1:])
    except ValidationError as e:  # a GeometryError keeps its type
        raise type(e)(f"{where}: {e}") from None


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


@_collector_paused()
def read_admin_units(path: str | Path, expected_level: AdminLevel | str = AdminLevel.CIRCLE) -> list[AdminUnit]:
    """Read admin polygons from a GeoJSON FeatureCollection.

    Every feature needs properties ``id``, ``level`` and ``population`` and a
    Polygon/MultiPolygon geometry, and its level must be ``expected_level``.
    Declared degrees are a ``ValidationError``; coordinates that fit inside
    lon/lat ranges, in a collection declaring no meter units, are a
    ``ConfigurationError``.
    """
    doc = _json_object(read_text(path), path)
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


@_collector_paused()
def read_poi(path: str | Path) -> PoiSet:
    """Read POIs from GeoJSON (Point features) or CSV (header x,y,category).

    A ``.csv`` file is CSV; any other is GeoJSON when its first non-blank
    character is ``{``, else CSV. An empty collection or a header-only CSV
    yields an empty set.
    """
    text = read_text(path)
    if Path(path).suffix.lower() != ".csv" and re.match(r"\s*\{", text):
        doc = _json_object(text, path)
        del text  # not held while the features are walked
        _reject_geographic(doc, path)
        where = f"{path}: feature #"
        return _poi_set(_poi_features(_features(doc, path), where), where)
    return _poi_set(_poi_csv(text, path), f"{path}: row ")


def _poi_set(records: Iterable[tuple[int, object, object, str]], where: str) -> PoiSet:
    """The POIs of ``records``, (number, x, y, category) each, whose
    coordinates ``PoiSet`` checks once; on any fault the records read so far
    are walked again, so that an earlier refused coordinate is named first."""
    numbers, xs, ys, categories = array("q"), [], [], []  # an array holds no int object per record
    try:
        for number, x, y, category in records:
            numbers.append(number)
            xs.append(x)
            ys.append(y)
            categories.append(category)
        return PoiSet(xs, ys, categories)
    except PopgridError:
        for number, x, y in zip(numbers, xs, ys):
            _finite_pair(x, y, f"{where}{number}")
        raise


def _poi_features(feats: list, where: str) -> Iterator[tuple[int, object, object, str]]:
    """The records of the POI ``feats``, each checked for structure only: an
    object with a Point at a position of at least two values, and properties
    an object or null whose category is a string or null. A feature's own
    refused coordinate is named before its properties or category."""
    for i, feat in enumerate(feats):
        if not isinstance(feat, dict):
            raise SchemaError(f"{where}{i} is not an object")
        geom = feat.get("geometry")
        got = geom.get("type") if isinstance(geom, dict) else None
        if got != "Point":
            raise SchemaError(f"{where}{i}: POI geometry must be Point, got {got!r}")
        position = geom.get("coordinates")
        if not isinstance(position, list) or len(position) < 2:
            _coord_pair(position, f"{where}{i}")  # raises its structure error
        x, y = position[0], position[1]
        props = feat.get("properties")
        category = props.get("category") if isinstance(props, dict) else None
        if not isinstance(props, (dict, type(None))) or not isinstance(category, (str, type(None))):
            _finite_pair(x, y, f"{where}{i}")
            if not isinstance(props, dict):
                raise SchemaError(f"{where}{i}: properties must be an object or null, got {props!r}")
            raise SchemaError(f"{where}{i}: category must be a string or null, got {category!r}")
        yield i, x, y, category or ""


def _poi_csv(text: str, path: str | Path) -> Iterator[tuple[int, float, float, str]]:
    """The records of the POI CSV ``text`` read from ``path``, split as a
    file opened with ``newline=""`` is: lines end at ``\r\n``, ``\r`` or
    ``\n`` and keep their ends, and are taken one at a time, not copied. A
    row the csv module refuses (a field past its length limit) is a
    ``ParseError`` naming the row."""
    rows = enumerate(csv.reader(m.group() for m in re.finditer(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+\Z", text)))
    row_no = -1  # the row read last; the header is row 0, and blank rows count
    try:
        row_no, header = next(rows, (0, None))
        if header is None:
            return
        header = [h.strip().lower() for h in header]
        if header[:2] != ["x", "y"]:
            raise SchemaError(f"{path}: expected CSV header x,y[,category], got {header}")
        has_category = len(header) > 2 and header[2] == "category"
        for row_no, row in rows:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise SchemaError(f"{path}: row {row_no}: expected at least x,y")
            try:
                x = float(row[0])
                y = float(row[1])
            except ValueError:
                raise ValidationError(f"{path}: row {row_no}: unparseable coordinate {row[:2]!r}") from None
            yield row_no, x, y, row[2].strip() if has_category and len(row) > 2 else ""
    except csv.Error as e:
        raise ParseError(f"{path}: row {row_no + 1}: {e}") from None


def write_poi_csv(pois: PoiSet, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "category"])
        writer.writerows(zip(map(repr, pois.xs.tolist()), map(repr, pois.ys.tolist()), pois.categories))


def write_poi_geojson(pois: PoiSet, path: str | Path) -> None:
    """Write the text ``json.dumps`` gives for the POI FeatureCollection,
    one template per feature: a finite float's ``repr`` is json's text for it,
    and each distinct category is encoded once."""
    label = {c: json.dumps(c) for c in set(pois.categories)}
    features = ", ".join(
        f'{{"type": "Feature", "properties": {{"category": {label[c]}}}, '
        f'"geometry": {{"type": "Point", "coordinates": [{x!r}, {y!r}]}}}}'
        for x, y, c in zip(pois.xs.tolist(), pois.ys.tolist(), pois.categories)
    )
    Path(path).write_text(
        f'{{"type": "FeatureCollection", "coordinate_units": "meters", "features": [{features}]}}',
        encoding="utf-8",
    )


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

    The body takes the first of three paths that accepts it, each giving the
    values the next would: a 0/1 body written as popgrid writes it (one row
    per line, single spaces) is checked as bytes; numpy parses any body of
    one row per line; the streamed reader parses every other body and
    defines what is accepted and each error.
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
    values = _parse_bits(lines, body, n_rows, n_cols)
    if values is None:
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


def _parse_bits(lines: list[str], body: int, n_rows: int, n_cols: int) -> np.ndarray | None:
    """The south-up values of a 0/1 body laid out as popgrid writes it:
    ``n_rows`` lines of ``n_cols`` digits ``0`` or ``1`` between single
    spaces; None for any other body. The lines are checked ``_BIT_BLOCK``
    cells at a time as ASCII, each cell and the space after it one "<u2"."""
    rows = lines[body:]
    if len(rows) != n_rows or set(map(len, rows)) != {2 * n_cols - 1}:
        return None
    values = np.empty((n_rows, n_cols))
    step = max(1, _BIT_BLOCK // n_cols)
    for i in range(0, n_rows, step):
        block = rows[i : i + step]
        try:
            text = (" ".join(block) + " ").encode("ascii")
        except UnicodeEncodeError:
            return None
        cells = np.frombuffer(text, "<u2") ^ _ZERO_SPACE  # "0 " is 0, "1 " is 1, any other pair more
        if (cells > 1).any():
            return None
        values[n_rows - i - len(block) : n_rows - i] = cells.reshape(len(block), n_cols)[::-1]
    return values


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


def _blocks(values: np.ndarray, cells: int) -> Iterator[np.ndarray]:
    """``values`` in blocks of whole rows, about ``cells`` cells each."""
    step = max(1, cells // max(1, values.shape[-1]))
    return (values[i : i + step] for i in range(0, len(values), step))


def _row_formatter(values: np.ndarray):
    """The row formatter for a grid of ``values``: ``str`` of the int64 cast
    when every value is an integer below 2**53 in magnitude other than
    ``-0.0`` (which it would write as ``0``), else shortest-exact ``repr``.
    The rule is tested ``_RULE_BLOCK`` cells at a time, so no whole-grid
    temporary exists."""
    for block in _blocks(values, _RULE_BLOCK):
        with np.errstate(invalid="ignore"):  # np.floor of a signaling NaN warns
            integral = (block == np.floor(block)) & (np.abs(block) < 2**53)  # false for inf and nan
            integral &= (block != 0) | ~np.signbit(block)
        if not integral.all():
            return lambda row: map(repr, row.tolist())
    return lambda row: map(str, row.astype(np.int64).tolist())


def _is_bits(values: np.ndarray) -> bool:
    """Every value is ``0.0`` or ``1.0`` (not ``-0.0``, which the ``repr``
    rule writes), tested ``_RULE_BLOCK`` cells at a time."""
    return all(((block == 1) | (block == 0) & ~np.signbit(block)).all() for block in _blocks(values, _RULE_BLOCK))


def write_ascii_grid(raster: Raster, path: str | Path) -> None:
    """Write a raster as an ESRI ASCII grid.

    Integer-valued grids are written as integers; reals use shortest exact
    float formatting so a read of the written file reproduces each value
    bit-for-bit. The rule is chosen once for the whole grid, and once for
    the nodata value on its own. A grid of 0s and 1s with no nodata cell is
    filled as bytes ``_BIT_BLOCK`` cells at a time; any other goes out
    ``_WRITE_BLOCK`` cells at a time, each distinct value of a block
    formatted once. Both give the same text, and neither holds the file's.

    A raster that would not read back as it is (a data cell equal to the
    nodata value, or a nodata cell under a NaN one) is refused unwritten.
    """
    values = np.asarray(raster.values, dtype=np.float64)
    na = np.array([raster.nodata_value], dtype=np.float64)
    (na_value,) = na.tolist()
    if math.isnan(na_value):
        lost = np.count_nonzero(raster.nodata)
        fault = "nodata cell(s) under a NaN nodata value, which a read takes as data"
    else:
        lost = sum(
            np.count_nonzero((block == na_value) & ~block_na)
            for block, block_na in zip(_blocks(values, _RULE_BLOCK), _blocks(raster.nodata, _RULE_BLOCK))
        )
        fault = f"data cell(s) equal to its nodata value {na_value!r}, which a read takes as nodata"
    if lost:
        raise ValidationError(f"raster has {lost} {fault}")
    (na_token,) = _row_formatter(na)(na)
    bits = not raster.nodata.any() and _is_bits(values)
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
        if bits:
            for block in _blocks(values, _BIT_BLOCK):
                fh.write(_bits_block(block))
        else:
            format_row = _row_formatter(values)
            for block, block_na in zip(_blocks(values, _WRITE_BLOCK), _blocks(nodata, _WRITE_BLOCK)):
                fh.write(_format_block(block, block_na, format_row, na_token))


def _bits_block(block: np.ndarray) -> str:
    """The text of a block of 0/1 rows, filled as bytes: each cell a digit
    and a space, the last of a row a digit and a newline."""
    cells = block.astype("<u2")  # 0.0 and 1.0 cast to 0 and 1
    cells[:, :-1] |= _ZERO_SPACE
    cells[:, -1] |= _ZERO_NEWLINE
    return cells.tobytes().decode("ascii")


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

    Nodata cells become 0; negative and non-finite values are rejected.
    """
    values = np.where(raster.nodata, 0.0, np.asarray(raster.values, dtype=np.float64))
    return PopulationGrid.on(raster.grid, values)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@contextmanager
def staged(*paths: str | Path) -> Iterator[list[Path]]:
    """Temporary paths beside ``paths``, one each, for the caller to write.

    A target that is a directory, or whose directory does not exist, is
    refused first, with the error its own write would raise. When the block
    ends without an error each temporary file replaces its target with
    ``os.replace``, in the order given, so the last target is the last to
    appear; on any error the temporary files are removed. So a command
    leaves all of its outputs or none of them.
    """
    targets = [Path(p) for p in paths]
    for target in targets:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        if not target.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(target))
    temps = [t.parent / f".{t.name}.{os.getpid()}.tmp" for t in targets]  # not with_name, which refuses "."
    try:
        yield temps
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


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
