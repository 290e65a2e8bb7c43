"""Output checks made apart from popgrid, with numpy, json and csv only.

Each check recomputes what an output must hold from the generated input
files and the documented rules, without calling into the program:

- the tile mask equals a chunked brute-force O(n^2) density count over all
  POIs: a tile is excluded when it holds a POI with at least THRESHOLD POIs
  (itself included) within RADIUS, compared on dx*dx + dy*dy <= r*r;
- the population grid equals the proportional split of every unit's count
  over its retained tiles by built pixels, with the uniform fallback,
  within the acceptance suite's 1e-9 tolerance. The units must be
  axis-aligned rectangles on tile edges, which synth's cities are;
- every zonal row equals its unit's census count and `_unassigned` is 0;
- every operation's outputs are byte-identical to the first operation's.

A check returns a list of messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RADIUS = 500.0  # `popgrid run` defaults for --poi-radius and --poi-threshold
THRESHOLD = 5
REL_TOL = 1e-9
UNASSIGNED_ID = "_unassigned"
OUTPUTS = ("population.asc", "tile_mask.asc", "report.json", "zonal.csv")
_HEADER_KEYS = ("NCOLS", "NROWS", "XLLCORNER", "YLLCORNER", "CELLSIZE", "NODATA_VALUE")


class CheckError(Exception):
    """The inputs are outside what the oracles can judge."""


@dataclass(frozen=True)
class Scenario:
    origin_x: float
    origin_y: float
    tile_size: float
    n_cols: int
    n_rows: int
    pixel_size: float
    built: np.ndarray  # bool (pixel rows, pixel cols), row 0 southernmost
    poi_x: np.ndarray
    poi_y: np.ndarray
    unit_ids: tuple[str, ...]
    unit_pop: tuple[float, ...]
    unit_tiles: tuple[tuple[int, int, int, int], ...]  # (c0, c1, r0, r1), half-open
    ring_vertices: int
    truth: np.ndarray  # exact tile population, (n_rows, n_cols)


def read_ascii(path: str | Path) -> tuple[dict[str, float], np.ndarray]:
    """ESRI ASCII grid as (header, values with row 0 southernmost)."""
    lines = Path(path).read_text(encoding="utf-8").split("\n", len(_HEADER_KEYS))
    header = {}
    for key, line in zip(_HEADER_KEYS, lines):
        name, value = line.split()
        if name.upper() != key:
            raise CheckError(f"{path}: expected header {key}, got {name}")
        header[key] = float(value)
    n_cols, n_rows = int(header["NCOLS"]), int(header["NROWS"])
    values = np.array(lines[-1].split(), dtype=np.float64)
    if values.size != n_cols * n_rows:
        raise CheckError(f"{path}: {values.size} values for a {n_cols}x{n_rows} grid")
    return header, values.reshape(n_rows, n_cols)[::-1]


def _rectangle_tiles(rings: list, scn_grid: dict, where: str) -> tuple[tuple[int, int, int, int], int]:
    if len(rings) != 1:
        raise CheckError(f"{where}: holes are not supported by the oracle")
    pts = np.array(rings[0], dtype=np.float64)[:-1]  # GeoJSON rings repeat the first vertex
    x0, x1 = pts[:, 0].min(), pts[:, 0].max()
    y0, y1 = pts[:, 1].min(), pts[:, 1].max()
    on_box = (np.isin(pts[:, 0], (x0, x1)) | np.isin(pts[:, 1], (y0, y1))).all()
    if not on_box:
        raise CheckError(f"{where}: ring is not an axis-aligned rectangle")
    ts = scn_grid["tile_size"]
    edges = [(x0 - scn_grid["origin_x"]) / ts, (x1 - scn_grid["origin_x"]) / ts,
             (y0 - scn_grid["origin_y"]) / ts, (y1 - scn_grid["origin_y"]) / ts]
    if any(e != round(e) for e in edges):
        raise CheckError(f"{where}: rectangle does not lie on tile edges")
    return tuple(int(round(e)) for e in edges), len(pts)


def load_scenario(scn_dir: str | Path) -> Scenario:
    d = Path(scn_dir)
    meta = json.loads((d / "scenario.json").read_text(encoding="utf-8"))
    g = meta["grid"]
    mask_header, mask = read_ascii(d / "mask.asc")
    pixel_size = mask_header["CELLSIZE"]
    ratio = round(g["tile_size"] / pixel_size)
    if (
        mask_header["XLLCORNER"] != g["origin_x"]
        or mask_header["YLLCORNER"] != g["origin_y"]
        or mask.shape != (g["n_rows"] * ratio, g["n_cols"] * ratio)
    ):
        raise CheckError("mask.asc does not cover the tile grid exactly")
    admin = json.loads((d / "admin.geojson").read_text(encoding="utf-8"))
    ids, pops, tiles = [], [], []
    vertices = 0
    for feat in admin["features"]:
        props, geom = feat["properties"], feat["geometry"]
        if geom["type"] != "Polygon":
            raise CheckError(f"unit {props['id']}: only Polygon units are supported by the oracle")
        rect, n = _rectangle_tiles(geom["coordinates"], g, f"unit {props['id']}")
        ids.append(str(props["id"]))
        pops.append(float(props["population"]))
        tiles.append(rect)
        vertices += n
    poi = json.loads((d / "poi.geojson").read_text(encoding="utf-8"))
    xy = np.array([f["geometry"]["coordinates"][:2] for f in poi["features"]], dtype=np.float64)
    xy = xy.reshape(-1, 2)
    _, truth = read_ascii(d / "truth_tiles.asc")
    return Scenario(
        origin_x=g["origin_x"],
        origin_y=g["origin_y"],
        tile_size=g["tile_size"],
        n_cols=g["n_cols"],
        n_rows=g["n_rows"],
        pixel_size=pixel_size,
        built=mask == 1,
        poi_x=np.ascontiguousarray(xy[:, 0]),
        poi_y=np.ascontiguousarray(xy[:, 1]),
        unit_ids=tuple(ids),
        unit_pop=tuple(pops),
        unit_tiles=tuple(tiles),
        ring_vertices=vertices,
        truth=truth,
    )


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def dense_flags(xs: np.ndarray, ys: np.ndarray, radius: float, threshold: int, chunk: int = 256) -> np.ndarray:
    """POIs with at least ``threshold`` POIs within ``radius``: every pair is compared.

    Each pair is computed once and counted for both points: a - b is exactly
    -(b - a) in floating point, so both directions give the same squares.
    """
    n = xs.size
    r2 = radius * radius
    counts = np.ones(n, dtype=np.int64)  # every POI is in its own buffer
    dx = np.empty(chunk * n)
    dy = np.empty(chunk * n)
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        m = n - s  # pairs (i, j) with s <= i < e and j >= i
        bx = dx[: (e - s) * m].reshape(e - s, m)
        by = dy[: (e - s) * m].reshape(e - s, m)
        np.subtract(xs[None, s:], xs[s:e, None], out=bx)
        np.subtract(ys[None, s:], ys[s:e, None], out=by)
        np.multiply(bx, bx, out=bx)
        np.multiply(by, by, out=by)
        np.add(bx, by, out=bx)
        near = bx <= r2
        near[:, : e - s] &= np.triu(np.ones((e - s, e - s), dtype=bool), k=1)
        counts[s:e] += np.count_nonzero(near, axis=1)
        counts[s:] += np.count_nonzero(near, axis=0)
    return counts >= threshold


def expected_tile_mask(scn: Scenario) -> tuple[np.ndarray, int]:
    """(retained flags, number of dense POIs)."""
    dense = dense_flags(scn.poi_x, scn.poi_y, RADIUS, THRESHOLD)
    retained = np.ones((scn.n_rows, scn.n_cols), dtype=bool)
    for x, y in zip(scn.poi_x[dense], scn.poi_y[dense]):
        c = math.floor((float(x) - scn.origin_x) / scn.tile_size)
        r = math.floor((float(y) - scn.origin_y) / scn.tile_size)
        if 0 <= c < scn.n_cols and 0 <= r < scn.n_rows:
            retained[r, c] = False
    return retained, int(np.count_nonzero(dense))


def tile_built_counts(scn: Scenario) -> np.ndarray:
    ratio = round(scn.tile_size / scn.pixel_size)
    b = scn.built.reshape(scn.n_rows, ratio, scn.n_cols, ratio)
    return b.sum(axis=(1, 3), dtype=np.int64)


def expected_population(scn: Scenario, retained: np.ndarray) -> np.ndarray:
    """Each unit's count split over its retained tiles by built pixels.

    A pixel belongs to the first unit (input order) whose rectangle holds
    its center. A unit without retained built pixels spreads its count
    evenly over every tile of its rectangle.
    """
    counts = tile_built_counts(scn)
    owner = np.full((scn.n_rows, scn.n_cols), -1, dtype=np.int64)
    for k, (c0, c1, r0, r1) in enumerate(scn.unit_tiles):
        view = owner[r0:r1, c0:c1]
        view[view == -1] = k
    values = np.zeros((scn.n_rows, scn.n_cols), dtype=np.float64)
    for k, ((c0, c1, r0, r1), pop) in enumerate(zip(scn.unit_tiles, scn.unit_pop)):
        mine = owner[r0:r1, c0:c1] == k
        keep = mine & retained[r0:r1, c0:c1] & (counts[r0:r1, c0:c1] > 0)
        total = int(counts[r0:r1, c0:c1][keep].sum())
        out = values[r0:r1, c0:c1]
        if total > 0:
            out[keep] += pop * counts[r0:r1, c0:c1][keep].astype(np.float64) / float(total)
        else:
            out += pop / ((r1 - r0) * (c1 - c0))
    return values


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_header(scn: Scenario, header: dict[str, float], name: str) -> list[str]:
    want = {"NCOLS": scn.n_cols, "NROWS": scn.n_rows, "XLLCORNER": scn.origin_x,
            "YLLCORNER": scn.origin_y, "CELLSIZE": scn.tile_size}
    return [f"{name}: {k} is {header[k]}, expected {v}" for k, v in want.items() if header[k] != v]


def check_tile_mask(scn: Scenario, header: dict, values: np.ndarray, retained: np.ndarray) -> list[str]:
    errs = check_header(scn, header, "tile_mask.asc")
    if errs:
        return errs
    bad = np.argwhere(values != retained.astype(np.float64))
    if bad.size:
        r, c = bad[0]
        errs.append(
            f"tile_mask.asc: {len(bad)} tiles differ from the brute-force density count, "
            f"first at col {c} row {r}: {int(values[r, c])} vs {int(retained[r, c])}"
        )
    return errs


def check_population(scn: Scenario, header: dict, values: np.ndarray, expected: np.ndarray) -> list[str]:
    errs = check_header(scn, header, "population.asc")
    if errs:
        return errs
    off = np.abs(values - expected) > REL_TOL * np.maximum(np.abs(expected), 1.0)
    if off.any():
        r, c = np.argwhere(off)[0]
        errs.append(
            f"population.asc: {int(off.sum())} tiles differ from the proportional split, "
            f"first at col {c} row {r}: {float(values[r, c])!r} vs {float(expected[r, c])!r}"
        )
    return errs


def check_zonal(scn: Scenario, path: str | Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    want = list(zip(scn.unit_ids, scn.unit_pop)) + [(UNASSIGNED_ID, 0.0)]
    if [r["unit_id"] for r in rows] != [u for u, _ in want]:
        return [f"zonal.csv: rows are not the {len(scn.unit_ids)} units in input order plus {UNASSIGNED_ID}"]
    errs = []
    for row, (uid, pop) in zip(rows, want):
        got = float(row["population_sum"])
        if abs(got - pop) > REL_TOL * max(pop, 1.0):
            errs.append(f"zonal.csv: {uid} sums to {got!r}, census count is {pop!r}")
    return errs


def digest_outputs(out_dir: str | Path) -> dict[str, str]:
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest() for name in OUTPUTS}


def check_reruns(digests: list[dict[str, str]]) -> dict[int, str]:
    """Operations whose outputs differ from the first operation's, with the reason."""
    first = digests[0]
    bad = {}
    for i, d in enumerate(digests[1:], start=1):
        diff = sorted(name for name in first if d.get(name) != first[name])
        if diff:
            bad[i] = f"operation {i}: {', '.join(diff)} differ from operation 0"
    return bad


@dataclass(frozen=True)
class Expected:
    retained: np.ndarray
    population: np.ndarray
    n_dense: int


def expected_outputs(scn: Scenario) -> Expected:
    retained, n_dense = expected_tile_mask(scn)
    return Expected(retained, expected_population(scn, retained), n_dense)


def check_outputs(scn: Scenario, exp: Expected, out_dir: str | Path) -> tuple[list[str], np.ndarray | None]:
    """All independent checks on one operation's outputs; also the population read."""
    d = Path(out_dir)
    errs = []
    pop = None
    try:
        header, values = read_ascii(d / "tile_mask.asc")
        errs += check_tile_mask(scn, header, values, exp.retained)
        header, pop = read_ascii(d / "population.asc")
        errs += check_population(scn, header, pop, exp.population)
        errs += check_zonal(scn, d / "zonal.csv")
    except (OSError, ValueError, KeyError, CheckError) as e:
        errs.append(f"{type(e).__name__}: {e}")
    return errs, pop


def tile_mae(scn: Scenario, population: np.ndarray) -> float:
    """Per-tile mean absolute error against the exact truth (synth.score's MAE)."""
    return float(np.mean(np.abs(population - scn.truth)))


def makeup(scn: Scenario, exp: Expected) -> dict:
    """Sizes of the inputs, counted from the files."""
    ratio = round(scn.tile_size / scn.pixel_size)
    sat = np.zeros((scn.built.shape[0] + 1, scn.built.shape[1] + 1), dtype=np.int64)
    sat[1:, 1:] = scn.built.cumsum(axis=0).cumsum(axis=1)
    candidates = 0
    for c0, c1, r0, r1 in scn.unit_tiles:  # pixel centers inside the unit's bbox
        p0, p1, q0, q1 = c0 * ratio, c1 * ratio, r0 * ratio, r1 * ratio
        candidates += int(sat[q1, p1] - sat[q0, p1] - sat[q1, p0] + sat[q0, p0])
    return {
        "built_pixels": int(np.count_nonzero(scn.built)),
        "units": len(scn.unit_ids),
        "ring_vertices": scn.ring_vertices,
        "pois": int(scn.poi_x.size),
        "dense_pois": exp.n_dense,
        "tiles_excluded": int(np.count_nonzero(~exp.retained)),
        "bbox_candidates": candidates,
        "tiles": scn.n_cols * scn.n_rows,
        "pixels": int(scn.built.size),
    }
