"""Deterministic synthetic cities with per-pixel ground-truth population.

The generator is a pure function of the scenario seed, driven by a Philox
counter-based RNG. Units form a partition of the (tile-snapped) extent held
as one integer label per tile; a pixel takes its tile's label, and every
per-unit step (built pixels, POI placement, pixel population) works on each
label's flat index list. The labels are painted from guillotine rectangles
today, and only the unit polygons depend on that. Built pixels cluster
around smooth density bumps; POI clusters sit on built patches and carry no
residential population, so the density rule should fire on exactly those
tiles.

Pixel populations are quantized to multiples of 2**-20 persons. Sums of
such values stay exact in double precision at any realistic magnitude, so
each unit's pixel populations add up to its recorded population exactly,
independent of summation order.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import AlignmentError, GenerationError, ValidationError
from .geo import BBox, TileGrid, _require_finite, rectangle
from .io import (
    AdminLevel,
    AdminUnit,
    BinaryRaster,
    PopulationGrid,
    Raster,
    staged,
    write_admin_units,
    write_ascii_grid,
    write_poi_geojson,
)
from .poi_filter import PoiSet

__all__ = ["ScenarioSpec", "GroundTruth", "ScoreResult", "generate", "score", "write_scenario"]

_QUANTUM = 2.0**-20
_CLUSTER_DISC_RADIUS = 250.0  # all members within one default-radius buffer
_CATEGORIES = ("market", "school", "office", "mall", "clinic", "warehouse")
_PLACEMENT_ROUNDS = 20
_MAX_PIXELS = 2**24  # 16x the 1024 x 1024 benchmark city; a larger lattice is refused unallocated


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters for one synthetic scenario."""

    seed: int
    extent: BBox = BBox(0.0, 0.0, 3840.0, 3840.0)
    n_units: int = 12
    built_fraction_range: tuple[float, float] = (0.15, 0.55)
    n_poi_clusters: int = 3
    poi_cluster_size_range: tuple[int, int] = (5, 12)
    population_range: tuple[float, float] = (500.0, 5000.0)
    tile_size: float = 30.0
    pixel_size: float = 15.0
    n_scattered_pois: int = 0

    def __post_init__(self):
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**128:
            raise ValidationError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")  # a Philox key
        for name in ("tile_size", "pixel_size"):
            _require_finite(getattr(self, name), f"ScenarioSpec.{name}")
        for name in ("built_fraction_range", "population_range"):
            for end in getattr(self, name):
                _require_finite(end, f"each end of ScenarioSpec.{name}")
        for name in ("built_fraction_range", "poi_cluster_size_range", "population_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValidationError(f"{name} has lo > hi: ({lo}, {hi})")
        lo, hi = self.built_fraction_range
        if lo < 0 or hi > 1:
            raise ValidationError(f"built_fraction_range must lie in [0, 1]: ({lo}, {hi})")
        if self.population_range[0] < 0:
            raise ValidationError("population_range must be non-negative")
        if self.n_units < 1:
            raise ValidationError(f"n_units must be at least 1, got {self.n_units}")
        if self.n_poi_clusters < 0 or self.n_scattered_pois < 0:
            raise ValidationError("POI counts must be non-negative")
        if self.poi_cluster_size_range[0] < 1:
            raise ValidationError("POI clusters need at least one point")
        if self.tile_size <= 0 or self.pixel_size <= 0:
            raise ValidationError("tile_size and pixel_size must be positive")
        ratio = self.tile_size / self.pixel_size
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValidationError(
                f"pixel_size must divide tile_size evenly, got ratio {ratio}"
            )


@dataclass(frozen=True)
class GroundTruth:
    """A generated scenario with its exact per-pixel population."""

    spec: ScenarioSpec
    grid: TileGrid
    units: tuple[AdminUnit, ...]
    pois: PoiSet
    mask: BinaryRaster
    pixel_population: Raster
    poi_tiles: frozenset[int]  # flat tile indices holding cluster POIs

    @cached_property
    def _tile_values(self) -> np.ndarray:
        ratio = round(self.spec.tile_size / self.spec.pixel_size)
        px = self.pixel_population.values
        return px.reshape(self.grid.n_rows, ratio, self.grid.n_cols, ratio).sum(axis=(1, 3))

    def tile_population(self) -> PopulationGrid:
        return PopulationGrid.on(self.grid, self._tile_values)

    def total_population(self) -> float:
        return float(sum(u.population for u in self.units))


@dataclass(frozen=True)
class ScoreResult:
    mae: float
    rmse: float
    total_error: float


def _partition(rng: np.random.Generator, n_cols: int, n_rows: int, n_units: int):
    """Guillotine split of the tile grid into n_units rectangles (c0, r0, w, h)."""
    rects = [(0, 0, n_cols, n_rows)]
    while len(rects) < n_units:
        # the first of the largest; generate refuses n_units > n_tiles, so it spans two tiles or more
        areas = [w * h for _, _, w, h in rects]
        best = areas.index(max(areas))
        c0, r0, w, h = rects[best]
        if w >= h and w > 1:
            cut = int(rng.integers(1, w))
            pieces = [(c0, r0, cut, h), (c0 + cut, r0, w - cut, h)]
        else:
            cut = int(rng.integers(1, h))
            pieces = [(c0, r0, w, cut), (c0, r0 + cut, w, h - cut)]
        rects[best : best + 1] = pieces
    return rects


def _bump_field(rng: np.random.Generator, prows: int, pcols: int, n_bumps: int) -> np.ndarray:
    """Sum of separable circular Gaussian bumps plus uniform noise."""
    field = np.zeros((prows, pcols), dtype=np.float64)
    rr = np.arange(prows, dtype=np.float64)
    cc = np.arange(pcols, dtype=np.float64)
    min_dim = min(prows, pcols)
    for _ in range(n_bumps):
        cy = rng.uniform(0, prows)
        cx = rng.uniform(0, pcols)
        sigma = rng.uniform(max(2.0, min_dim / 10.0), max(3.0, min_dim / 3.0))
        amp = rng.uniform(0.5, 1.5)
        gy = np.exp(-((rr - cy) ** 2) / (2.0 * sigma * sigma))
        gx = np.exp(-((cc - cx) ** 2) / (2.0 * sigma * sigma))
        field += amp * np.outer(gy, gx)
    field += 0.35 * rng.random((prows, pcols))
    return field


def _place_clusters(
    rng: np.random.Generator,
    spec: ScenarioSpec,
    grid: TileGrid,
    built_tiles_per_unit: list[np.ndarray],
) -> tuple[list[float], list[float], list[str]]:
    """Coordinates and categories of every cluster's POIs, cluster by cluster."""
    order = sorted(
        range(len(built_tiles_per_unit)),
        key=lambda k: (-built_tiles_per_unit[k].size, k),
    )
    eligible = [k for k in order if built_tiles_per_unit[k].size > 0]
    if spec.n_poi_clusters > 0 and not eligible:
        raise GenerationError("POI clusters requested but no unit has built tiles")
    lo, hi = spec.poi_cluster_size_range
    xs: list[float] = []
    ys: list[float] = []
    categories: list[str] = []
    for i in range(spec.n_poi_clusters):
        unit_k = eligible[i % len(eligible)]
        tile_flat = int(rng.choice(built_tiles_per_unit[unit_k]))
        center = grid.tile_center(tile_flat % grid.n_cols, tile_flat // grid.n_cols)
        size = int(rng.integers(lo, hi + 1))
        radii = _CLUSTER_DISC_RADIUS * np.sqrt(rng.random(size))
        angles = 2.0 * math.pi * rng.random(size)
        # libm's cos and sin: numpy's may differ in the last ulp, and so change the bytes
        for r, a in zip(radii.tolist(), angles.tolist()):
            xs.append(center.x + r * math.cos(a))
            ys.append(center.y + r * math.sin(a))
        categories += [_CATEGORIES[j] for j in rng.integers(len(_CATEGORIES), size=size).tolist()]
    return xs, ys, categories


def _members(labels: np.ndarray, n: int) -> list[np.ndarray]:
    """Flat indices of each label 0..n-1 in ``labels``, ascending (row-major)."""
    flat = labels.ravel()
    order = np.argsort(flat, kind="stable")
    return np.split(order, np.cumsum(np.bincount(flat, minlength=n))[:-1])


def generate(spec: ScenarioSpec) -> GroundTruth:
    """Build the scenario deterministically from the seed."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    cap = _MAX_PIXELS + 1  # an overflowing quotient still floors, and still exceeds the limit
    n_cols = math.floor(min(spec.extent.width / spec.tile_size, cap))
    n_rows = math.floor(min(spec.extent.height / spec.tile_size, cap))
    if n_cols < 1 or n_rows < 1:
        raise GenerationError(f"extent {spec.extent} holds no whole {spec.tile_size} m tile")
    ratio = round(spec.tile_size / spec.pixel_size)
    prows = n_rows * ratio
    pcols = n_cols * ratio
    if prows * pcols > _MAX_PIXELS:
        raise GenerationError(
            f"extent {spec.extent} at {spec.pixel_size} m pixels exceeds the {_MAX_PIXELS}-pixel limit"
        )
    grid = TileGrid(spec.extent.min_x, spec.extent.min_y, n_cols, n_rows, spec.tile_size)
    if spec.n_units > grid.n_tiles:
        raise GenerationError(f"{spec.n_units} units do not fit in {grid.n_tiles} tiles")
    if spec.built_fraction_range[1] == 0 and spec.population_range[1] > 0:
        raise GenerationError("zero built fraction cannot host a nonzero population")

    rects = _partition(rng, n_cols, n_rows, spec.n_units)
    field = _bump_field(rng, prows, pcols, n_bumps=max(3, min(8, spec.n_units))).ravel()

    # The partition is one label per tile; a pixel takes its tile's label.
    tile_label = np.empty((n_rows, n_cols), dtype=np.min_scalar_type(spec.n_units))
    for k, (c0, r0, w, h) in enumerate(rects):
        tile_label[r0 : r0 + h, c0 : c0 + w] = k
    pixel_label = tile_label.repeat(ratio, axis=0).repeat(ratio, axis=1)
    unit_pixels = _members(pixel_label, spec.n_units)

    built = np.zeros(prows * pcols, dtype=np.uint8)
    lo_f, hi_f = spec.built_fraction_range
    may_populate = spec.population_range[1] > 0
    for px in unit_pixels:
        frac = rng.uniform(lo_f, hi_f)
        k = int(round(frac * px.size))
        if may_populate and hi_f > 0:
            k = max(1, k)  # every populated unit needs a home pixel
        if k > 0:
            built[px[np.argsort(-field[px], kind="stable")[:k]]] = 1

    built_tile = built.reshape(n_rows, ratio, n_cols, ratio).any(axis=(1, 3)).ravel()
    built_tiles_per_unit = [t[built_tile[t]] for t in _members(tile_label, spec.n_units)]

    poi_tile = np.zeros(grid.n_tiles, dtype=bool)
    for _ in range(_PLACEMENT_ROUNDS):
        xs, ys, categories = _place_clusters(rng, spec, grid, built_tiles_per_unit)
        cols, rows, inside = grid.tile_indices_of(xs, ys)
        poi_tile[:] = False
        poi_tile[grid.flat_index(cols[inside], rows[inside])] = True
        # every unit must keep a residential built pixel for its population,
        # that is a built tile that holds no cluster POI
        homes = np.bincount(tile_label.ravel()[built_tile & ~poi_tile], minlength=spec.n_units)
        if not may_populate or homes.all():
            break
    else:
        raise GenerationError(
            "could not place POI clusters without starving a unit of residential pixels"
        )

    e = spec.extent
    for _ in range(spec.n_scattered_pois):
        xs.append(rng.uniform(e.min_x, e.max_x))
        ys.append(rng.uniform(e.min_y, e.max_y))
        categories.append(_CATEGORIES[rng.integers(len(_CATEGORIES))])

    commercial = poi_tile.reshape(n_rows, n_cols).repeat(ratio, axis=0).repeat(ratio, axis=1)
    residential = (built == 1) & ~commercial.ravel()
    pixel_pop = np.zeros(prows * pcols, dtype=np.float64)
    populations = []
    lo_p, hi_p = spec.population_range
    for px in unit_pixels:
        target = math.floor(rng.uniform(lo_p, hi_p) / _QUANTUM) * _QUANTUM
        if target > 0:  # the placement loop left the unit a residential pixel
            idx = px[residential[px]]
            weights = field[idx] + 0.25
            raw = target * weights / float(weights.sum())
            vals = np.floor(raw / _QUANTUM) * _QUANTUM
            vals[int(np.argmax(weights))] += target - float(vals.sum())
            pixel_pop[idx] = vals
        populations.append(target)

    x0, y0, ts = grid.origin_x, grid.origin_y, spec.tile_size
    units = tuple(
        AdminUnit(
            id=f"u{k:03d}",
            level=AdminLevel.CIRCLE,
            geometry=(rectangle(x0 + c0 * ts, y0 + r0 * ts, x0 + (c0 + w) * ts, y0 + (r0 + h) * ts),),
            population=population,
        )
        for k, ((c0, r0, w, h), population) in enumerate(zip(rects, populations))
    )

    pixels = TileGrid(grid.origin_x, grid.origin_y, pcols, prows, spec.pixel_size)
    return GroundTruth(
        spec=spec,
        grid=grid,
        units=units,
        pois=PoiSet(xs, ys, categories),
        mask=BinaryRaster.on(pixels, built.reshape(prows, pcols)),
        pixel_population=Raster.on(pixels, pixel_pop.reshape(prows, pcols)),
        poi_tiles=frozenset(int(i) for i in np.flatnonzero(poi_tile)),
    )


def score(estimate: PopulationGrid, truth: GroundTruth) -> ScoreResult:
    """Per-tile MAE/RMSE against the aggregated ground truth."""
    truth_tiles = truth.tile_population()
    if estimate.grid != truth.grid:
        raise AlignmentError("estimate grid does not match the ground-truth grid")
    diff = estimate.values - truth_tiles.values
    mae = float(np.mean(np.abs(diff)))
    rmse = float(math.sqrt(np.mean(diff * diff)))
    total_error = abs(estimate.total() - truth_tiles.total())
    return ScoreResult(mae=mae, rmse=rmse, total_error=total_error)


def write_scenario(truth: GroundTruth, out_dir: str | Path) -> dict[str, str]:
    """Write the scenario in the standard pipeline input formats, through
    ``io.staged``: all five files appear, ``scenario.json`` last, or none."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "admin": out / "admin.geojson",
        "poi": out / "poi.geojson",
        "mask": out / "mask.asc",
        "truth_tiles": out / "truth_tiles.asc",
        "meta": out / "scenario.json",
    }
    e = truth.spec.extent
    meta = {
        **asdict(truth.spec),
        "extent": [e.min_x, e.min_y, e.max_x, e.max_y],
        "grid": asdict(truth.grid),
        "total_population": truth.total_population(),
        "n_pois": len(truth.pois),
    }
    with staged(*paths.values()) as (admin, poi, mask, truth_tiles, meta_path):
        write_admin_units(truth.units, admin)
        write_poi_geojson(truth.pois, poi)
        write_ascii_grid(truth.mask, mask)
        write_ascii_grid(truth.tile_population(), truth_tiles)
        meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}
