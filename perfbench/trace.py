"""The traced pass: the public calls of each popgrid module, timed as spans.

One traced operation generates and writes the city (synth), then repeats
what `popgrid run` and `popgrid zonal` do, calling the public functions of
io, poi_filter, disaggregate and evaluate in the order `cli.cmd_run` and
`cli.cmd_zonal` call them. Two `geo` spans follow: separate calls that
repeat the kernel share of their parent layer's work (`points_in_any` on
each unit's bbox candidates, as in `assign_pixels`; `tile_centers_in_parts`
for every unit, as in `zonal_stats`).

Spans (name, start, end, parent, operation) are held in memory and written
to --spans when the pass ends. Prints one JSON object with every layer
metric of every operation.
"""

from __future__ import annotations

import argparse
import json
import time
import traceback
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ops import closed_loop
from scenarios import TILE_SIZE, WORKLOADS, generate, grid_side, import_popgrid, rewrite_rings


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, metric: str | None = None, **attrs):
        rec = {
            "name": name,
            "metric": metric,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def traced_op(t: Tracer, workload: str, seed: int, scn: Path, out: Path) -> None:
    from popgrid import disaggregate, evaluate, io, synth
    from popgrid.cli import DEFAULT_POI_RADIUS, DEFAULT_POI_THRESHOLD
    from popgrid.geo import TileGrid, points_in_any, tile_centers_in_parts
    from popgrid.poi_filter import compute_tile_mask

    admin, poi, mask_path = scn / "admin.geojson", scn / "poi.geojson", scn / "mask.asc"
    pop_path, tmask_path = out / "population.asc", out / "tile_mask.asc"
    out.mkdir(parents=True, exist_ok=True)
    size = lambda p: p.stat().st_size  # noqa: E731

    with t.span("op"):
        with t.span("synth.generate", "synth.generate_s"):
            truth = generate(workload, seed)
        with t.span("synth.write_scenario", "synth.write_s"):
            synth.write_scenario(truth, scn)
        if WORKLOADS[workload]["ring_vertices"]:
            with t.span("scenarios.rewrite_rings"):
                rewrite_rings(workload, truth, scn)
        del truth

        with t.span("cli.run", "trace.run_total_s"):
            with t.span("io.read_admin_units", "io.read_admin_s", bytes_read=size(admin)):
                units = io.read_admin_units(admin, expected_level="circle")
            with t.span("io.read_poi", "io.read_poi_s", bytes_read=size(poi)):
                pois = io.read_poi(poi)
            with t.span("io.read_ascii_grid", "io.read_mask_s", bytes_read=size(mask_path)):
                mask = io.BinaryRaster.from_raster(io.read_ascii_grid(mask_path))
            side = grid_side(workload)
            grid = TileGrid(origin_x=0.0, origin_y=0.0, n_cols=side, n_rows=side, tile_size=TILE_SIZE)
            with t.span("poi_filter.compute_tile_mask", "poi_filter.tile_mask_s", items=len(pois)):
                tile_mask = compute_tile_mask(grid, pois, DEFAULT_POI_RADIUS, DEFAULT_POI_THRESHOLD)
            built = int(np.count_nonzero((mask.values == 1) & ~mask.nodata))
            with t.span("disaggregate.assign_pixels", "disaggregate.assign_s", items=built):
                assignment = disaggregate.assign_pixels(mask, grid, units, tile_mask)
            with t.span("disaggregate.allocate", "disaggregate.allocate_s"):
                pop_grid, report = disaggregate.allocate(assignment, units)
            with t.span("io.write_ascii_grid", "io.write_grids_s") as s:
                io.write_ascii_grid(pop_grid, pop_path)
            s["bytes_written"] = size(pop_path)
            with t.span("io.write_ascii_grid", "io.write_grids_s") as s:
                io.write_ascii_grid(io.raster_from_tile_mask(tile_mask), tmask_path)
            s["bytes_written"] = size(tmask_path)
            with t.span("io.write_json") as s:
                io.write_json(report.to_dict(), out / "report.json")
            s["bytes_written"] = size(out / "report.json")

        rr, cc = np.nonzero((mask.values == 1) & ~mask.nodata)
        xs = mask.origin_x + (cc + 0.5) * mask.pixel_size
        ys = mask.origin_y + (rr + 0.5) * mask.pixel_size
        cands = []
        for unit in units:
            bb = unit.bbox
            sel = np.flatnonzero((xs >= bb.min_x) & (xs <= bb.max_x) & (ys >= bb.min_y) & (ys <= bb.max_y))
            cands.append((xs[sel], ys[sel], unit.geometry))
        with t.span("geo.points_in_any", "geo.pip_s", repeats="disaggregate.assign_pixels"):
            for cx, cy, parts in cands:
                points_in_any(cx, cy, parts)
        del cands, xs, ys, rr, cc, mask, assignment

        with t.span("cli.zonal", "trace.zonal_total_s"):
            with t.span("io.read_ascii_grid", "io.read_grid_s", bytes_read=size(pop_path)):
                pop = io.population_grid_from_raster(io.read_ascii_grid(pop_path))
            with t.span("io.read_admin_units", "io.read_admin_s", bytes_read=size(admin)):
                zunits = io.read_admin_units(admin, expected_level="circle")
            with t.span("evaluate.zonal_stats", "evaluate.zonal_stats_s"):
                rows = evaluate.zonal_stats(pop, zunits)
            with t.span("io.write_zonal_csv") as s:
                io.write_zonal_csv(rows, out / "zonal.csv")
            s["bytes_written"] = size(out / "zonal.csv")

        with t.span("geo.tile_centers_in_parts", "geo.tile_centers_s", repeats="evaluate.zonal_stats"):
            for unit in zunits:
                tile_centers_in_parts(pop.grid, unit.geometry)


def layer_metrics(spans: list[dict], op: int) -> dict[str, float]:
    """Per-layer figures of one operation: span time summed per metric, and counts."""
    mine = [s for s in spans if s["op"] == op]
    out: dict[str, float] = {}
    for s in mine:
        if s["metric"]:
            out[s["metric"]] = out.get(s["metric"], 0.0) + (s["end"] - s["start"])
    out["io.bytes_read"] = float(sum(s.get("bytes_read", 0) for s in mine))
    out["io.bytes_written"] = float(sum(s.get("bytes_written", 0) for s in mine))
    items = {s["metric"]: s["items"] for s in mine if "items" in s}
    out["poi_filter.pois_per_s"] = items["poi_filter.tile_mask_s"] / out["poi_filter.tile_mask_s"]
    out["disaggregate.pixels_per_s"] = items["disaggregate.assign_s"] / out["disaggregate.assign_s"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scenario", required=True, help="directory the traced pass writes its city to")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", required=True, help="file the spans are written to at the end")
    args = ap.parse_args(argv)
    import_popgrid()

    t = Tracer()
    scn = Path(args.scenario)

    def operation(i: int, out: Path) -> dict:
        t.op = i
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                traced_op(t, args.workload, args.seed, scn, out)
            except Exception:  # one failed operation; the pass goes on
                return {"error": traceback.format_exc()[-2000:], "layers": None}
        return {"error": "", "layers": layer_metrics(t.spans, i)}

    ops = closed_loop(operation, Path(args.out), "traced", args.seconds)
    Path(args.spans).write_text(json.dumps(t.spans) + "\n", encoding="utf-8")
    print(json.dumps({"ops": ops}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
