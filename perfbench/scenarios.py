"""The benchmark's synthetic cities, and the set-up step that writes them.

Run as a script it is the timed set-up of one run: a fresh interpreter
imports popgrid, generates the workload's city from the seed and writes it
in the pipeline's input formats. ``setup_s`` is the wall time of that
process, from start to inputs on disk.

    python3 perfbench/scenarios.py --workload city --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-workload generator settings. The synthetic seed is base_seed + --seed,
# so --seed 0 of `city` is the criterion-8 city of the acceptance suite.
# With few units, a narrow built fraction keeps the built-pixel count, and so
# the work, nearly the same from seed to seed.
WORKLOADS = {
    "city": dict(
        base_seed=8001,
        extent=15360.0,  # 512 x 512 tiles of 30 m, 1024 x 1024 pixels of 15 m
        n_units=500,
        built_fraction_range=(0.15, 0.55),
        n_poi_clusters=720,
        n_scattered_pois=400,
        ring_vertices=0,  # rectangles as synth writes them
    ),
    "districts": dict(
        base_seed=9001,
        extent=15360.0,
        n_units=40,
        built_fraction_range=(0.3, 0.4),
        n_poi_clusters=60,
        n_scattered_pois=200,
        ring_vertices=368,
    ),
    "bazaar": dict(
        base_seed=7001,
        extent=7680.0,  # 256 x 256 tiles, 512 x 512 pixels
        n_units=50,
        built_fraction_range=(0.3, 0.4),
        n_poi_clusters=1500,
        n_scattered_pois=5000,
        ring_vertices=368,
    ),
}
TILE_SIZE = 30.0
PIXEL_SIZE = 15.0
CLUSTER_SIZE_RANGE = (10, 18)


def import_popgrid():
    """Import popgrid from this checkout's ``src``, and nowhere else."""
    if not (SRC / "popgrid" / "__init__.py").is_file():
        raise SystemExit(f"popgrid sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import popgrid

    if Path(popgrid.__file__).resolve().parent != SRC / "popgrid":
        raise SystemExit(f"popgrid imported from {popgrid.__file__}, not from {SRC}")
    return popgrid


def grid_side(workload: str) -> int:
    return round(WORKLOADS[workload]["extent"] / TILE_SIZE)


def synth_seed(workload: str, seed: int) -> int:
    return (WORKLOADS[workload]["base_seed"] + seed) % 2**64


def spec_for(workload: str, seed: int):
    from popgrid import synth
    from popgrid.geo import BBox

    w = WORKLOADS[workload]
    return synth.ScenarioSpec(
        seed=synth_seed(workload, seed),
        extent=BBox(0.0, 0.0, w["extent"], w["extent"]),
        n_units=w["n_units"],
        built_fraction_range=w["built_fraction_range"],
        n_poi_clusters=w["n_poi_clusters"],
        poi_cluster_size_range=CLUSTER_SIZE_RANGE,
        tile_size=TILE_SIZE,
        pixel_size=PIXEL_SIZE,
        n_scattered_pois=w["n_scattered_pois"],
    )


def many_vertex_units(units, vertices: int):
    """The same rectangles, each ring with about ``vertices`` collinear vertices.

    Vertices are spread evenly along each side, so the four sides keep their
    exact coordinates and every membership test, and therefore every output
    byte, is unchanged; only the ring kernels see ``vertices`` edges per unit
    instead of 4. The count is fixed per unit, so the kernels' work does not
    depend on how the seed happens to cut the city.
    """
    from dataclasses import replace

    from popgrid.geo import Point, Polygon

    out = []
    for u in units:
        (part,) = u.geometry
        b = part.bbox
        perimeter = 2.0 * (b.width + b.height)
        n_w = max(1, round(vertices * b.width / perimeter))
        n_h = max(1, round(vertices * b.height / perimeter))
        ring = [Point(b.min_x + b.width * i / n_w, b.min_y) for i in range(n_w)]
        ring += [Point(b.max_x, b.min_y + b.height * i / n_h) for i in range(n_h)]
        ring += [Point(b.max_x - b.width * i / n_w, b.max_y) for i in range(n_w)]
        ring += [Point(b.min_x, b.max_y - b.height * i / n_h) for i in range(n_h)]
        out.append(replace(u, geometry=(Polygon(exterior=tuple(ring)),)))
    return tuple(out)


def generate(workload: str, seed: int):
    from popgrid import synth

    return synth.generate(spec_for(workload, seed))


def write(workload: str, truth, out_dir: Path) -> None:
    from popgrid import synth

    synth.write_scenario(truth, out_dir)
    if WORKLOADS[workload]["ring_vertices"]:
        rewrite_rings(workload, truth, out_dir)


def rewrite_rings(workload: str, truth, out_dir: Path) -> None:
    from popgrid import io

    units = many_vertex_units(truth.units, WORKLOADS[workload]["ring_vertices"])
    io.write_admin_units(units, out_dir / "admin.geojson")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    import_popgrid()
    write(args.workload, generate(args.workload, args.seed), Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
