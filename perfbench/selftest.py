"""Self-test of the output checks: each must report a planted fault.

    python3 perfbench/selftest.py

Two tiny cities (rectangle rings, and the same units with 100-vertex rings)
go through `popgrid run` and `popgrid zonal`. Every check must pass on the
real outputs, and the two ring forms must give byte-identical grids. Then
one fault per check is planted and the check must report it: one tile's
population moved to a neighbour, one tile-mask cell flipped, one zonal row
off by one person, a rerun whose outputs differ by one byte. Exits 0 when
every assertion holds; finishes in a few seconds.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
from pathlib import Path

import checks
from ops import call, run_argv, zonal_argv
from scenarios import import_popgrid, many_vertex_units

HERE = Path(__file__).resolve().parent
SIDE = 64  # tiles per side of the tiny cities


def make_city(work: Path, many_vertex: bool) -> Path:
    from popgrid import io, synth
    from popgrid.geo import BBox

    spec = synth.ScenarioSpec(
        seed=20230716,
        extent=BBox(0.0, 0.0, SIDE * 30.0, SIDE * 30.0),
        n_units=8,
        n_poi_clusters=6,
        poi_cluster_size_range=(10, 18),
        n_scattered_pois=40,
    )
    truth = synth.generate(spec)
    scn = work / ("many_vertex" if many_vertex else "rectangles")
    synth.write_scenario(truth, scn)
    if many_vertex:
        io.write_admin_units(many_vertex_units(truth.units, 100), scn / "admin.geojson")
    return scn


def run_city(scn: Path, out: Path) -> None:
    from popgrid.cli import main

    for argv in (run_argv(scn, out, SIDE), zonal_argv(scn, out)):
        code, _, err = call(main, argv)
        require(code == 0, f"popgrid {argv[0]} exited {code}: {err}")


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def expect_report(errs, what: str) -> None:
    require(bool(errs), f"the check did not report {what}")
    print(f"ok: caught {what}: {errs[0] if isinstance(errs, list) else next(iter(errs.values()))}")


def main() -> int:
    import_popgrid()
    work = HERE / "work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        digests = {}
        for many_vertex in (True, False):  # the rectangle city's outputs stay for the planted faults
            scn_dir = make_city(work, many_vertex)
            out = work / f"out-{scn_dir.name}"
            run_city(scn_dir, out)
            scn = checks.load_scenario(scn_dir)
            exp = checks.expected_outputs(scn)
            errs, _ = checks.check_outputs(scn, exp, out)
            require(not errs, f"checks fail on correct outputs ({scn_dir.name}): {errs}")
            require(exp.n_dense > 0 and not exp.retained.all(), "the tiny city excludes no tile")
            digests[scn_dir.name] = checks.digest_outputs(out)
            print(f"ok: every check passes on the real outputs ({scn_dir.name}, {scn.ring_vertices} ring vertices)")
        for name in ("population.asc", "tile_mask.asc"):
            require(digests["rectangles"][name] == digests["many_vertex"][name], f"{name} depends on the ring form")
        print("ok: many_vertex rings give byte-identical grids")

        # planted faults
        header, pop = checks.read_ascii(out / "population.asc")
        r, c = map(int, divmod(int(pop.argmax()), pop.shape[1]))
        moved = pop.copy()
        nc = c + 1 if c + 1 < pop.shape[1] else c - 1
        moved[r, nc] += moved[r, c]
        moved[r, c] = 0.0
        expect_report(checks.check_population(scn, header, moved, exp.population),
                      "one tile's population moved to a neighbour")

        header, tmask = checks.read_ascii(out / "tile_mask.asc")
        flipped = tmask.copy()
        flipped[0, 0] = 1.0 - flipped[0, 0]
        expect_report(checks.check_tile_mask(scn, header, flipped, exp.retained), "one tile-mask cell flipped")

        bad_zonal = work / "zonal-off-by-one.csv"
        with open(out / "zonal.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[1][1] = repr(float(rows[1][1]) + 1.0)
        with open(bad_zonal, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        expect_report(checks.check_zonal(scn, bad_zonal), "one zonal row off by one person")

        rerun = work / "rerun"
        shutil.copytree(out, rerun)
        blob = bytearray((rerun / "report.json").read_bytes())
        blob[-2] ^= 1
        (rerun / "report.json").write_bytes(bytes(blob))
        expect_report(checks.check_reruns([checks.digest_outputs(out), checks.digest_outputs(rerun)]),
                      "a rerun that differs by one byte")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: all checks catch their planted faults")
    return 0


if __name__ == "__main__":
    sys.exit(main())
