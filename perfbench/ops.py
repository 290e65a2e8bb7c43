"""Set-ups and operations in a closed loop, in a process of their own.

One operation is what a user runs: `popgrid run`, then `popgrid zonal` on
that run's population grid, both in-process through `popgrid.cli.main` with
the argv a user would type. One set-up is what `setup_s` times: a fresh
interpreter that generates the city and writes it (scenarios.py), started
as a child process, so its memory is not this process's.

The process first sets up the city the operations read, then does an untimed
warm-up operation. Then, until SECONDS have passed, it alternates a set-up
(into a directory of its own) and an operation; the last operation that
starts is finished. Spreading the set-ups over the whole run, between the
operations, lets their median and the operations' see the same spells of a
host whose speed drifts. The process does nothing else that holds memory,
so its `ru_maxrss` is the program's peak. It is read after the warm-up, the
one operation that starts from a fresh interpreter as a user's `popgrid run`
does; later operations can only raise it by the allocator's fragmentation,
which varies from run to run.

Prints one JSON object: the set-up times, per-operation times, exit codes
and output digests, and the peak RSS after the first and the last operation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from checks import OUTPUTS, digest_outputs
from scenarios import grid_side, import_popgrid

HERE = Path(__file__).resolve().parent


def run_argv(scn: Path, out: Path, side: int) -> list[str]:
    return [
        "run",
        "--admin", str(scn / "admin.geojson"),
        "--poi", str(scn / "poi.geojson"),
        "--mask", str(scn / "mask.asc"),
        "--out", str(out),
        "--origin-x", "0",
        "--origin-y", "0",
        "--n-cols", str(side),
        "--n-rows", str(side),
    ]


def zonal_argv(scn: Path, out: Path) -> list[str]:
    return [
        "zonal",
        "--grid", str(out / "population.asc"),
        "--admin", str(scn / "admin.geojson"),
        "--out", str(out / "zonal.csv"),
    ]


def call(main, argv: list[str]) -> tuple[int, float, str]:
    """(exit code, wall seconds, captured stderr) of one CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed, err.getvalue()


def closed_loop(
    step: Callable[[int, Path], dict],
    root: Path,
    prefix: str,
    seconds: float,
    between: Callable[[], None] | None = None,
) -> list[dict]:
    """Operation 0 (the warm-up), then operations until `seconds` after it.

    `step(i, out)` does operation i with its outputs in `out` and returns its
    record, whose "error" is "" when the operation completed. The loop adds
    the digests of the outputs, None when any is missing, and keeps only the
    first good outputs on disk, for the checks. `between()`, when given, runs
    before every operation after the warm-up.
    """
    ops: list[dict] = []
    deadline = None
    while deadline is None or time.perf_counter() < deadline:
        if deadline is not None and between is not None:
            between()
        out = root / f"{prefix}{len(ops)}"
        rec = step(len(ops), out)
        ok = not rec["error"] and all((out / n).is_file() for n in OUTPUTS)
        rec["digests"] = digest_outputs(out) if ok else None
        ops.append(rec)
        if any(op["digests"] for op in ops[:-1]):
            shutil.rmtree(out, ignore_errors=True)
        if deadline is None:
            deadline = time.perf_counter() + seconds
    return ops


def set_up(workload: str, seed: int, out: Path, timeout: float) -> float:
    """Wall seconds of one set-up into the fresh directory `out`."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, str(HERE / "scenarios.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"set-up exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scenario", required=True, help="directory the operations' city is written to")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    import_popgrid()
    from popgrid.cli import main as popgrid_main

    scn = Path(args.scenario)
    root = Path(args.out)
    side = grid_side(args.workload)
    setup_timeout = 60 + args.seconds
    setup_s = [set_up(args.workload, args.seed, scn, setup_timeout)]
    peaks_kb = []

    def operation(i: int, out: Path) -> dict:
        run_code, run_s, run_err = call(popgrid_main, run_argv(scn, out, side))
        zonal_code, zonal_s, zonal_err = (
            call(popgrid_main, zonal_argv(scn, out)) if run_code == 0 else (None, None, "")
        )
        peaks_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        failed = run_code != 0 or zonal_code != 0
        return {
            "run_code": run_code,
            "zonal_code": zonal_code,
            "run_s": run_s,
            "zonal_s": zonal_s,
            "error": (run_err + zonal_err)[-2000:] if failed else "",
        }

    def between() -> None:
        setup_s.append(set_up(args.workload, args.seed, root / "setup", setup_timeout))

    ops = closed_loop(operation, root, "op", args.seconds, between)
    print(json.dumps({
        "ops": ops,
        "setup_s": setup_s,
        "peak_rss_mb": peaks_kb[0] / 1024.0,
        "peak_rss_last_mb": peaks_kb[-1] / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
