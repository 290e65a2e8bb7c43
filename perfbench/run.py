"""Benchmark of `popgrid run` and `popgrid zonal` on three synthetic cities.

    python3 perfbench/run.py --workload city --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all   # every workload, one table

With --trace 0 a separate process (ops.py) sets up the city (a fresh
interpreter: import popgrid, generate, write), does a warm-up operation, and
then alternates set-ups and timed operations for --seconds. With --trace 1
the traced pass (trace.py) runs instead and the per-layer figures are
reported; the metric names and units are those BENCHMARK.json lists.
Either way every operation's outputs are checked by checks.py, which never
calls popgrid. The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}; every time is a median over the run's
timed operations or set-ups. A fuller record, with machine facts and the
make-up of the inputs, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import checks
from scenarios import WORKLOADS, synth_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a child may take this long beyond --seconds: set-up, warm-up, the last operation
CHILD_MARGIN_S = 120


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def machine_facts() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def child(timeout: float, script: str, *args: str) -> str:
    """Run one of the benchmark's scripts in a fresh interpreter; its stdout.

    The script runs in a process group of its own, so that on a timeout the
    set-ups it started are stopped with it.
    """
    with subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{script} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}: {stderr[-2000:]}")
    return stdout


def judge(ops: list[dict], work: Path, prefix: str, scn: checks.Scenario, exp: checks.Expected):
    """Mark each operation failed or not; (failures, reference population)."""
    good = [i for i, op in enumerate(ops) if op["digests"]]
    failures: dict[int, str] = {i: f"operation {i} did not complete: {op['error']}"
                                for i, op in enumerate(ops) if not op["digests"]}
    if not good:
        return failures, None
    ref = good[0]
    errs, population = checks.check_outputs(scn, exp, work / f"{prefix}{ref}")
    differ = checks.check_reruns([ops[i]["digests"] for i in good])
    for k, i in enumerate(good):
        if k in differ:
            failures[i] = differ[k]
        elif errs:
            failures[i] = "; ".join(errs)
    return failures, population


def median_of(ops: list[dict], failures: dict, key) -> float:
    """Median over the timed operations that did not fail; when every one
    failed a check, over those that completed, so a wrong run still reports."""
    timed = [(i, op) for i, op in enumerate(ops) if i > 0 and op["digests"]]
    values = [key(op) for i, op in timed if i not in failures] or [key(op) for _, op in timed]
    if not values:
        raise BenchError("no timed operation completed")
    return statistics.median(values)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    facts = machine_facts()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = HERE / "work" / f"{tag}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    scn_dir = work / "scenario"
    record: dict = {"workload": workload, "seed": seed, "synth_seed": synth_seed(workload, seed),
                    "seconds": seconds, "trace": trace, "facts": facts}
    timeout = seconds + CHILD_MARGIN_S
    try:
        if trace:
            out = json.loads(child(timeout, "trace.py", "--workload", workload, "--seed", str(seed),
                                   "--scenario", str(scn_dir), "--out", str(work),
                                   "--seconds", str(seconds), "--spans", str(results / f"{tag}.spans.json")))
            prefix = "traced"
        else:
            out = json.loads(child(timeout, "ops.py", "--workload", workload, "--seed", str(seed),
                                   "--scenario", str(scn_dir), "--out", str(work), "--seconds", str(seconds)))
            record["setup_samples_s"] = out["setup_s"]
            record["peak_rss_last_mb"] = out["peak_rss_last_mb"]
            prefix = "op"
        ops = out["ops"]
        scn = checks.load_scenario(scn_dir)
        exp = checks.expected_outputs(scn)
        failures, population = judge(ops, work, prefix, scn, exp)
        record["makeup"] = checks.makeup(scn, exp)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        units = metric_units("per_layer")
        metrics = {name: median_of(ops, failures, lambda op, n=name: op["layers"][n])
                   for name in units if name != "synth.tile_mae"}
        metrics["synth.tile_mae"] = checks.tile_mae(scn, population)
    else:
        units = metric_units("end_to_end")
        metrics = {
            "run_zonal_s": median_of(ops, failures, lambda op: op["run_s"] + op["zonal_s"]),
            "setup_s": statistics.median(out["setup_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
        }
    if population is not None:
        record["tile_mae"] = checks.tile_mae(scn, population)
    # an operation that completed but whose outputs fail a check makes the run incorrect
    wrong = [i for i in failures if ops[i]["digests"]]
    result = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(
        result,
        failures={str(i): msg for i, msg in sorted(failures.items())},
        ops=[{k: v for k, v in op.items() if k not in ("digests", "error")} for op in ops],
    )
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def print_table(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:10s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:10s} attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: bench(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (BenchError, checks.CheckError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    for w, r in results.items():
        print_table(w, r)
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
