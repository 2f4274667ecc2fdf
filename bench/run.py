"""localalg benchmark: seeded CLI workloads, an oracle gate, per-layer spans.

Run from the root of a checkout:

    python3 bench/run.py --workload verify_leaf --seed 1 --seconds 20 --trace 0

Workloads are named in ``BENCHMARK.json``. ``--workload known_failures``
runs, once, the inputs the program mishandles today and lists them by
class, with their fail_frac and no timed metrics; ``--workload all`` runs
every workload plus that census and prints one table. Each workload run is one fresh child process (``child.py``) with
BLAS and OpenMP pinned to one thread. Set-up time is taken from several
fresh children, the median reported. With ``--trace 0`` the last stdout
line holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.
Times there are in reference seconds (see child.py). The raw clock
readings are printed above it, and the traced result also holds them as
``wall_raw_s`` and ``setup_raw_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
CENSUS = "known_failures"
SETUP_CHILDREN = 9  # set-up-only children per run, besides the workload child
DEADLINE_S = 170.0  # a run ends within 180 s
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

# Inclusive spans that make up each workload's dominant stage.
DOMINANT = {
    "verify_leaf": ("torus.verify_min_leaf_all",),
    "forms_solve": ("forms.assemble_form_constraints",
                    "torus.assemble_function_constraints", "torus.solve_nullspace"),
    "lift_swell": ("lift.taylor_lift",),
    "spec_algebras": ("algebra.validate_algebra", "algebra.standardize"),
}


class BenchError(Exception):
    pass


def spawn(argv: list[str], deadline: float) -> dict:
    """Run child.py and return its JSON result."""
    env = dict(os.environ, **THREAD_PINS)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)] + argv + ["--started", repr(started)], cwd=ROOT,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {' '.join(argv)} passed the deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Spawn the children of one workload run. The census is judged, not
    timed, so it reports no metrics and starts no set-up children."""
    deadline = time.monotonic() + DEADLINE_S
    census = workload == CENSUS
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = [] if trace or census else [spawn(args + ["--setup-only"], deadline)
                                         for _ in range(SETUP_CHILDREN)]
    result = spawn(args, deadline)
    setups.append(result)
    failed = sum(f["count"] for f in result["failures"].values())
    raw = {"wall_raw_s": result["wall_raw_s"],
           "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups)}
    if census:
        values, units = {}, {}
    elif trace:
        snapshot = result["trace"]
        main_s = snapshot.get("cli.main", {}).get("s", 0.0)
        dominant = sum(snapshot.get(k, {}).get("s", 0.0) for k in DOMINANT.get(workload, ()))
        special = {
            "trace.wall_s": result["wall_s"],
            "trace.overhead_s": result["traced_wall_s"] - result["wall_s"],
            "dominant_share": dominant / main_s if main_s else 0.0,
            **raw,
        }
        values = {m["name"]: special[m["name"]] if m["name"] in special
                  else metric(snapshot, m["name"]) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"wall_s": result["wall_s"],
                  "peak_rss_mb": result["maxrss_kb"] / 1024.0,
                  "setup_s": statistics.median(s["setup_s"] for s in setups)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # the traced result holds the raw clock times as metrics; elsewhere they are
    # printed beside the scaled ones
    shown = {} if census or trace else raw
    return {"result": result, "failed": failed, "values": values, "units": units, "raw": shown}


def report(spec: dict, workload: str, seed: int, trace: int, run: dict) -> dict:
    """Print the human-readable summary; return the JSON result object."""
    res = run["result"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(
        workload, "inputs the program mishandles today; not timed")
    print(f"workload {workload} seed={seed} trace={trace} passes={res['passes']} "
          f"jobs/pass={res['jobs']}")
    print(f"why: {why}")
    print("env: " + " ".join(f"{k}={v}" for k, v in res["env"].items()))
    absent = sorted(k for k, v in run["values"].items() if v is None)
    for name, value in run["values"].items():
        if value is not None:
            print(f"  {name} = {value:.6g} {run['units'][name]}")
    for name, value in run["raw"].items():
        print(f"  {name} = {value:.6g} s (raw clock)")
    if absent:
        print("  absent (function not found): " + ", ".join(absent))
    print(f"  fail_frac = {run['failed'] / res['attempted']:.6g} ratio "
          f"({run['failed']}/{res['attempted']} jobs)")
    by_class: dict[str, list[str]] = {}
    for argv, f in sorted(res["failures"].items()):
        shown = argv if len(argv) <= 100 else argv[:97] + "..."
        by_class.setdefault(f["class"], []).append(f"{shown}  [{f['reason']}]")
    for cls, items in sorted(by_class.items()):
        print(f"  failing class {cls}: {len(items)} distinct jobs")
        for item in items:
            print(f"    {item}")
    metrics = {name: {"value": 0.0 if value is None else value, "unit": run["units"][name]}
               for name, value in run["values"].items()}
    return {"correct": run["failed"] == 0, "attempted": res["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_json = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "localalg" / "cli.py").is_file() or not bench_json.is_file():
        print(f"no localalg sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(bench_json.read_text())
    timed = [w["name"] for w in spec["workloads"]]
    names = timed + [CENSUS] if args.workload == "all" else [args.workload]
    if any(n not in timed + [CENSUS] for n in names):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(timed + [CENSUS, 'all'])}", file=sys.stderr)
        return 2

    results = {}
    try:
        for name in names:
            # the census is judged, not timed: one pass is enough
            seconds = 0.0 if name == CENSUS else args.seconds
            run = run_workload(spec, name, args.seed, seconds, args.trace)
            results[name] = report(spec, name, args.seed, args.trace, run)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        columns = list(results[names[0]]["metrics"])
        print(f"{'workload':<16}" + "".join(f"{m:>22}" for m in columns) + f"{'fail_frac':>12}")
        for name, res in results.items():
            cells = [res["metrics"].get(m) for m in columns]  # the census has none
            row = "".join(f"{c['value']:>18.6g} {c['unit']:<3}" if c else " " * 22
                          for c in cells)
            print(f"{name:<16}{row}{res['failed'] / res['attempted']:>12.4g}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
