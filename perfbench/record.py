"""Run every workload over several seeds, print each metric with its unit and
run-to-run spread, and optionally write the record.

    python3 perfbench/record.py [--out perfbench/BASELINE.json]

Each workload runs with seeds 0..9, each run a separate ``run.py`` process,
as the benchmark is run in use.  The spread of a metric is
(Q3 - Q1) / median over the seeds, with the quartiles of
``statistics.quantiles(values, n=4)``; it is flagged when it is not below a
third of the metric's bound in BENCHMARK.json.  One traced run per workload
(seed 0) adds the per-layer metrics and the tracing overhead.  The record also holds the machine and provenance facts
and each ladder's rung budget and memory cap.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

run.configure_environment()

import cases  # noqa: E402

SEEDS = list(range(10))


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                         timeout=900)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n"
                         f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    notes = [line for line in out.stderr.splitlines()
             if line.startswith(("case ", "rung ", "not traced"))]
    return result, wall, notes


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values) if med else 0.0


def provenance():
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((run.SRC / "qspair").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": run.BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def ladders():
    out = {}
    for name, build in cases.WORKLOADS.items():
        wl = build(0)
        out[name] = {"rungs": [c.name for c in wl.ladder],
                     "rung_budget_s": [c.budget for c in wl.ladder],
                     "memory_cap_mb": cases.MEMORY_CAP_MB}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"provenance": provenance(), "run_seconds": seconds,
              "seeds": SEEDS, "ladders": ladders(), "workloads": {}}
    unsteady = []
    for w in cases.WORKLOADS:
        runs = [bench_run(w, s, seconds, 0) for s in SEEDS]
        traced, traced_wall, _ = bench_run(w, SEEDS[0], seconds, 1)
        entry = {
            "correct": all(r["correct"] for r, _, _ in runs),
            "attempted": runs[0][0]["attempted"],
            "failed": runs[0][0]["failed"],
            "failures": sorted({re.sub(r" in [0-9.]+ s", "", n)
                                for _, _, notes in runs for n in notes
                                if "ok in" not in n}),
            "wall_s": [round(wall, 2) for _, wall, _ in runs],
            "traced_wall_s": round(traced_wall, 2),
            "metrics": {},
            "traced": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        wall = statistics.median(entry["wall_s"])
        print(f"== {w}: correct={entry['correct']} attempted="
              f"{entry['attempted']} failed={entry['failed']} failed_frac="
              f"{entry['failed_frac']:.4f} wall={wall:.1f} s")
        for name in runs[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _, _ in runs]
            unit = runs[0][0]["metrics"][name]["unit"]
            sp = spread(values)
            steady = sp < bounds[name] / 3
            if not steady:
                unsteady.append(f"{w}.{name}")
            entry["metrics"][name] = {"median": statistics.median(values),
                                      "unit": unit, "spread": sp,
                                      "values": values}
            print(f"  {name:<12} {statistics.median(values):>11.4f} {unit:<8}"
                  f" spread {sp:6.3f} (bound {bounds[name]})"
                  f"{'' if steady else '  <-- not below bound/3'}")
        tr = entry["traced"]
        print(f"  traced: overhead {tr['trace.overhead_frac']:.3f}, layer self"
              f" {tr['trace.layer_self_s']:.2f} s of untraced "
              f"{tr['trace.untraced_s']:.2f} s, "
              f"mismatches {tr['trace.mismatches']}")
        record["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if not unsteady else f"unsteady: {', '.join(unsteady)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
