"""qspair benchmark: one workload per run, one JSON result as the last line.

    python3 perfbench/run.py --workload {kz,coideal,exact} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; qspair is imported from ./src.  BLAS runs
with at most two threads.

--trace 0 reports the end-to-end metrics:

  setup_s      median over five fresh interpreters of ``import qspair`` plus a
               first psi_kz call (BLAS and LAPACK initialisation), started
               at points spread over the run
  gate_s       mean time of one round of the acceptance criteria the
               workload owns, over --seconds of rounds (at least eight)
               spread evenly between the fixed cases and ladder rungs, after
               one warm-up round that is not counted; the mean, not the
               median or the fastest round: a shared host switches between a
               fast and a slow speed (about 1.5x apart) for seconds at a
               time, so the median of a run jumps between the two and the
               fastest round depends on whether a run catches a fast moment,
               while the mean moves only in proportion to the share of slow
               time
  pass_s       every case of the workload in this process: the other fixed
               cases in the workload's passes (kz two, before and after the
               ladder; coideal and exact one), each counted at its faster
               run, plus gate_s; a case that raises, returns a wrong output
               or overruns its budget is charged its whole budget and is not
               run again
  ladder_s     reach-ladder rungs, each in a child process with a time budget
               and an address-space cap; every rung not finished correctly
               is charged its budget
  reach        consecutive rungs finished correctly within budget
  peak_rss_mb  peak resident memory of this process and of the ladder rungs
               that finished
  ok_frac      1 - failed / attempted over fixed cases and ladder rungs that
               finished; a rung that overruns or runs out of memory ends the
               ladder and counts only toward reach

--trace 1 runs every fixed case twice, untraced and traced in alternating
order, and reports per-layer metrics (tracing.py) from the traced calls,
the tracing overhead and the count of cases whose two outputs differ.

``correct`` is false when any output is wrong (or, traced, differs);
``failed`` counts cases that raised, overran or were wrong.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_RUNS = 5
MIN_GATE_ROUNDS = 8
FINISHED = ("ok", "wrong", "raised")   # rung outcomes counted as attempted
RUNG_GRACE_S = 30.0    # interpreter start and kill slack beyond a rung budget

SETUP_PROBE = """
import time
t0 = time.perf_counter()
import qspair
from qspair import kzmono, sln
f = sln.fundamental_rep(2)
kzmono.psi_kz(sln.realize(2, 1), (f, f, f), 0.3, 0.0, 0.05)
print(time.perf_counter() - t0)
"""

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "gate_s": "s", "ladder_s": "s",
             "reach": "rungs", "peak_rss_mb": "MB", "ok_frac": "fraction"}


def configure_environment():
    """Pin BLAS threads and the import path for this process and children."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("QSPAIR_TOL", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    sys.path.insert(0, str(SRC))


def setup_probe():
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.split()[-1])


def run_rung(workload, seed, index, budget):
    """One ladder rung in a fresh capped child.

    Returns (status, elapsed seconds, reason, peak RSS in KB); the peak
    is 0 for a rung that did not finish, whose memory depends on how far it
    got.
    """
    cmd = [sys.executable, str(HERE / "rung.py"), workload, str(seed),
           str(index)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget + RUNG_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "overrun", budget, "killed past its budget", 0
    if proc.returncode == -9:
        return "memory", budget, "killed (SIGKILL)", 0
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return ("raised", budget,
                f"rung exited {proc.returncode}: {err[-300:]}", 0)
    finished = res["status"] in FINISHED
    return (res["status"], res["elapsed"], res["reason"],
            res["maxrss_kb"] if finished else 0)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Spread:
    """Samples of one measurement spread evenly over the run.

    On a shared machine the speed can swing by 1.5x over a few seconds, so
    samples taken back to back would all see one speed.
    The first sample is taken at once; ``point()``, called after every
    fixed case and every ladder rung, keeps the samples in step with the
    points passed, and ``finish()`` takes what is left.
    """

    def __init__(self, sample, target, points, warmup=False):
        """target(first sample) is the number of samples to take; with
        ``warmup`` the first sample only sizes the target and is dropped."""
        self.sample = sample
        self.points = points
        self.passed = 0
        self.values = [sample()]
        self.target = target(self.values[0])
        if warmup:
            self.values = []

    def point(self):
        self.passed += 1
        while len(self.values) < self.target * self.passed / self.points:
            self.values.append(self.sample())

    def finish(self):
        while len(self.values) < self.target:
            self.values.append(self.sample())
        return self.values


def untraced_run(wl, seed, seconds):
    from budget import run_case

    best = {id(case): None for case in wl.cases}

    def run(case):
        """Run a case unless it failed before, keep its fastest good run and
        return what this run is charged."""
        before = best[id(case)]
        if before is not None and before.status != "ok":
            return before.charged
        res = run_case(case)
        best[id(case)] = (res if before is None or res.status != "ok"
                          else min(before, res, key=lambda r: r.elapsed))
        return res.charged

    gate_ids = {id(case) for case in wl.gate}
    fixed = [case for case in wl.cases if id(case) not in gate_ids]
    points = wl.passes * len(fixed) + len(wl.ladder)
    setup = Spread(setup_probe, lambda first: SETUP_RUNS, points)
    gate = Spread(lambda: sum(run(case) for case in wl.gate),
                  lambda first: max(MIN_GATE_ROUNDS, round(seconds / first)),
                  points, warmup=True)

    def run_pass():
        for case in fixed:
            run(case)
            setup.point()
            gate.point()

    run_pass()
    reach, ladder_s, rungs, peak_kb = run_ladder(wl, seed, setup, gate)
    for _ in range(wl.passes - 1):
        run_pass()
    setup_values = setup.finish()
    gate_values = gate.finish()
    peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    outcomes = [best[id(case)] for case in wl.cases]
    attempted = len(outcomes) + sum(s in FINISHED for s in rungs)
    failed = (sum(r.status != "ok" for r in outcomes)
              + sum(s in ("wrong", "raised") for s in rungs))
    for case, res in zip(wl.cases, outcomes):
        if res.status != "ok":
            log(f"case {case.name}: {res.status} ({res.reason})")
    wrong = any(r.status == "wrong" for r in outcomes) or "wrong" in rungs
    gate_s = statistics.fmean(gate_values)
    metrics = {"setup_s": statistics.median(setup_values),
               "pass_s": sum(best[id(case)].charged for case in fixed) + gate_s,
               "gate_s": gate_s,
               "ladder_s": ladder_s, "reach": reach,
               "peak_rss_mb": peak_kb / 1024,
               "ok_frac": 1 - failed / attempted}
    return not wrong, attempted, failed, metrics, E2E_UNITS


def run_ladder(wl, seed, *spreads):
    """Rungs in order until the first that does not finish correctly.

    Returns (reach, ladder_s, statuses of the rungs run, peak RSS in KB).
    """
    reach = 0
    ladder_s = 0.0
    statuses = []
    peak_kb = 0
    for i, case in enumerate(wl.ladder):
        status, elapsed, reason, rss_kb = run_rung(wl.name, seed, i,
                                                   case.budget)
        for spread in spreads:
            spread.point()
        statuses.append(status)
        peak_kb = max(peak_kb, rss_kb)
        log(f"rung {case.name}: {status} in {elapsed:.3f} s"
            + (f" ({reason})" if reason else ""))
        if status != "ok":
            break
        reach += 1
        ladder_s += elapsed
    ladder_s += sum(case.budget for case in wl.ladder[reach:])
    return reach, ladder_s, statuses, peak_kb


def traced_run(wl):
    from budget import run_case
    from tracing import Tracer, digest, metric_units

    tracer = Tracer()
    attempted = failed = mismatches = 0
    wrong = False
    times = {False: 0.0, True: 0.0}
    for i, case in enumerate(wl.cases):
        res = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            res[traced] = run_case(
                case, tracer.installed if traced else nullcontext)
            times[traced] += res[traced].elapsed
        plain, with_trace = res[False], res[True]
        attempted += 1
        if plain.status != "ok":
            failed += 1
            wrong |= plain.status == "wrong"
            log(f"case {case.name}: {plain.status} ({plain.reason})")
        if (plain.status, plain.reason, digest(plain.output)) != (
                with_trace.status, with_trace.reason,
                digest(with_trace.output)):
            mismatches += 1
            log(f"case {case.name}: traced output differs")
    if tracer.missing:
        log(f"not traced (absent): {', '.join(sorted(tracer.missing))}")
    self_s = tracer.self_time()
    metrics = tracer.layer_metrics()
    metrics.update({
        "trace.untraced_s": times[False], "trace.traced_s": times[True],
        "trace.layer_self_s": self_s,
        "trace.unattributed_s": times[True] - self_s,
        "trace.overhead_frac": times[True] / times[False] - 1,
        "trace.mismatches": mismatches,
    })
    return (not wrong and mismatches == 0, attempted, failed, metrics,
            metric_units())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("kz", "coideal", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qspair" / "__init__.py").is_file():
        log(f"error: no qspair package under {SRC}")
        return 2

    configure_environment()
    import cases

    wl = cases.WORKLOADS[args.workload](args.seed)
    if args.trace:
        correct, attempted, failed, metrics, units = traced_run(wl)
    else:
        correct, attempted, failed, metrics, units = untraced_run(
            wl, args.seed, args.seconds)
    for name, value in metrics.items():
        log(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
