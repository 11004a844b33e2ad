"""Smoke test of the tracer and of the metric declarations.

    python3 perfbench/check_trace.py

It runs run.traced_run on the cheap cases of every workload (budget <= 1 s,
plus the first two ladder rungs, seed 0) and checks that traced and
untraced calls give bit-identical outputs, that every rebound qspair
attribute is restored after the traced block, also when the block raises,
and that the metric names and units run.py prints are exactly those
BENCHMARK.json declares.  Exits 1 on any failure.
"""

import json
import sys

import run

run.configure_environment()

import cases  # noqa: E402
from tracing import TARGETS, Tracer, metric_units  # noqa: E402


def snapshot():
    """id of every attribute of every qspair module and traced class."""
    owners = [m for name, m in sys.modules.items()
              if name == "qspair" or name.startswith("qspair.")]
    for t in TARGETS:
        cls_name = t.name.rpartition(".")[0]
        if cls_name:
            owners.append(getattr(sys.modules[f"qspair.{t.module}"], cls_name))
    return {(repr(o), a): id(v) for o in owners for a, v in vars(o).items()}


def check_outputs(problems):
    """run.traced_run on each workload cut down to its cheap cases."""
    for name, build in cases.WORKLOADS.items():
        wl = build(0)
        tiny = [c for c in wl.cases if c.budget <= 1.0] + wl.ladder[:2]
        _, attempted, failed, metrics, _ = run.traced_run(
            cases.Workload(name, tiny, [], []))
        calls = sum(v for k, v in metrics.items() if k.endswith(".calls"))
        print(f"{name}: {attempted} cases, {calls} traced calls")
        if failed:
            problems.append(f"{name}: {failed} case(s) failed (see above)")
        if metrics["trace.mismatches"]:
            problems.append(f"{name}: {metrics['trace.mismatches']} traced "
                            f"output(s) differ")
        if not calls:
            problems.append(f"{name}: the tracer saw no calls")


def check_restore(problems, before):
    class Boom(Exception):
        pass

    try:
        with Tracer().installed():
            if snapshot() == before:
                problems.append("installing the tracer rebound nothing")
            raise Boom
    except Boom:
        pass
    if snapshot() != before:
        problems.append("an attribute was not restored after a raise")


def check_declarations(problems):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.E2E_UNITS),
                       ("per_layer", metric_units())):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != units:
            problems.append(f"{key} in BENCHMARK.json differs from run.py: "
                            f"{sorted(set(declared) ^ set(units))}")


def main():
    problems = []
    before = snapshot()
    check_outputs(problems)
    if snapshot() != before:
        problems.append("an attribute was not restored after tracing")
    check_restore(problems, before)
    check_declarations(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
