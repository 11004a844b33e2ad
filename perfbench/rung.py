"""Run one ladder rung in this fresh process and print one JSON line.

    python3 perfbench/rung.py WORKLOAD SEED INDEX

run.py starts it with the environment it pinned.  The address space is
capped at cases.MEMORY_CAP_MB, so a rung that would exhaust the machine's
memory ends in a MemoryError, a counted miss, instead of a kill.
"""

import json
import resource
import sys

import cases
from budget import run_case


def main(argv):
    workload, seed, index = argv[1], int(argv[2]), int(argv[3])
    cap = cases.MEMORY_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    res = run_case(cases.WORKLOADS[workload](seed).ladder[index])
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"status": res.status, "elapsed": res.elapsed,
                      "reason": res.reason, "maxrss_kb": maxrss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
