#!/usr/bin/env python3
"""Self-checks of the front-door benchmark (see README.md).

    python3 perfbench/test_perfbench.py

On a smoke-sized run of every workload (a fixed number of timed queries):
  * perfbench_e2e prints every metric BENCHMARK.json names, with its unit, and
    nothing else; answers match the oracle and no query fails;
  * the exact counts repeat exactly across two runs with the same seed.
Exits non-zero on the first failed check.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (this directory's entry point)

SMOKE_QUERIES = "150"
SEED = "7"
# Counts that depend only on the seed and the code, never on the host.
EXACT_TRACED = [
    "gpusim.launches", "gpusim.h2d", "gpusim.d2h", "gpusim.bytes",
    "cleaner.shipped", "engine.cells_examined", "server.fanout_shards",
]
EXACT_END_TO_END = ["index_mb"]


def drive(workload, trace):
    cmd = [run.BINARY, "--workload", workload, "--seed", SEED,
           "--seconds", "1", "--trace", str(trace),
           "--queries", SMOKE_QUERIES]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S, check=True)
    return run.parse_result(proc.stdout.rstrip("\n").split("\n")[-1])


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def main():
    spec = run.load_spec()
    run.build()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key, exact in ((0, "end_to_end", EXACT_END_TO_END),
                                  (1, "per_layer", EXACT_TRACED)):
            first = drive(workload, trace)
            second = drive(workload, trace)
            for result in (first, second):
                check(result["correct"] and result["failed"] == 0,
                      f"{workload} trace={trace}: correct with no failures")
                check(result["attempted"] == int(SMOKE_QUERIES),
                      f"{workload} trace={trace}: attempted count")
                printed = {n: m["unit"] for n, m in result["metrics"].items()}
                wanted = {m["name"]: m["unit"] for m in spec[key]}
                check(printed == wanted,
                      f"{workload} trace={trace}: metric names and units "
                      f"{sorted(set(printed) ^ set(wanted))}")
            kernels = [n for n in first["metrics"]
                       if n.startswith("gpusim.launches.")]
            for name in exact + kernels:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                check(a == b, f"{workload}: {name} repeats ({a} vs {b})")
            print(f"ok  {workload} trace={trace}")
    print("all perfbench self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
