#!/usr/bin/env python3
"""Front-door benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload steady_fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Builds the system and the benchmark program (perfbench_e2e) from this
checkout's sources into .bench_build/perfbench, runs one workload, and passes
the program's output through. The last line of standard output is the program's result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --workload all it runs every workload in turn and the last line merges
their results, each metric prefixed with its workload's name.

Exits non-zero, printing no result, when the build or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def load_spec():
    """BENCHMARK.json, which names the workloads and metrics."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from e


def run_checked(cmd, timeout):
    """Runs cmd with its output sent to stderr; raises on failure."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        raise BenchError(f"{cmd[0]} failed: {e}") from e


def build():
    """Configures (once) and builds the program; incremental afterwards."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ next to perfbench/: the benchmark builds "
                         "the system from the checkout's sources")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def parse_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        raise BenchError(f"perfbench_e2e printed no result line: {e}") from e
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError("perfbench_e2e result line has the wrong keys")
    return result


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs perfbench_e2e once; returns (stdout text, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, OSError) as e:
        raise BenchError(f"perfbench_e2e run failed: {e}") from e
    if proc.returncode != 0:
        raise BenchError(f"perfbench_e2e exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return "\n".join(lines[:-1]), parse_result(lines[-1])


def main():
    try:
        names = [w["name"] for w in load_spec()["workloads"]]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        workloads = names if args.workload == "all" else [args.workload]
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            text, result = run_workload(workload, args.seed, args.seconds,
                                        args.trace)
            print(text, flush=True)
            if len(workloads) == 1:
                merged = result
                break
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
