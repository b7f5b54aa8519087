#!/usr/bin/env python3
"""Builds and runs the CYRUS client benchmark (cyrus_perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test     # the benchmark's own arithmetic tests

The first call configures and builds a Release tree under .bench_build/
(the client libraries come from ../src); later calls rebuild incrementally.
The benchmark's output is passed through; its last line is the result
object. That object must carry exactly the metrics BENCHMARK.json lists
for the mode (end_to_end for --trace 0, per_layer for --trace 1), or this
script fails without printing it. Exit status is non-zero when the build
fails, any output check fails, or the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
DEFAULT_SEED = 20150421
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j4"])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [w["name"] for w in spec["workloads"]]


def check_result(line, expected):
    """Returns an error message for a malformed result line, else None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not a JSON object"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected)))
    for name, unit in expected.items():
        if metrics[name].get("unit") != unit:
            return "metric %s has unit %r, BENCHMARK.json says %r" % (
                name, metrics[name].get("unit"), unit)
        if not isinstance(metrics[name].get("value"), (int, float)):
            return "metric %s has no numeric value" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        return subprocess.run([build("perfbench_stats_test")]).returncode

    expected, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        parser.error("--workload must be one of %s" % ", ".join(workloads))
    binary = build("cyrus_perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], expected)
    if error is not None:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: malformed result: " + error)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
