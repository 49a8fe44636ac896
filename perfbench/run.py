#!/usr/bin/env python3
"""Repository benchmark: build the harness, run one workload, report.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench_harness and the spinnoc library from this checkout's
sources into .bench_build/, then runs the named workload in fresh
harness processes, one process per iteration, until --seconds have
passed (at least four iterations untraced, one traced). Every
iteration checks the simulator's outputs and must reproduce the same
simulated-result digest.

The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end table of BENCHMARK.json,
each the median over iterations; with --trace 1 they are the per_layer
table. The lines before it name the workload's simulated-result digest
and summarise its simulated outcome.
See perfbench/README.md for the workloads and metric definitions.

Exit status: 0 result printed, 1 build or harness failure, 2 usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
DEFAULT_SEED = 1
MIN_ITERATIONS = 4
ITERATION_TIMEOUT_S = 170
# Never start another iteration that would end past this point.
DEADLINE_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(1)


def worker_count():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no spinnoc sources (src/CMakeLists.txt) next to perfbench/; "
            "run from the root of a full checkout")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_harness", "-j", str(worker_count())],
                   check=True, **quiet)


def run_iteration(workload, seed, trace):
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--jobs", str(worker_count())]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=ITERATION_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"harness exited with {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("harness printed nothing")
    return json.loads(lines[-1])


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    end_to_end, per_layer = bench["end_to_end"], bench["per_layer"]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")

    docs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        try:
            docs.append(run_iteration(args.workload, args.seed, args.trace))
        except (subprocess.TimeoutExpired, ValueError) as e:
            die(f"harness run failed: {e}")
        now = time.monotonic()
        enough = 1 if args.trace else MIN_ITERATIONS
        if len(docs) >= enough and now - start >= args.seconds:
            break
        if now - start + (now - t0) > DEADLINE_S:
            break

    # Output checks: every iteration clean and bit-identical in its
    # simulated results.
    first = docs[0]
    errors = [e for d in docs for e in d["errors"]]
    for e in errors[:8]:
        log(f"check failed: {e}")
    digests = {d["digest"] for d in docs}
    if len(digests) > 1:
        log(f"simulated digest differs between iterations: {sorted(digests)}")
    counts = {(d["attempted"], d["failed"]) for d in docs}
    correct = not errors and len(digests) == 1 and len(counts) == 1

    if args.trace:
        table, key = per_layer, "layers"
        unknown = set().union(*(d[key] for d in docs)) - {
            m["name"] for m in per_layer}
        if unknown:
            die(f"harness emitted metrics missing from BENCHMARK.json: "
                f"{sorted(unknown)}")
    else:
        table, key = end_to_end, "e2e"
    metrics = {}
    for m in table:
        # A per-layer figure a workload does not exercise reads 0
        # (README.md lists which workload each one is measured on).
        values = [d[key].get(m["name"], 0.0) for d in docs]
        metrics[m["name"]] = {"value": statistics.median(values),
                              "unit": m["unit"]}

    for line in first["summary"]:
        print(f"perfbench: {line}")
    print(f"perfbench: {args.workload} seed {args.seed} digest "
          f"{first['digest']} over {len(docs)} iteration(s)")
    print(json.dumps({"correct": correct, "attempted": first["attempted"],
                      "failed": first["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
