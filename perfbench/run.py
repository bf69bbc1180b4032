#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-diurnal --seed 1 \
        --seconds 25 --trace 0

The program is configured into .bench_build/ at the repository root on
first use (a cold build of the simulator library) and rebuilt
incrementally on later runs. Its standard output passes through; the
last line is the result object. The metric names it prints are checked
against BENCHMARK.json, so the program and the declared metric lists
cannot drift apart.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve-diurnal", "serve-prefix-tiered", "paper-suite")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def build():
    """Configure (once) and build the program; None on success."""
    env = dict(os.environ)
    # Keep any compiler cache the root build picks up inside the
    # checkout.
    env["CCACHE_DIR"] = os.path.join(BUILD, "ccache")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            return "build step failed: " + " ".join(cmd)
    return None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        return fail("--seed must be >= 0 and --seconds in [1, 120]")
    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail("%s is missing: run from a full checkout" % needed)

    err = build()
    if err:
        return fail(err)
    try:
        proc = subprocess.run(
            [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return fail("perfbench printed nothing (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    printed = set(result["metrics"])
    declared = declared_metrics(args.trace)
    if printed != declared:
        return fail("printed metrics differ from BENCHMARK.json: missing %s, "
                    "undeclared %s" % (sorted(declared - printed),
                                       sorted(printed - declared)))
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
