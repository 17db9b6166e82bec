#!/usr/bin/env python3
"""Build the splashbench program from source and run one workload.

Usage (from the root of a source checkout):

    python3 splashbench/run.py --workload sim-fig1 --seed 7 --seconds 30 --trace 0

The first run configures and builds splashbench/ (which compiles the
splash libraries from src/) into .bench_build/splashbench; later runs
only re-check the build.  The program's stdout is passed through once
its last line has been checked against BENCHMARK.json: with --trace 0
it must carry exactly the end_to_end metrics, with --trace 1 exactly
the per_layer ones.  Exits non-zero, without a result line, when the
checkout cannot be built or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "splashbench")
BINARY = os.path.join(BUILD, "splashbench")
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then build incrementally; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "benchmark.h")):
        print("splashbench: no splash sources next to splashbench/; run "
              "from the root of a full source checkout", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("splashbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite splashbench/golden (seed 1 only)")
    args = parser.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(BUILD, "out"),
           "--golden", os.path.join(HERE, "golden")]
    if args.write_golden:
        cmd.append("--write-golden")
    # The library logs every job to stderr; keep that in a file and
    # show its tail only when the run fails.
    log_path = os.path.join(BUILD, "out", "%s-seed%d-trace%d.log"
                            % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=log, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("splashbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        with open(log_path) as log:
            sys.stderr.writelines(log.readlines()[-40:])
        sys.stderr.write(proc.stdout)
        print("splashbench: program exited %d without a result (log: %s)"
              % (proc.returncode, log_path), file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    got = set(result["metrics"])
    want = expected_metrics(args.trace)
    if got != want:
        sys.stderr.write(proc.stdout)
        print("splashbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (sorted(want - got), sorted(got - want)),
              file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
