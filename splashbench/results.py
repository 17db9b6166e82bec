"""Shared helpers of the splashbench tools: running the benchmark and
reading what its runs printed.

A run's output file is the stdout of `splashbench/run.py`: a
`{"detail": ...}` line (workload, seed, sample counts behind each
percentile) followed by the result line.
"""

import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace, out_path):
    """Run one workload in `checkout`; save stdout; return the result."""
    cmd = [sys.executable, "splashbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    with open(out_path, "w") as f:
        f.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit("run failed (exit %d): %s" % (proc.returncode,
                                                       " ".join(cmd)))
    return read_run(out_path)


def read_run(path):
    """Return (result, detail) from one saved run output."""
    result, detail = None, {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "detail" in obj:
                detail = obj["detail"]
            elif "metrics" in obj:
                result = obj
    if result is None:
        raise SystemExit("no result line in " + path)
    return result, detail


def load_dir(path):
    """{workload: [(result, detail), ...]} for every *.out in `path`,
    in file-name order."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".out"):
            result, detail = read_run(os.path.join(path, name))
            runs.setdefault(detail.get("workload", name.split("-seed")[0]),
                            []).append((result, detail))
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def parse_seeds(text):
    """'101-110' or '1,5,9' -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]
