#!/usr/bin/env python3
"""Steadiness report over N runs per workload.

    python3 splashbench/steadiness.py DIR
    python3 splashbench/steadiness.py DIR --run --seeds 101-110 [--workloads a,b]

With --run it first runs every workload once per seed (untraced, at the
BENCHMARK.json run_seconds) from the checkout root, saving each run's
stdout as DIR/<workload>-seed<N>.out.  It then prints, per workload and
end-to-end metric, the median, the quartiles, the IQR as a share of the
median and the metric's bound, and flags:

  WIDE     the spread is wider than the bound (setup_s is exempt: its
           bound limits drift of the median only);
  TIGHT?   the spread is above a third of the bound;
  REJECTED a percentile metric with fewer than 10 samples above it in
           some run: its value is not a usable percentile.

Exits 1 when any metric is flagged WIDE or a run is incorrect.
"""

import argparse
import os
import sys

import results

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def percentile_samples(detail, name):
    return detail.get("percentile_samples", {}).get(name)


def report(runs, spec):
    bad = False
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print("%-18s %-20s %3s %14s %14s %14s %8s %6s  %s" % (
        "workload", "metric", "n", "q1", "median", "q3", "iqr/med",
        "bound", "flags"))
    for workload, items in sorted(runs.items()):
        incorrect = [d.get("seed") for r, d in items if not r["correct"]]
        if incorrect:
            print("%s: incorrect runs at seeds %s" % (workload, incorrect))
            bad = True
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in items]
            q1, med, q3 = results.quartiles(values)
            sp = results.spread(values)
            flags = []
            if name != "setup_s" and sp > metric["bound"]:
                flags.append("WIDE")
                bad = True
            elif name != "setup_s" and sp > metric["bound"] / 3:
                flags.append("TIGHT?")
            if ".p" in name:
                counts = [percentile_samples(d, name) for _, d in items]
                few = [c for c in counts if c is None or c["above"] < 10]
                if few:
                    flags.append("REJECTED:<10-above-p")
            print("%-18s %-20s %3d %14.6g %14.6g %14.6g %8.4f %6.3f  %s" % (
                workload, name, len(values), q1, med, q3, sp,
                metric["bound"], " ".join(flags)))
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir")
    parser.add_argument("--run", action="store_true")
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    spec = results.load_spec(ROOT)
    if args.run:
        os.makedirs(args.dir, exist_ok=True)
        names = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
        for seed in results.parse_seeds(args.seeds):
            for workload in names:
                out = os.path.join(args.dir,
                                   "%s-seed%d.out" % (workload, seed))
                results.run_once(ROOT, workload, seed, spec["run_seconds"],
                                 0, out)
                print("ran %s seed %d" % (workload, seed), file=sys.stderr)
    return 1 if report(results.load_dir(args.dir), spec) else 0


if __name__ == "__main__":
    sys.exit(main())
