#!/usr/bin/env python3
"""Compare a parent and a change with alternating paired runs.

    python3 splashbench/compare.py --parent CHECKOUT --change CHECKOUT \\
        --out DIR [--seeds 201-210] [--workloads a,b]
    python3 splashbench/compare.py --parent-results DIR --change-results DIR

The first form runs, for each seed, the parent's and the change's
benchmark back to back on the same seed, alternating which side goes
first, and saves each run's stdout under DIR/parent and DIR/change.
The second form analyses saved runs, pairing them by seed.

Per workload and end-to-end metric, with n pairs:
  GAIN        the change wins at least 9/10 of the pairs (ties count for
              neither side), its median is on the better side of the
              parent's, the gap between the medians is larger than the
              parent's IQR, n >= 10, and no more jobs failed than at the
              parent;
  REGRESSED   the change's median is worse than the parent's by more
              than the metric's bound;
  UNRESOLVED  either side's IQR/median is wider than the bound, unless
              every change run is better than every parent run;
  same        otherwise (within the bound).
Prints one row per workload, then the per-metric table.
"""

import argparse
import os
import sys

import results

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(metric, parent, change, parent_failed, change_failed):
    """Return (verdict, relative change of the median, wins, n)."""
    direction, bound = metric["better"], metric["bound"]
    n = len(parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    p1, pmed, p3 = results.quartiles(parent)
    _, cmed, _ = results.quartiles(change)
    rel = (cmed - pmed) / abs(pmed) if pmed else 0.0
    worse = rel if direction == "lower" else -rel
    if (n >= 10 and wins >= 0.9 * n and better(cmed, pmed, direction)
            and abs(cmed - pmed) > p3 - p1
            and change_failed <= parent_failed):
        return "GAIN", rel, wins, n
    dominant = all(better(c, p, direction) for c in change for p in parent)
    if max(results.spread(parent), results.spread(change)) > bound \
            and not dominant:
        return "UNRESOLVED", rel, wins, n
    if worse > bound:
        return "REGRESSED", rel, wins, n
    return "same", rel, wins, n


def by_seed(items):
    return {d.get("seed"): r for r, d in items}


def analyse(parent_runs, change_runs, spec):
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p = by_seed(parent_runs[workload])
        c = by_seed(change_runs[workload])
        seeds = sorted(set(p) & set(c))
        pf = sum(p[s]["failed"] for s in seeds)
        cf = sum(c[s]["failed"] for s in seeds)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [p[s]["metrics"][name]["value"] for s in seeds]
            cv = [c[s]["metrics"][name]["value"] for s in seeds]
            rows.append((workload, name) + verdict(metric, pv, cv, pf, cf))
    workloads = sorted({r[0] for r in rows})
    for workload in workloads:
        mine = [r for r in rows if r[0] == workload]
        print("%-18s %s" % (workload, "; ".join(
            "%s %s %+.1f%% (%d/%d)" % (name, v, 100 * rel, wins, n)
            for _, name, v, rel, wins, n in mine)))
    print()
    print("%-18s %-20s %-10s %9s %7s" % ("workload", "metric", "verdict",
                                         "median", "wins"))
    for workload, name, v, rel, wins, n in rows:
        print("%-18s %-20s %-10s %+8.2f%% %3d/%-3d" % (workload, name, v,
                                                       100 * rel, wins, n))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--out")
    parser.add_argument("--parent-results")
    parser.add_argument("--change-results")
    parser.add_argument("--seeds", default="201-210")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    spec = results.load_spec(ROOT)
    if args.parent and args.change and args.out:
        names = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
        sides = {"parent": args.parent, "change": args.change}
        for side in sides:
            os.makedirs(os.path.join(args.out, side), exist_ok=True)
        for i, seed in enumerate(results.parse_seeds(args.seeds)):
            order = ["parent", "change"] if i % 2 == 0 else ["change",
                                                              "parent"]
            for workload in names:
                for side in order:
                    out = os.path.join(args.out, side,
                                       "%s-seed%d.out" % (workload, seed))
                    results.run_once(sides[side], workload, seed,
                                     spec["run_seconds"], 0, out)
                    print("pair %d %s %s" % (i, workload, side),
                          file=sys.stderr)
        parent_dir = os.path.join(args.out, "parent")
        change_dir = os.path.join(args.out, "change")
    elif args.parent_results and args.change_results:
        parent_dir, change_dir = args.parent_results, args.change_results
    else:
        parser.error("give --parent/--change/--out or "
                     "--parent-results/--change-results")
    analyse(results.load_dir(parent_dir), results.load_dir(change_dir), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
