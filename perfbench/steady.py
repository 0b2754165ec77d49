#!/usr/bin/env python3
"""Steadiness check: run one workload N times, one seed each, and print
every metric's median, quartiles and spread (Q3 - Q1) / median.

    python3 perfbench/steady.py --workload gc-flood --runs 10 \
        --seconds 50 [--first-seed 1]

Run from the root of the source tree. The bounds in BENCHMARK.json
were set from these spreads: a metric's spread should stay below a
third of its bound. The failed share (failed / attempted) must be the
same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("seed %d: exit %d" % (seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    values = {}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        res = one_run(args.workload, seed, args.seconds)
        if not res["correct"]:
            sys.exit("seed %d: correct is false" % seed)
        shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)

    print("%-36s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                        "spread"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / abs(med) if med else float("inf")
        print("%-36s %14.6g %14.6g %14.6g %7.2f%%" % (name, med, q1, q3,
                                                      100 * spread))
    print("failed share per run: %s" % sorted(shares))


if __name__ == "__main__":
    main()
