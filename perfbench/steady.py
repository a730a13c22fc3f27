#!/usr/bin/env python3
"""Steadiness self-check: runs workloads repeatedly on one build and prints,
per end-to-end metric, the median, the quartiles and their spread next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --workloads hot_release --seeds 5
    python3 perfbench/steady.py --counts             # traced runs, twice per seed

Spread is (q3 - q1) / median with Python's statistics.quantiles(n=4).  A
metric is STEADY when its spread is under a third of its bound.  --counts
runs the traced run twice on one seed per workload and checks that every
count metric (unit "count") repeats exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d (exit %d)" %
                         (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("incorrect run: %s seed %d" % (workload, seed))
    return result["metrics"]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    ok = True
    for workload in args.workloads.split(","):
        if args.counts:
            seed = args.first_seed
            first = run(workload, seed, seconds, 1)
            second = run(workload, seed, seconds, 1)
            for m in bench["per_layer"]:
                if m["unit"] != "count":
                    continue
                a, b = first[m["name"]]["value"], second[m["name"]]["value"]
                same = a == b
                ok = ok and same
                print("%-14s %-32s %14g %14g %s" % (
                    workload, m["name"], a, b, "same" if same else "DIFFERS"))
            continue
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for k in range(args.seeds):
            metrics = run(workload, args.first_seed + k, seconds, 0)
            for name in values:
                values[name].append(metrics[name]["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = spread < m["bound"] / 3
            ok = ok and spread <= m["bound"]
            print("%-14s %-26s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f"
                  "  bound %.2f  %s" % (workload, m["name"], med, q1, q3, spread,
                                        m["bound"], "STEADY" if steady else "NOISY"))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
