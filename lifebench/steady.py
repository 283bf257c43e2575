#!/usr/bin/env python3
"""Steadiness check for the lifecycle benchmark.

Runs each workload several times, each with another seed, and prints for
every end-to-end metric the median, the first and third quartiles, and
the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. A spread above a third of its bound is flagged. The
check fails if any spread exceeds its bound, any run reports a wrong
output or a failed operation, or the share of failed operations differs
between runs. Every run lasts BENCHMARK.json's run_seconds.

Run from the repository root:

    python3 lifebench/steady.py                      # every workload, 10 seeds
    python3 lifebench/steady.py --runs 5 --workloads churn
    python3 lifebench/steady.py --first-seed 101     # a second, disjoint set
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--values", action="store_true", help="also print every run's value")
    opts = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in opts.workloads:
        results = []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            r = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if not r["correct"] or r["failed"]:
                steady = False
                print(f"{workload} seed {seed}: correct {r['correct']}, failed {r['failed']}")
            results.append(r)
            print(f"  {workload} seed {seed}: attempted {r['attempted']} failed {r['failed']}",
                  file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n== {workload}: {opts.runs} runs, seeds {opts.first_seed}.."
              f"{opts.first_seed + opts.runs - 1}, failed share {sorted(shares)}")
        if len(shares) > 1:
            steady = False
            print("   failed share differs between runs")
        print(f"   {'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bound / 3 else "  <-- above a third of its bound"
            if spread > bound:
                steady = False
            print(f"   {name:<26}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}{bound:>8.2f}{flag}")
            if opts.values:
                print("      " + " ".join(f"{v:.4g}" for v in values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
