#!/usr/bin/env python3
"""Steadiness helper: run each workload N times and report, per metric, the
median and the interquartile range as a share of the median.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--first-seed 1]
                                [workload ...]

Each run measures the end-to-end metrics (--trace 0) with its own seed
(first-seed, first-seed + 1, ...). Quartiles are
statistics.quantiles(values, n=4). Every spread is checked against its bound
from BENCHMARK.json: the script exits 1 when a spread exceeds its bound and
flags spreads above a third of it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s seed %d printed nothing (exit %d):\n%s" %
                           (workload, seed, done.returncode, done.stderr))
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError("%s seed %d failed the correctness gate:\n%s" %
                           (workload, seed, done.stdout))
    return result


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads:
        values = {}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs, %d s each)" % (workload, args.runs, args.seconds))
        for name, vals in values.items():
            med, iqr = spread(vals)
            note = ""
            bound = bounds[name]
            if iqr > bound:
                note = "  OVER BOUND %.2f" % bound
                ok = False
            elif iqr > bound / 3:
                note = "  above bound/3 (%.3f)" % (bound / 3)
            print("  %-34s median %-14.6g IQR/median %.4f%s" %
                  (name, med, iqr, note))
            print("      runs: " + " ".join("%.6g" % v for v in vals))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
