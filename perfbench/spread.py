#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload serve_htap --runs 10 \
        [--seconds 30] [--first-seed 1] [--save set1.json] [--against set0.json]

Runs the benchmark once per seed (--first-seed onward) and prints, for every
end-to-end metric of BENCHMARK.json, the median, the interquartile range as
a share of the median (statistics.quantiles, n=4) and that share as a
fraction of the metric's bound. A metric is steady when the spread stays
below a third of its bound.

--save writes the values of this set to a file; --against reads a set saved
earlier and adds the shift of each median against it as a share of the
earlier median, and that shift as a fraction of the bound (a set agrees
with the earlier one when every fraction is at most 1).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_set(bench, workload, seeds, seconds):
    values = {}
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("run failed (seed %d): %s" % (seed, out.stderr[-2000:]))
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("incorrect run (seed %d):\n%s" % (seed, out.stdout))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        steal = [line.split(": ", 1)[1] for line in lines
                 if line.startswith("# host steal")]
        print("seed %d: %s (steal %s)" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()),
            steal[0] if steal else "?"))
        sys.stdout.flush()
    return values


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--save", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    values = run_set(bench, args.workload, seeds, seconds)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f)
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    print("%-16s %12s %8s %8s %8s %8s" % ("metric", "median", "iqr/med",
                                          "/bound", "shift", "/bound"))
    for metric in bench["end_to_end"]:
        series = values.get(metric["name"], [])
        if len(series) < 2:
            continue
        q1, med, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / med if med else float("inf")
        row = "%-16s %12.5g %8.3f %8.2f" % (metric["name"], med, share,
                                            share / metric["bound"])
        if earlier and len(earlier.get(metric["name"], [])) >= 2:
            before = statistics.median(earlier[metric["name"]])
            shift = (med - before) / before
            worse = -shift if metric["better"] == "higher" else shift
            row += " %+8.3f %8.2f" % (shift, max(worse, 0) / metric["bound"])
        print(row)


if __name__ == "__main__":
    main()
