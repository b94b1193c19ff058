#!/usr/bin/env python3
"""CI perf-regression gate for the gated benchmarks.

Merges one or more google-benchmark JSON outputs (micro_compression,
micro_costmodel, and the --json advisor/adaptation/migration timings of
fig_joint_budget, fig_drift_adapt and fig_online_migration) into a single
BENCH_micro.json and
compares it against the committed baseline: the gate fails when any
benchmark's time regresses by more than the threshold (default 25%).

Baseline and PR runs usually execute on different machines, so raw ratios
mix machine speed with real regressions. The gate therefore normalizes each
benchmark's new/old time ratio by the median ratio across all benchmarks:
a uniformly slower runner shifts every ratio equally and cancels out, while
a genuine regression sticks out against the fleet. (A change that slows
*every* benchmark uniformly would be invisible to this gate — that is the
price of machine independence.)

Usage:
  check_regression.py --baseline bench/baselines/BENCH_micro.json \
      --out BENCH_micro.json [--threshold 1.25] new1.json [new2.json ...]

Regenerate the baseline preferably through CI: trigger the workflow's
"Run workflow" button (workflow_dispatch) and commit the uploaded
'baseline-candidate' artifact as bench/baselines/BENCH_micro.json. On any
machine (Release build) the equivalent is:
  ./build/micro_compression --benchmark_repetitions=3 --benchmark_out=mc.json --benchmark_out_format=json
  ./build/micro_costmodel   --benchmark_repetitions=3 --benchmark_out=cm.json --benchmark_out_format=json
  HSDB_BENCH_SCALE=0.02 ./build/fig_joint_budget --json fjb.json
  HSDB_BENCH_SCALE=0.02 ./build/fig_drift_adapt --json fda.json
  HSDB_BENCH_SCALE=0.02 ./build/fig_online_migration --json fom.json
  python3 bench/check_regression.py --merge-only --out bench/baselines/BENCH_micro.json mc.json cm.json fjb.json fda.json fom.json
"""

import argparse
import json
import os
import statistics
import sys


def load_benchmarks(path):
    """Returns {base_name: time_seconds} per benchmark.

    With --benchmark_repetitions the run contains per-repetition rows plus
    aggregate rows; the median aggregate is preferred (noise suppression on
    shared CI runners). Without repetitions the single iteration row is
    used. Keys are the repetition-independent base name (run_name), so
    baselines with and without repetitions stay comparable.
    """
    with open(path) as f:
        doc = json.load(f)
    unit_to_seconds = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
    plain = {}
    medians = {}
    for bench in doc.get("benchmarks", []):
        seconds = bench["real_time"] * unit_to_seconds[bench.get("time_unit", "ns")]
        base = bench.get("run_name", bench["name"])
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[base] = seconds
        else:
            # Several repetition rows share the base name; keep the median
            # of what we saw so far by collecting into a list.
            plain.setdefault(base, []).append(seconds)
    out = {name: statistics.median(times) for name, times in plain.items()}
    out.update(medians)
    return doc, out


def merge(paths, out_path):
    """Concatenates the benchmark arrays of several result files."""
    merged = None
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if merged is None:
            merged = doc
        else:
            merged.setdefault("benchmarks", []).extend(doc.get("benchmarks", []))
    if merged is None:
        merged = {"benchmarks": []}
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=1)
    return merged


def check_telemetry_overhead(new, threshold):
    """Asserts the telemetry layer's overhead bound within a single run.

    BM_TelemetryOverhead runs the same aggregation scan in three modes:
    telemetry:0 raw executor (no accounting), telemetry:1 registry disabled,
    telemetry:2 enabled. All three rows come from the same binary on the
    same machine, so the raw ratios are meaningful without the fleet-median
    normalization: enabled/disabled and disabled/raw must both stay under
    the threshold (default 2%). Returns a list of failure strings.
    """
    times = {}
    for mode in (0, 1, 2):
        name = f"BM_TelemetryOverhead/telemetry:{mode}"
        if name in new and new[name] > 0:
            times[mode] = new[name]
    if len(times) < 3:
        print("NOTE: BM_TelemetryOverhead rows missing; telemetry overhead "
              "not checked (rebuild micro_compression?)")
        return []
    failures = []
    for label, num, den in (("disabled-vs-raw", 1, 0),
                            ("enabled-vs-disabled", 2, 1)):
        ratio = times[num] / times[den]
        status = "REGRESSION" if ratio > threshold else "ok"
        print(f"telemetry overhead {label}: {ratio:.4f}x "
              f"(limit {threshold:.2f}x) {status}")
        if ratio > threshold:
            failures.append(
                f"telemetry overhead {label}: {ratio:.4f}x > {threshold:.2f}x")
    return failures


def check_parallel_speedup(new, threshold):
    """Asserts the morsel-parallel scan path actually scales, within-run.

    BM_ParallelScan and BM_ParallelPackedFilter run the same scan at
    threads:1 (the same kernel, inline) and threads:4; both rows come from the
    same binary on the same machine, so like the telemetry check the raw
    wall-clock ratio needs no fleet normalization. The bound only applies
    on a multi-core runner (>= 4 CPUs): on smaller machines the rows are
    reported but a missing speedup is expected, not a regression. Returns
    a list of failure strings.
    """
    cpus = os.cpu_count() or 1
    failures = []
    for bench in ("BM_ParallelScan", "BM_ParallelPackedFilter"):
        serial = new.get(f"{bench}/threads:1")
        parallel = new.get(f"{bench}/threads:4")
        if not serial or not parallel:
            print(f"NOTE: {bench} thread rows missing; parallel speedup "
                  "not checked (rebuild micro_compression?)")
            continue
        speedup = serial / parallel
        if cpus < 4:
            print(f"parallel speedup {bench}: {speedup:.2f}x at 4 threads "
                  f"(not gated: only {cpus} CPU(s) on this runner)")
            continue
        status = "REGRESSION" if speedup < threshold else "ok"
        print(f"parallel speedup {bench}: {speedup:.2f}x at 4 threads "
              f"(limit {threshold:.2f}x) {status}")
        if speedup < threshold:
            failures.append(
                f"parallel speedup {bench}: {speedup:.2f}x < {threshold:.2f}x")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="+", help="benchmark JSON outputs to merge")
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--out", required=True, help="merged output path (BENCH_micro.json)")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="max allowed normalized time ratio (1.25 = 25%% regression)")
    parser.add_argument("--telemetry-threshold", type=float, default=1.02,
                        help="max allowed telemetry on/off time ratio within "
                             "this run (1.02 = 2%% overhead)")
    parser.add_argument("--parallel-speedup-threshold", type=float, default=2.5,
                        help="min required 4-thread wall-clock speedup of the "
                             "morsel-parallel scans, gated only on runners "
                             "with >= 4 CPUs")
    parser.add_argument("--merge-only", action="store_true",
                        help="only merge the inputs into --out (baseline regeneration)")
    args = parser.parse_args()

    merge(args.results, args.out)
    if args.merge_only:
        print(f"wrote {args.out}")
        return 0
    if not args.baseline:
        parser.error("--baseline is required unless --merge-only is given")

    _, old = load_benchmarks(args.baseline)
    _, new = load_benchmarks(args.out)

    overhead_failures = check_telemetry_overhead(new, args.telemetry_threshold)
    overhead_failures += check_parallel_speedup(
        new, args.parallel_speedup_threshold)

    common = sorted(name for name in set(old) & set(new) if old[name] > 0)
    missing = sorted(set(old) - set(new))
    if missing:
        print("WARNING: benchmarks in the baseline but not in this run "
              "(renamed or removed? refresh the baseline):")
        for name in missing:
            print(f"  {name}")
    if not common:
        print("ERROR: no comparable benchmarks in common with the baseline")
        return 1

    ratios = {name: new[name] / old[name] for name in common}
    median = statistics.median(ratios.values())
    print(f"{len(ratios)} benchmarks, median time ratio {median:.3f} "
          f"(machine-speed normalizer), threshold {args.threshold:.2f}x")
    print(f"{'benchmark':60s} {'old':>12s} {'new':>12s} {'norm_ratio':>10s}")

    failures = []
    for name in common:
        norm = ratios[name] / median
        flag = ""
        if norm > args.threshold:
            failures.append((name, norm))
            flag = "  << REGRESSION"
        print(f"{name:60s} {old[name]*1e3:10.4f}ms {new[name]*1e3:10.4f}ms "
              f"{norm:9.3f}x{flag}")

    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
              f"{(args.threshold - 1) * 100:.0f}% (normalized):")
        for name, norm in failures:
            print(f"  {name}: {norm:.3f}x")
        return 1
    if overhead_failures:
        print("\nFAIL: within-run bound violated:")
        for line in overhead_failures:
            print(f"  {line}")
        return 1
    print("\nOK: no benchmark regressed past the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
