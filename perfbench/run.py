#!/usr/bin/env python3
"""Build and run the hsdb end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_olap --seed 1 --seconds 30 --trace 0

Configures perfbench/ (its own CMake package, which compiles the engine
from src/) into .bench_build/ on first use, rebuilds incrementally, then runs
the benchmark binary. Build output goes to stderr. The binary's info lines
are passed through; its last line holds every metric it measured, and this
script prints, as the last stdout line, the same result with exactly the
metrics BENCHMARK.json lists for the mode (--trace 0: "end_to_end",
--trace 1: "per_layer"). Exits non-zero, without a result line, if the
build or the run fails or a listed metric is missing or has another unit.

Extra flags (--scale SF) are passed through to the binary.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hsdb_perfbench")
# One run measures for --seconds plus set-up; anything near this is a hang.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "hsdb_perfbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def declared_metrics(argv):
    """The metric list of BENCHMARK.json for the run's --trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    trace = "0"
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value
    return bench["per_layer" if trace != "0" else "end_to_end"]


def select(result, declared):
    """`result` with exactly the declared metrics, or None if one is
    missing or carries another unit."""
    measured = result["metrics"]
    selected = {}
    for metric in declared:
        name = metric["name"]
        if name not in measured:
            sys.stderr.write("perfbench: metric %s was not measured\n" % name)
            return None
        if measured[name]["unit"] != metric["unit"]:
            sys.stderr.write("perfbench: metric %s has unit %s, not %s\n"
                             % (name, measured[name]["unit"], metric["unit"]))
            return None
        selected[name] = measured[name]
    return dict(result, metrics=selected)


def main(argv):
    declared = declared_metrics(argv)
    if not build():
        return 1
    try:
        done = subprocess.run([BINARY] + argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.stderr.write("perfbench: run failed (exit %d)\n" % done.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    result = select(json.loads(lines[-1]), declared)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
