// hsdb_perfbench: the end-to-end benchmark driver.
//
//   hsdb_perfbench --workload serve_olap|serve_htap
//                  --seed N --seconds S --trace 0|1 [--scale SF]
//
// Prints info lines ("# ...") and, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"} holding every metric the run
// measured. perfbench/run.py keeps the ones BENCHMARK.json lists for the
// mode (--trace 0: end-to-end, --trace 1: per-layer) and fails when one is
// missing.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_olap|serve_htap "
               "--seed N --seconds S --trace 0|1 [--scale SF]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      args.workload = argv[++i];
      have_workload = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      args.trace = std::atoi(argv[++i]) != 0;
    } else if (std::strcmp(argv[i], "--scale") == 0 && has_value) {
      args.scale = std::atof(argv[++i]);
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || args.seconds <= 0) return Usage(argv[0]);

  RunOutcome outcome;
  if (args.workload == "serve_olap") {
    RunServeOlap(args, &outcome);
  } else if (args.workload == "serve_htap") {
    RunServeHtap(args, &outcome);
  } else {
    return Usage(argv[0]);
  }
  if (outcome.attempted == 0) outcome.Fail("no operation was attempted");
  for (const std::string& problem : outcome.problems) {
    Info("problem: " + problem);
  }
  if (!outcome.metrics.not_applicable().empty()) {
    std::string names;
    for (const std::string& name : outcome.metrics.not_applicable()) {
      names += " " + name;
    }
    Info("not applicable to " + args.workload + ", printed as 0:" + names);
  }
  std::printf("%s\n", outcome.ToJson().c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
