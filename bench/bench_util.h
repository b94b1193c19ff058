// Shared utilities of the figure benchmarks: paper_figures and the sweep
// and gate binaries (fig_joint_budget, fig_drift_adapt, ...).
//
// Scale: every experiment reproduces the paper's setup at a configurable
// scale (HSDB_BENCH_SCALE, default 0.05 -> the paper's 10M-row table becomes
// 500k rows). The *shape* of every figure — who wins, where the crossover
// falls, where the partitioning optimum sits — is scale-invariant; absolute
// milliseconds are not comparable to the paper's testbed.
//
// Calibration: the cost model is calibrated once per machine and cached in
// hsdb_calibration.cache relative to the invoking directory — run benches
// from build/ so the cache lands there (it is gitignored regardless).
// HSDB_CALIBRATION_CACHE overrides the path; delete the file or set
// HSDB_BENCH_RECALIBRATE=1 to refresh. A serialization-version bump (see
// kSerializationMagic in src/core/cost_model.cc) invalidates stale caches
// automatically.
#ifndef HSDB_BENCH_BENCH_UTIL_H_
#define HSDB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/advisor.h"

namespace hsdb {
namespace bench {

/// HSDB_BENCH_SCALE (default 0.05).
double ScaleFactor();

/// paper_rows scaled, floored at `min_rows`.
size_t ScaledRows(double paper_rows, size_t min_rows = 20'000);

/// Number of workload queries, scaled with a floor.
size_t ScaledQueries(double paper_queries, size_t min_queries = 100);

/// Calibrated cost-model parameters (cached across bench binaries).
CostModelParams CalibratedParams();

/// Prints the standard experiment banner.
void PrintBanner(const std::string& figure, const std::string& setup,
                 const std::string& paper_shape);

/// Prints a separator line.
void PrintRule();

}  // namespace bench
}  // namespace hsdb

#endif  // HSDB_BENCH_BENCH_UTIL_H_
