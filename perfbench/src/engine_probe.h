// Read-only probes of engine state the benchmark attributes time and space
// to: column-store merge counts and encoded footprint, the cost of a full
// statistics refresh, and the age of the oldest epoch pin while a phase
// runs.
#ifndef PERFBENCH_ENGINE_PROBE_H_
#define PERFBENCH_ENGINE_PROBE_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "executor/database.h"

namespace perfbench {

struct StorageTotals {
  /// Delta merges performed so far by every column-store piece.
  uint64_t delta_merges = 0;
  /// Memory of the column-store pieces (encoded main + delta), MiB.
  double column_store_mb = 0.0;
};

/// Sums over every table of `db` under its reader locks.
StorageTotals ReadStorageTotals(hsdb::Database& db);

/// Seconds to compute fresh statistics (hsdb::Analyze, the work
/// Catalog::UpdateAllStatistics does) for every table of `db`.
double AnalyzeAllSeconds(hsdb::Database& db);

/// Samples EpochManager::OldestPinAgeMs every millisecond on a thread of
/// its own until Stop(); max_ms() is the largest age seen.
class EpochPinSampler {
 public:
  explicit EpochPinSampler(const hsdb::EpochManager* epochs);
  ~EpochPinSampler();
  EpochPinSampler(const EpochPinSampler&) = delete;
  EpochPinSampler& operator=(const EpochPinSampler&) = delete;

  /// Joins the sampling thread and returns the maximum age seen (ms).
  double Stop();

 private:
  const hsdb::EpochManager* epochs_;
  std::atomic<bool> stop_{false};
  double max_ms_ = 0.0;  // written by the sampler, read after join
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_PROBE_H_
