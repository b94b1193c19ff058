// Slow-query log: a bounded ring of structured records describing the
// queries that crossed a latency threshold — the operator-facing complement
// to the aggregate latency histograms. Each record carries the query text,
// wall-clock duration, admission-queue wait, the predicted cost (when a
// predictor was installed) and a one-line trace summary, so a slow query can
// be diagnosed without reproducing it. Records are exported as JSON by the
// HTTP endpoint (`GET /slowlog`) and by `hsdb_stat --slowlog`.
//
// The fast path is one relaxed atomic load and a double compare
// (ShouldRecord); only queries at or above the threshold pay for the record
// construction and the ring mutex. Sampling (`sample_every`) thins the
// record stream under a sustained slow storm without losing the counters.
#ifndef HSDB_TELEMETRY_SLOWLOG_H_
#define HSDB_TELEMETRY_SLOWLOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"

namespace hsdb {
namespace telemetry {

/// One slow-query record. Times are milliseconds; `unix_ms` is wall-clock
/// epoch time so records correlate with external logs.
struct SlowlogRecord {
  uint64_t seq = 0;
  int64_t unix_ms = 0;
  std::string query;           // QueryToString rendering
  std::string kind;            // AGGREGATION/SELECT/INSERT/UPDATE/DELETE
  double elapsed_ms = 0.0;
  double queue_wait_ms = 0.0;  // admission-queue wait (0 for embedded use)
  double predicted_cost_ms = -1.0;  // negative = no predictor installed
  /// Top-level trace phases as "name=ms" pairs ("execute=1.20 delta_merge=0.01").
  std::string trace_summary;
  /// True when the query was answered from a shared-scan batch (elapsed is
  /// the amortized group share); the same as group_width > 1.
  bool shared = false;
  /// Members one shared scan answered together, or 1 for a per-statement
  /// run. Concurrent drainers interleave their groups' records, so this,
  /// not adjacency in the ring, is how a reader sizes a record's group.
  size_t group_width = 1;

  /// One JSON object (single line, keys sorted as declared).
  std::string ToJson() const;
};

class Slowlog {
 public:
  struct Options {
    /// Queries at or above this duration are eligible. <= 0 disables the
    /// log entirely (ShouldRecord is always false).
    double threshold_ms = 25.0;
    /// Ring capacity; the oldest record is evicted when full.
    size_t capacity = 128;
    /// Record every Nth eligible query (1 = all). Counters still count
    /// every eligible query, so sampling never hides a slow storm.
    uint64_t sample_every = 1;
  };

  Slowlog();  // default Options (GCC rejects `= Options()` default args
              // for a nested aggregate used inside the enclosing class)
  explicit Slowlog(Options options);
  HSDB_DISALLOW_COPY_AND_ASSIGN(Slowlog);

  /// Reconfigures threshold/capacity/sampling. Thread-safe; intended for
  /// setup and tests, not the per-query path.
  void Configure(Options options);
  double threshold_ms() const {
    return threshold_ms_.load(std::memory_order_relaxed);
  }

  /// The per-query gate: true when `elapsed_ms` crosses the threshold and
  /// the sampling counter selects this query. Callers build the (possibly
  /// expensive) record only on true.
  bool ShouldRecord(double elapsed_ms);

  /// Appends a record (stamps seq and unix_ms), evicting the oldest past
  /// capacity.
  void Record(SlowlogRecord record);

  /// Newest-last copy of the ring.
  std::vector<SlowlogRecord> Snapshot() const;

  /// JSON array of records, oldest first; "[]" when empty.
  std::string ToJson() const;
  /// One JSON object per line (JSONL), oldest first.
  std::string ToJsonLines() const;

  /// Eligible queries seen (recorded + sampled away + evicted).
  uint64_t slow_total() const {
    return slow_total_.load(std::memory_order_relaxed);
  }
  size_t size() const;
  void Clear();

 private:
  std::atomic<double> threshold_ms_;
  std::atomic<uint64_t> sample_every_;
  std::atomic<uint64_t> slow_total_{0};

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t next_seq_ = 1;
  std::deque<SlowlogRecord> ring_;
};

/// Thread-local admission-queue wait attribution: the serving layer knows
/// how long a query sat in the admission queue, but the slow-query record is
/// built deep inside Database::Execute. A ScopedQueueWait installed around
/// a drainer's Execute or FinishStatement call makes the wait visible
/// there without threading a parameter through every layer.
class ScopedQueueWait {
 public:
  explicit ScopedQueueWait(double wait_ms);
  ~ScopedQueueWait();
  HSDB_DISALLOW_COPY_AND_ASSIGN(ScopedQueueWait);

 private:
  double previous_;
};

/// The wait installed by the nearest enclosing ScopedQueueWait; 0 when none.
double CurrentQueueWaitMs();

}  // namespace telemetry
}  // namespace hsdb

#endif  // HSDB_TELEMETRY_SLOWLOG_H_
