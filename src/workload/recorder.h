// Extended workload statistics and the recorder that collects them at query
// execution time — the online mode's input (paper §4: "number of inserts per
// table, the number of updates and aggregates per attribute or the number of
// joins between tables"). Hot update keys are tracked with bounded sketches
// (histogram + SpaceSaving) instead of unbounded logs.
#ifndef HSDB_WORKLOAD_RECORDER_H_
#define HSDB_WORKLOAD_RECORDER_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/topk.h"
#include "executor/observer.h"
#include "telemetry/metrics.h"

namespace hsdb {

/// Per-column usage counters.
struct ColumnUsage {
  uint64_t updates = 0;
  uint64_t aggregate_uses = 0;
  uint64_t group_by_uses = 0;
  uint64_t filter_uses = 0;
  uint64_t projection_uses = 0;

  uint64_t OltpScore() const { return updates; }
  uint64_t OlapScore() const { return aggregate_uses + group_by_uses; }
};

/// Per-table workload statistics.
struct TableWorkloadStats {
  uint64_t queries = 0;
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;
  uint64_t point_selects = 0;
  uint64_t range_selects = 0;
  uint64_t aggregations = 0;  // OLAP queries touching the table
  uint64_t joins = 0;         // join queries touching the table
  /// Sum of updated-column counts (avg update width = / updates).
  uint64_t updated_columns_total = 0;
  /// Updates rewriting at least half of the non-key attributes (the paper's
  /// "tuples frequently updated as a whole").
  uint64_t wide_updates = 0;
  std::vector<ColumnUsage> columns;
  /// Join partner -> count.
  std::map<std::string, uint64_t> join_partners;
  /// Distribution of update keys over the primary-key domain.
  EquiWidthHistogram update_key_histogram;
  /// Most frequently updated individual keys.
  SpaceSaving hot_update_keys{64};

  double OlapFraction() const {
    return queries == 0 ? 0.0 : static_cast<double>(aggregations) / queries;
  }
  double InsertFraction() const {
    return queries == 0 ? 0.0 : static_cast<double>(inserts) / queries;
  }
  double AvgUpdateWidth() const {
    return updates == 0
               ? 0.0
               : static_cast<double>(updated_columns_total) / updates;
  }
};

/// Workload statistics across all tables.
class WorkloadStatistics {
 public:
  WorkloadStatistics() = default;
  /// `hot_key_capacity` sizes the per-table SpaceSaving sketch of hot
  /// update keys (counters tracked, not keys seen — the sketch stays
  /// bounded regardless).
  explicit WorkloadStatistics(size_t hot_key_capacity)
      : hot_key_capacity_(hot_key_capacity) {}

  /// Folds one executed query into the statistics. `catalog` provides
  /// schema/stats context (histogram domains, column counts).
  void Record(const Query& query, const Catalog& catalog);

  const TableWorkloadStats* table(const std::string& name) const;
  uint64_t total_queries() const { return total_queries_; }
  double OlapFraction() const {
    return total_queries_ == 0
               ? 0.0
               : static_cast<double>(olap_queries_) / total_queries_;
  }

  void Reset();

  const std::map<std::string, TableWorkloadStats>& tables() const {
    return tables_;
  }

 private:
  TableWorkloadStats& TableEntry(const std::string& name,
                                 const Catalog& catalog);

  std::map<std::string, TableWorkloadStats> tables_;
  uint64_t total_queries_ = 0;
  uint64_t olap_queries_ = 0;
  size_t hot_key_capacity_ = 64;
};

/// QueryObserver collecting WorkloadStatistics and (optionally) a bounded
/// sample of the raw queries for advisor re-costing. Recording is windowed
/// into *epochs*: statistics and the reservoir sample describe the current
/// epoch only (since the last BeginEpoch/Reset), which is the unit the
/// online advisor snapshots atomically — one re-search never mixes stats
/// from two epochs. The lifetime query count survives epoch rollovers.
///
/// Thread-safe: OnQuery may be called from many client threads while the
/// AdaptationController snapshots/rolls epochs from its background thread
/// — one internal mutex serializes both. The snapshot accessors
/// (statistics(), recorded_queries()) therefore return copies, not
/// references: a reference could be mutated (or its epoch rolled) under
/// the caller.
class WorkloadRecorder : public QueryObserver {
 public:
  /// `max_recorded_queries` bounds the raw query log (reservoir sampling);
  /// 0 disables raw retention (statistics only — the cheap mode whose
  /// quality trade-off `paper_figures ablation_sample` measures).
  /// `hot_key_capacity` sizes the per-table hot-update-key sketch
  /// (AdvisorOptions::recorder_hot_keys is the user knob). `metrics` is the
  /// registry the recorder mirrors its epoch/stream counters into; nullptr
  /// = the process-wide default.
  explicit WorkloadRecorder(const Catalog* catalog,
                            size_t max_recorded_queries = 4096,
                            size_t hot_key_capacity = 64,
                            telemetry::MetricsRegistry* metrics = nullptr);

  void OnQuery(const Query& query, const QueryResult& result) override;

  /// Statistics and sample of the current epoch. The references are
  /// unsynchronized views for single-threaded use (tests, offline benches);
  /// any consumer that may run concurrently with recording threads — the
  /// AdaptationController, the online advisor — must take the Snapshot*
  /// copies instead.
  const WorkloadStatistics& statistics() const { return statistics_; }
  const std::vector<Query>& recorded_queries() const { return queries_; }

  /// Locked, consistent copies of the current epoch's state.
  WorkloadStatistics SnapshotStatistics() const {
    std::lock_guard<std::mutex> lock(mu_);
    return statistics_;
  }
  std::vector<Query> SnapshotQueries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queries_;
  }

  /// Queries observed since construction / the last full Reset (lifetime —
  /// NOT reset by BeginEpoch).
  uint64_t seen_queries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }
  /// Queries observed in the current epoch.
  uint64_t epoch_seen_queries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_seen_;
  }
  /// Current epoch index (0 after construction/Reset; +1 per BeginEpoch).
  uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }

  /// Ends the current epoch: clears the statistics and the sample, advances
  /// the epoch counter, keeps the lifetime query count. The online advisor
  /// calls this after snapshotting an epoch for a re-search; the
  /// AdaptationController calls it to roll the observation window.
  void BeginEpoch();

  /// Full reset: clears everything including the epoch counter.
  void Reset();

 private:
  /// Pushes the current epoch/stream state into the registry gauges.
  /// Caller holds mu_.
  void MirrorToMetrics();

  /// Serializes recording threads against epoch snapshots/rollovers.
  mutable std::mutex mu_;
  const Catalog* catalog_;
  size_t max_queries_;
  size_t hot_key_capacity_;
  WorkloadStatistics statistics_;
  std::vector<Query> queries_;
  uint64_t seen_ = 0;
  uint64_t epoch_seen_ = 0;
  uint64_t epoch_ = 0;
  Rng rng_{0xc0ffee};

  telemetry::MetricsRegistry* metrics_;
  telemetry::Counter* recorded_total_ = nullptr;
  telemetry::Counter* epochs_total_ = nullptr;
  telemetry::Gauge* epoch_gauge_ = nullptr;
  telemetry::Gauge* epoch_queries_gauge_ = nullptr;
  telemetry::Gauge* sampled_queries_gauge_ = nullptr;
};

}  // namespace hsdb

#endif  // HSDB_WORKLOAD_RECORDER_H_
