// Database: the engine facade — catalog + executor + statement-boundary
// maintenance + workload observation + the layout-change DDL the storage
// advisor's recommendations execute. Also the engine's telemetry anchor:
// every Execute stamps the result with a phase-decomposed trace span tree
// and (when a cost predictor is installed) the estimator's predicted cost.
// One accounting step, FinishStatement, then feeds the observed-vs-predicted
// residual into a CostFeedback accumulator, mirrors query counts/latencies
// into the MetricsRegistry, records slow queries and notifies the observer —
// for serial statements and for the BatchExecutor's shared-scan members
// alike.
//
// Concurrency (docs/CONCURRENCY.md): Execute is safe to call from many
// threads. Each statement pins the catalog's reclamation epoch, then takes
// the touched tables' locks — readers shared, DML the writer latch plus the
// exclusive lock. Every layout change — StorageAdvisor::Apply, the online
// MigrationExecutor, tests and benches alike — is a MigrateShadow: a shadow
// rebuild that never blocks readers and blocks writers only for a short
// cut-over window.
#ifndef HSDB_EXECUTOR_DATABASE_H_
#define HSDB_EXECUTOR_DATABASE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "executor/executor.h"
#include "executor/observer.h"
#include "telemetry/cost_feedback.h"
#include "telemetry/metrics.h"
#include "telemetry/slowlog.h"

namespace hsdb {

/// Point-in-time view of the engine's query telemetry, returned by
/// Database::TelemetrySnapshot(): lifetime query/error counts, latency
/// percentiles, rematerialization count, and the per-table
/// observed-vs-predicted cost residual statistics.
struct TelemetryReport {
  /// False when telemetry is compiled out or the registry is disabled; the
  /// other fields are then zero/empty.
  bool enabled = false;
  uint64_t queries = 0;
  uint64_t errors = 0;
  /// Physical reorganizations (layout_epoch()).
  uint64_t layout_epochs = 0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  telemetry::CostFeedback::Snapshot cost;

  std::string ToString() const;
};

/// Outcome of one Database::MigrateShadow call — the numbers behind the
/// hsdb_migration_swap_ms / hsdb_migration_replay_rows_total telemetry.
struct ShadowMigrationStats {
  /// False when the table already matched the target (no-op).
  bool rematerialized = false;
  /// Rows copied out of the live version by the chunked background scan.
  uint64_t rows_copied = 0;
  /// Ops replayed onto the shadow, background rounds + cut-over tail.
  uint64_t replayed_ops = 0;
  /// Ops replayed inside the cut-over window (the writer-visible part).
  uint64_t tail_ops = 0;
  /// Background phase: chunked copy + merge + catch-up replay rounds.
  double build_ms = 0.0;
  /// Writer-latch hold time of the cut-over (tail replay + pointer swap).
  /// This — not build_ms — is what concurrent writers can feel.
  double cutover_ms = 0.0;
};

class Database {
 public:
  struct Options {
    /// Degree of parallelism d of the scan kernel: every covered scan runs
    /// its morsels on d threads, the caller plus a pool of d-1 workers (at
    /// d = 1 the pool has no workers and the morsels run inline). Results
    /// are bit-identical at every d. 0 (the default) reads the HSDB_THREADS
    /// environment variable, falling back to 1 when unset or unparsable.
    int num_threads = 0;
    /// Registry query telemetry lands in; nullptr = the process-wide
    /// MetricsRegistry::Global(). Injected by tests that need isolated
    /// counters.
    telemetry::MetricsRegistry* metrics = nullptr;
    /// Lead-fragment slots a shadow rebuild copies per reader-lock
    /// acquisition. Smaller chunks shorten the longest writer wait during
    /// the background build; larger chunks copy faster.
    size_t migration_chunk_rows = 16384;
    /// Slow-query log threshold (telemetry/slowlog.h): queries at or above
    /// it are recorded into a bounded ring (the Slowlog::Options capacity
    /// and sampling) exported by the HTTP endpoint and hsdb_stat --slowlog.
    /// <= 0 disables the log.
    double slowlog_threshold_ms = 25.0;
  };

  explicit Database(Options options);
  /// Back-compat convenience: default options with an explicit registry.
  explicit Database(telemetry::MetricsRegistry* metrics = nullptr)
      : Database([metrics] {
          Options o;
          o.metrics = metrics;
          return o;
        }()) {}
  ~Database();  // out of line: ThreadPool is forward-declared here
  HSDB_DISALLOW_COPY_AND_ASSIGN(Database);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Creates a table (convenience passthrough). Every table needs a primary
  /// key: an empty one is InvalidArgument.
  Status CreateTable(const std::string& name, Schema schema,
                     TableLayout layout, PhysicalOptions options = {}) {
    return catalog_.CreateTable(name, std::move(schema), std::move(layout),
                                options);
  }

  /// Executes one query: runs it, stamps the wall-clock time, performs
  /// statement-boundary maintenance on the touched tables (delta merges,
  /// DML only) and finishes it through FinishStatement (metrics, slow-query
  /// log, cost feedback, observer). With telemetry enabled the result also
  /// carries the span tree of the execution phases and the predicted cost
  /// (when a predictor is installed); with telemetry off it runs no tracer
  /// and no prediction. Failures invoke QueryObserver::OnQueryError and
  /// count into the error metrics.
  ///
  /// Thread-safe: reads of the same table run concurrently with each other
  /// and with a migration's build phase; DML statements serialize per
  /// table. The whole statement (cost prediction included) runs under one
  /// epoch pin, so a concurrent swap can never free a table version this
  /// statement still reads.
  Result<QueryResult> Execute(const Query& query);

  /// Installs/removes the workload observer (not owned). Install before
  /// concurrent Execute traffic starts (the pointer itself is read
  /// lock-free); the observer's hooks must be thread-safe —
  /// WorkloadRecorder is.
  void set_observer(QueryObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }

  // Telemetry -------------------------------------------------------------

  telemetry::MetricsRegistry& metrics() { return *metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return *metrics_; }

  /// Predicts the cost (ms) of a query under the current catalog design.
  /// The StorageAdvisor installs one backed by its cost model; every
  /// executed query then yields an observed-vs-predicted residual.
  /// Install before concurrent Execute traffic starts.
  using CostPredictor = std::function<double(const Query&)>;
  void set_cost_predictor(CostPredictor predictor) {
    cost_predictor_ = std::move(predictor);
  }
  bool has_cost_predictor() const { return cost_predictor_ != nullptr; }

  /// Predicted cost (ms) of `query` under the current design; negative when
  /// no predictor is installed. The caller provides table stability (an
  /// epoch pin + reader locks, e.g. CatalogReadLock) — Execute does this
  /// implicitly, `explain` does it explicitly.
  double PredictCost(const Query& query) const {
    return cost_predictor_ ? cost_predictor_(query) : -1.0;
  }

  /// The slow-query log (always present; recording is threshold-gated).
  telemetry::Slowlog& slowlog() { return slowlog_; }
  const telemetry::Slowlog& slowlog() const { return slowlog_; }

  /// The accumulated observed-vs-predicted residual stream.
  const telemetry::CostFeedback& cost_feedback() const {
    return cost_feedback_;
  }

  /// Snapshot of the engine-level telemetry (see TelemetryReport).
  TelemetryReport TelemetrySnapshot() const;

  // Layout DDL -----------------------------------------------------------

  /// Reorganizes a table under an arbitrary layout (partitioned or not) and
  /// refreshes its statistics — the one code path that changes a table's
  /// layout. A non-empty `encodings` (one codec per logical column) pins the
  /// column-store pieces' per-column codecs — the engine-side realization
  /// of the advisor's ENCODING (...) clauses; empty keeps the adaptive
  /// EncodingPicker behavior. Moving to a layout with no column-store piece
  /// (e.g. a budget-driven row-store flip) clears any existing pins, so a
  /// later move back to the column store starts from the adaptive picker
  /// again.
  ///
  /// Builds the target representation into a shadow copy in bounded chunks
  /// while readers and writers keep hitting the live version (writes are
  /// captured in a TableOpLog), replays the captured writes, and publishes
  /// the shadow with an epoch-based atomic swap inside a short writer-latch
  /// cut-over window. Readers are never blocked; writers only for
  /// cutover_ms. At most one layout change per table is in flight: a call
  /// that finds another one's op log attached returns FailedPrecondition
  /// and leaves that migration undisturbed (the MigrationExecutor keeps
  /// its cursor on the step and retries on the next tick).
  Result<ShadowMigrationStats> MigrateShadow(
      const std::string& name, const TableLayout& layout,
      const std::vector<Encoding>& encodings = {});

  /// Counts physical reorganizations: +1 for every MigrateShadow that
  /// actually rebuilt a table (no-op calls don't count). The online
  /// migration executor applies a recommendation as several budgeted steps;
  /// this counter is how its callers (and tests) observe that the
  /// convergence really happened incrementally.
  uint64_t layout_epoch() const {
    return layout_epoch_.load(std::memory_order_acquire);
  }

  /// Resolved degree of parallelism (>= 1; see Options::num_threads). The
  /// advisor reads this to configure the cost model's parallel scan factor.
  int num_threads() const { return num_threads_; }

  /// The scan kernel's context (its pool has num_threads() - 1 workers).
  /// The BatchExecutor scans with it, so shared scans parallelize exactly
  /// like single-statement scans do.
  const ParallelContext& parallel() const { return executor_.parallel(); }

 private:
  friend class BatchExecutor;

  /// True when per-query telemetry should run right now.
  bool TelemetryOn() const {
    return telemetry::kCompiledIn && metrics_->enabled();
  }
  /// The one post-statement accounting step. With telemetry on: query and
  /// error counters, the latency histogram, the slow-query record and — when
  /// `predicted_ms` >= 0 — the prediction stamp and the cost-feedback
  /// residual. Always: observer notification. `executed` carries its
  /// elapsed_ms and trace; `group_width` is 1 for a per-statement run and
  /// the group's width for a shared-scan batch member, whose elapsed_ms is
  /// its amortized share of the group.
  Result<QueryResult> FinishStatement(const Query& query,
                                      Result<QueryResult> executed,
                                      double predicted_ms, size_t group_width);
  void AfterStatementMaintenance(const Query& query);
  QueryObserver* observer() const {
    return observer_.load(std::memory_order_acquire);
  }

  /// Declared first, so destroyed last: once every table and retired
  /// version is freed, hands the whole free pages of the heap back to the
  /// OS. Without it a process that drops a database and builds another
  /// keeps the first one's freed heap resident and fragmented, and each
  /// rebuild raises peak RSS by an amount that varies from run to run.
  struct ReleaseFreedHeap {
    ~ReleaseFreedHeap();
  };
  ReleaseFreedHeap release_freed_heap_;

  Catalog catalog_;
  std::atomic<QueryObserver*> observer_{nullptr};
  std::atomic<uint64_t> layout_epoch_{0};
  int num_threads_ = 1;
  size_t migration_chunk_rows_ = 16384;
  std::unique_ptr<ThreadPool> pool_;  // num_threads_ - 1 workers

  telemetry::MetricsRegistry* metrics_;
  Executor executor_;  // after pool_ and metrics_: its scan context uses both
  CostPredictor cost_predictor_;
  telemetry::CostFeedback cost_feedback_;
  telemetry::Slowlog slowlog_;
  // Cached metric handles (registered once, incremented lock-free).
  telemetry::Counter* queries_total_[kNumQueryKinds] = {};
  telemetry::Counter* query_errors_total_[kNumQueryKinds] = {};
  telemetry::Counter* slow_queries_total_ = nullptr;
  telemetry::Counter* rematerializations_total_ = nullptr;
  telemetry::Counter* migration_replay_rows_total_ = nullptr;
  telemetry::LogHistogram* query_latency_ms_ = nullptr;
  telemetry::LogHistogram* cost_abs_rel_error_ = nullptr;
  telemetry::LogHistogram* migration_swap_ms_ = nullptr;
  telemetry::Gauge* cost_predicted_total_ms_ = nullptr;
  telemetry::Gauge* cost_observed_total_ms_ = nullptr;
  telemetry::Gauge* epoch_pinned_readers_ = nullptr;
};

}  // namespace hsdb

#endif  // HSDB_EXECUTOR_DATABASE_H_
