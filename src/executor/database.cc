#include "executor/database.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "storage/shadow_rebuild.h"
#include "telemetry/trace.h"

namespace hsdb {

namespace {

/// Resolves Options::num_threads: an explicit value wins, 0 consults the
/// HSDB_THREADS environment variable, anything unusable degrades to serial.
int ResolveNumThreads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("HSDB_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 1;
}

/// The scan kernel's context: `pool` plus the scan telemetry handles.
ParallelContext ScanContext(ThreadPool* pool,
                            telemetry::MetricsRegistry* metrics) {
  ParallelContext ctx;
  ctx.pool = pool;
  ctx.morsels_total = &metrics->GetCounter(
      "hsdb_scan_morsels_total", "Morsels dispatched by the scan path.");
  ctx.queue_depth = &metrics->GetGauge(
      "hsdb_scan_queue_depth",
      "Worker-queue depth sampled at each scan dispatch (pending tasks plus "
      "the dispatched morsels).");
  return ctx;
}

bool IsDml(QueryKind kind) {
  return kind == QueryKind::kInsert || kind == QueryKind::kUpdate ||
         kind == QueryKind::kDelete;
}

/// The locks one statement holds for its whole execution (including
/// statement-boundary maintenance and observer notification). Readers take
/// the touched tables' rw locks shared; DML takes writer latch + exclusive
/// rw, in the global order writer_latch -> rw, names sorted (DML is
/// single-table today, the sort future-proofs multi-table writes).
struct StatementLocks {
  std::vector<std::shared_ptr<TableSync>> syncs;
  std::vector<WriterLatchGuard> latches;
  std::vector<std::shared_lock<std::shared_mutex>> shared;
  std::vector<std::unique_lock<std::shared_mutex>> exclusive;

  void Acquire(Catalog& catalog, const Query& query, bool dml) {
    std::vector<std::string> tables = TablesOf(query);
    std::sort(tables.begin(), tables.end());
    tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
    syncs.reserve(tables.size());
    for (const std::string& name : tables) {
      syncs.push_back(catalog.sync(name));
    }
    if (dml) {
      for (auto& sync : syncs) {
        latches.emplace_back(sync.get());
        exclusive.emplace_back(sync->rw);
      }
    } else {
      for (auto& sync : syncs) {
        shared.emplace_back(sync->rw);
      }
    }
  }
};

}  // namespace

Database::Database(Options options)
    : num_threads_(ResolveNumThreads(options.num_threads)),
      migration_chunk_rows_(
          options.migration_chunk_rows > 0 ? options.migration_chunk_rows
                                           : 16384),
      migration_replay_rounds_(std::max(0, options.migration_replay_rounds)),
      // d-way parallelism = the query thread + d-1 pool workers; at d = 1
      // the pool has none and every scan's morsels run inline.
      pool_(std::make_unique<ThreadPool>(static_cast<size_t>(num_threads_) -
                                         1)),
      metrics_(options.metrics != nullptr
                   ? options.metrics
                   : &telemetry::MetricsRegistry::Global()),
      executor_(&catalog_, ScanContext(pool_.get(), metrics_)),
      slowlog_(telemetry::Slowlog::Options{options.slowlog_threshold_ms,
                                           options.slowlog_capacity,
                                           options.slowlog_sample_every}) {
  // Before any table exists, so every TableSync is born instrumented.
  catalog_.set_metrics(metrics_);
  for (int i = 0; i < kNumQueryKinds; ++i) {
    const std::string kind(QueryKindName(static_cast<QueryKind>(i)));
    queries_total_[i] = &metrics_->GetCounter(
        "hsdb_queries_total", "Queries executed, by query kind.",
        {{"kind", kind}});
    query_errors_total_[i] = &metrics_->GetCounter(
        "hsdb_query_errors_total", "Queries that failed, by query kind.",
        {{"kind", kind}});
  }
  slow_queries_total_ = &metrics_->GetCounter(
      "hsdb_slow_queries_total",
      "Queries at or above the slow-query-log threshold.");
  rematerializations_total_ = &metrics_->GetCounter(
      "hsdb_rematerializations_total",
      "Physical table reorganizations (layout/encoding rebuilds).");
  migration_replay_rows_total_ = &metrics_->GetCounter(
      "hsdb_migration_replay_rows_total",
      "Write ops replayed onto shadow copies during non-blocking "
      "migrations (background rounds + cut-over tails).");
  query_latency_ms_ = &metrics_->GetHistogram(
      "hsdb_query_latency_ms", "End-to-end query latency in milliseconds.");
  cost_abs_rel_error_ = &metrics_->GetHistogram(
      "hsdb_cost_abs_rel_error",
      "Absolute relative error |observed-predicted|/observed of the cost "
      "model, per query.",
      {}, /*min_bound=*/1e-4);
  migration_swap_ms_ = &metrics_->GetHistogram(
      "hsdb_migration_swap_ms",
      "Writer-latch hold time of a migration cut-over (tail replay + "
      "pointer swap), per MigrateShadow call.",
      {}, /*min_bound=*/1e-4);
  cost_predicted_total_ms_ = &metrics_->GetGauge(
      "hsdb_cost_predicted_total_ms",
      "Sum of predicted query costs (ms) over all costed queries.");
  cost_observed_total_ms_ = &metrics_->GetGauge(
      "hsdb_cost_observed_total_ms",
      "Sum of observed query times (ms) over all costed queries.");
  epoch_pinned_readers_ = &metrics_->GetGauge(
      "hsdb_epoch_pinned_readers",
      "In-flight statements holding an epoch pin, sampled at each "
      "migration cut-over (readers the retired version must outlive).");
}

Database::~Database() = default;

Database::ReleaseFreedHeap::~ReleaseFreedHeap() {
#ifdef __GLIBC__
  malloc_trim(0);  // every arena, since glibc 2.8
#endif
}

Result<QueryResult> Database::Execute(const Query& query) {
  // Pin the reclamation epoch for the whole statement — every catalog
  // pointer this statement resolves (cost prediction included) stays alive
  // past any concurrent swap — then take the touched tables' locks.
  EpochPin pin(&catalog_.epochs());
  StatementLocks locks;
  locks.Acquire(catalog_, query, IsDml(KindOf(query)));

  // Telemetry off: no tracer, no prediction. On: predict before executing,
  // so the prediction sees the pre-statement catalog state (an INSERT
  // changes delta sizes the estimator reads).
  std::optional<telemetry::Tracer> tracer;
  double predicted_ms = -1.0;
  if (TelemetryOn()) {
    predicted_ms = PredictCost(query);
    tracer.emplace("query");
  }
  Stopwatch sw;
  Result<QueryResult> executed = [&] {
    telemetry::ScopedSpan span("execute");
    return executor_.Execute(query);
  }();
  if (executed.ok()) {
    {
      telemetry::ScopedSpan span("delta_merge");
      AfterStatementMaintenance(query);
    }
    executed->elapsed_ms = sw.ElapsedMs();
    if (tracer.has_value()) {
      executed->trace =
          std::make_shared<const telemetry::TraceSpan>(tracer->Finish());
    }
  }
  return FinishStatement(query, std::move(executed), predicted_ms,
                         /*group_width=*/1);
}

Result<QueryResult> Database::FinishStatement(const Query& query,
                                              Result<QueryResult> executed,
                                              double predicted_ms,
                                              size_t group_width) {
  const QueryKind kind = KindOf(query);
  const bool telemetry_on = TelemetryOn();
  if (!executed.ok()) {
    if (telemetry_on) query_errors_total_[static_cast<int>(kind)]->Increment();
    if (QueryObserver* obs = observer()) {
      obs->OnQueryError(query, executed.status());
    }
    return executed;
  }
  QueryResult& result = *executed;
  if (telemetry_on) {
    queries_total_[static_cast<int>(kind)]->Increment();
    query_latency_ms_->Observe(result.elapsed_ms);
    const double slow_threshold = slowlog_.threshold_ms();
    if (slow_threshold > 0.0 && result.elapsed_ms >= slow_threshold) {
      slow_queries_total_->Increment();
      if (slowlog_.ShouldRecord(result.elapsed_ms)) {
        // Only now pay for rendering the query and trace summary.
        telemetry::SlowlogRecord record;
        record.query = QueryToString(query);
        record.kind = std::string(QueryKindName(kind));
        record.elapsed_ms = result.elapsed_ms;
        record.queue_wait_ms = telemetry::CurrentQueueWaitMs();
        record.predicted_cost_ms = predicted_ms;
        record.shared = group_width > 1;
        record.group_width = group_width;
        if (result.trace != nullptr) {
          std::ostringstream phases;
          for (size_t i = 0; i < result.trace->children.size(); ++i) {
            if (i > 0) phases << ' ';
            phases << result.trace->children[i].name << '='
                   << result.trace->children[i].elapsed_ms;
          }
          record.trace_summary = phases.str();
        }
        slowlog_.Record(std::move(record));
      }
    }
    if (predicted_ms >= 0.0) {
      result.predicted_cost_ms = predicted_ms;
      const std::vector<std::string> tables = TablesOf(query);
      cost_feedback_.Record(tables.empty() ? std::string() : tables.front(),
                            predicted_ms, result.elapsed_ms);
      if (result.elapsed_ms > 0.0) {
        cost_abs_rel_error_->Observe(
            std::abs(result.elapsed_ms - predicted_ms) / result.elapsed_ms);
        cost_predicted_total_ms_->Add(predicted_ms);
        cost_observed_total_ms_->Add(result.elapsed_ms);
      }
    }
  }
  if (QueryObserver* obs = observer()) obs->OnQuery(query, result);
  return executed;
}

void Database::AfterStatementMaintenance(const Query& query) {
  // Statement-boundary maintenance on the tables the query touched. DML
  // only: reads never grow a delta, and the caller holds the exclusive
  // table lock only for DML — a merge moves row ids, which must never
  // happen under concurrent readers.
  if (!IsDml(KindOf(query))) return;
  for (const std::string& name : TablesOf(query)) {
    if (LogicalTable* table = catalog_.GetTable(name)) {
      table->AfterStatement();
    }
  }
}

TelemetryReport Database::TelemetrySnapshot() const {
  TelemetryReport report;
  report.enabled = TelemetryOn();
  report.layout_epochs = layout_epoch();
  if (!report.enabled) return report;
  for (int i = 0; i < kNumQueryKinds; ++i) {
    report.queries += queries_total_[i]->value();
    report.errors += query_errors_total_[i]->value();
  }
  report.p50_latency_ms = query_latency_ms_->Quantile(0.5);
  report.p95_latency_ms = query_latency_ms_->Quantile(0.95);
  report.p99_latency_ms = query_latency_ms_->Quantile(0.99);
  report.cost = cost_feedback_.snapshot();
  return report;
}

std::string TelemetryReport::ToString() const {
  std::ostringstream os;
  if (!enabled) {
    os << "telemetry disabled (" << layout_epochs << " layout epoch(s))\n";
    return os.str();
  }
  os << "queries " << queries << " (errors " << errors << "), latency p50 "
     << p50_latency_ms << " ms p95 " << p95_latency_ms << " ms p99 "
     << p99_latency_ms << " ms, layout epochs " << layout_epochs << "\n"
     << cost.ToString();
  return os.str();
}

Result<ShadowMigrationStats> Database::MigrateShadow(
    const std::string& name, const TableLayout& layout,
    const std::vector<Encoding>& encodings) {
  ShadowMigrationStats stats;
  EpochPin pin(&catalog_.epochs());
  std::shared_ptr<TableSync> sync = catalog_.sync(name);
  TableOpLog log;
  LogicalTable* table = nullptr;
  PhysicalOptions options;
  {
    // Attach under the writer latch: every statement is entirely before
    // (its rows are seen by the chunked copy) or entirely after (its ops
    // land in the log) this point. Attaching also suppresses delta merges,
    // keeping the copy's row-id cursor sound.
    WriterLatchGuard latch(sync.get());
    HSDB_ASSIGN_OR_RETURN(table, catalog_.Find(name));
    if (table->HasOpLog()) {
      return Status::FailedPrecondition("a layout change of table " + name +
                                        " is already in flight");
    }
    options = table->physical_options();
    if (!encodings.empty()) {
      options.column.column_encodings.assign(encodings.begin(),
                                             encodings.end());
    }
    // A layout without a column-store piece has no encoded segments: drop
    // any codec pins instead of carrying them along, so a later move back
    // to the column store re-enters the adaptive picker rather than
    // resurrecting codecs that were solved for an old layout or budget.
    if (!HasColumnStorePiece(layout)) {
      options.column.column_encodings.clear();
    }
    // No-op only when both the layout and the pinned codecs already match;
    // an encoding-only change still rebuilds (the re-encode happens at the
    // shadow's bulk-load merge).
    if (table->layout() == layout &&
        options.column.column_encodings ==
            table->physical_options().column.column_encodings) {
      return stats;
    }
    table->AttachOpLog(&log);
  }
  // From here on every early return must detach the log again.
  auto detach = [&] {
    WriterLatchGuard latch(sync.get());
    table->DetachOpLog();
  };

  Stopwatch build_sw;
  Result<std::unique_ptr<LogicalTable>> shadow_or = [&] {
    telemetry::ScopedSpan span("migration_build");
    Result<std::unique_ptr<LogicalTable>> made =
        LogicalTable::Create(name, table->schema(), layout, options);
    if (!made.ok()) return made;
    std::unique_ptr<LogicalTable> shadow = std::move(made).value();

    // Phase 1 — chunked copy: each chunk holds the reader lock just long
    // enough to collect migration_chunk_rows slots; inserts into the
    // private shadow happen outside it. The scan bound is frozen per group
    // at the first chunk: rows appended later are covered by the op log,
    // and row ids are stable because merges are suppressed.
    std::vector<Row> buffer;
    for (size_t g = 0; g < table->groups().size(); ++g) {
      size_t cursor = 0;
      size_t bound = 0;
      bool first = true;
      while (true) {
        buffer.clear();
        {
          std::shared_lock<std::shared_mutex> rd(sync->rw);
          if (first) {
            bound = table->GroupSlotCount(g);
            first = false;
          }
          const size_t hi = std::min(cursor + migration_chunk_rows_, bound);
          if (cursor >= hi) break;
          table->ForEachRowInGroupRange(g, cursor, hi, [&](Row row) {
            buffer.push_back(std::move(row));
          });
          cursor = hi;
        }
        for (Row& row : buffer) {
          Status inserted = shadow->Insert(std::move(row));
          if (!inserted.ok()) {
            return Result<std::unique_ptr<LogicalTable>>(inserted);
          }
          ++stats.rows_copied;
        }
      }
    }
    shadow->ForceMerge();

    // Phase 2 — catch-up replay: drain the writes that raced the copy,
    // outside any latch, until the log runs dry or the round budget is
    // spent. Whatever remains is the cut-over tail.
    for (int round = 0; round < migration_replay_rounds_; ++round) {
      std::vector<TableOp> ops = log.Drain();
      if (ops.empty()) break;
      Status replayed = ReplayOps(shadow.get(), ops, &stats.replayed_ops);
      if (!replayed.ok()) {
        return Result<std::unique_ptr<LogicalTable>>(replayed);
      }
    }
    return Result<std::unique_ptr<LogicalTable>>(std::move(shadow));
  }();
  if (!shadow_or.ok()) {
    detach();
    return shadow_or.status();
  }
  std::unique_ptr<LogicalTable> shadow = std::move(shadow_or).value();
  stats.build_ms = build_sw.ElapsedMs();

  // Phase 3 — cut-over: the only writer-visible window. Under the writer
  // latch (readers keep scanning): replay the tail, detach the log, swap
  // the catalog pointer. The old version is retired, not destroyed — any
  // reader that resolved it under an earlier pin finishes undisturbed.
  Stopwatch cutover_sw;
  {
    telemetry::ScopedSpan span("migration_swap");
    WriterLatchGuard latch(sync.get());
    std::vector<TableOp> tail = log.Drain();
    stats.tail_ops = tail.size();
    Status replayed = ReplayOps(shadow.get(), tail, &stats.replayed_ops);
    table->DetachOpLog();
    if (!replayed.ok()) return replayed;
    HSDB_RETURN_IF_ERROR(catalog_.ReplaceTable(name, std::move(shadow)));
    layout_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  stats.cutover_ms = cutover_sw.ElapsedMs();
  stats.rematerialized = true;
  catalog_.epochs().Advance();

  if (TelemetryOn()) {
    rematerializations_total_->Increment();
    migration_swap_ms_->Observe(stats.cutover_ms);
    migration_replay_rows_total_->Increment(stats.replayed_ops);
    epoch_pinned_readers_->Set(
        static_cast<double>(catalog_.epochs().pinned_readers()));
  }
  // Fresh statistics for the new version (under the reader lock, inside
  // UpdateStatistics — writers wait, readers don't).
  HSDB_RETURN_IF_ERROR(catalog_.UpdateStatistics(name));
  return stats;
}

}  // namespace hsdb
