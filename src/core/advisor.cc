#include "core/advisor.h"

#include <algorithm>
#include <sstream>

#include "common/stopwatch.h"
#include "core/workload_model.h"
#include "online/controller.h"
#include "telemetry/metrics.h"

namespace hsdb {

namespace {

/// " ENCODING (col CODEC, ...)" clause naming the codec of every column
/// that lands in a column-store piece. The codecs are the encoding search's
/// cost-derived assignment (LayoutContext::encodings) when present, and the
/// picker's choice from the catalog statistics otherwise. A vertical
/// split's row-store columns are skipped (the replicated primary key stays
/// column-encoded in the base piece).
std::string EncodingClause(const Schema& schema, const LayoutContext& ctx,
                           const TableStatistics* stats) {
  const bool searched = ctx.encodings.size() == schema.num_columns();
  if (!searched && (stats == nullptr || stats->columns.empty())) return "";
  const TableLayout& layout = ctx.layout;
  std::ostringstream os;
  os << " ENCODING (";
  bool first = true;
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    if (layout.vertical.has_value() && !schema.IsPrimaryKeyColumn(c)) {
      const std::vector<ColumnId>& rs = layout.vertical->row_store_columns;
      if (std::find(rs.begin(), rs.end(), c) != rs.end()) continue;
    }
    if (!first) os << ", ";
    first = false;
    os << schema.column(c).name << " "
       << EncodingName(searched ? ctx.encodings[c]
                                : stats->column(c).encoding);
  }
  os << ")";
  return os.str();
}

std::string LayoutDdl(const std::string& table, const LayoutContext& ctx,
                      const Schema& schema, const TableStatistics* stats,
                      const std::optional<double>& memory_budget_bytes) {
  std::ostringstream os;
  const TableLayout& layout = ctx.layout;
  std::string encodings;
  if (HasColumnStorePiece(layout)) {
    encodings = EncodingClause(schema, ctx, stats);
    // Budget mode: record the constraint the encoding assignment was
    // solved under — only where an assignment exists (tables without
    // statistics are skipped by the search and get no clause).
    if (!encodings.empty() && memory_budget_bytes.has_value()) {
      std::ostringstream budget;
      budget << " WITH (MEMORY_BUDGET "
             << static_cast<uint64_t>(*memory_budget_bytes) << ")";
      encodings += budget.str();
    }
  }
  if (!layout.IsPartitioned()) {
    os << "ALTER TABLE " << table << " STORE "
       << StoreTypeName(layout.base_store) << encodings << ";";
    return os.str();
  }
  os << "ALTER TABLE " << table << " PARTITION BY (";
  bool first = true;
  if (layout.horizontal.has_value()) {
    os << "ROWS " << schema.column(layout.horizontal->column).name
       << " >= " << layout.horizontal->boundary << " TO "
       << StoreTypeName(layout.horizontal->hot_store) << " STORE";
    first = false;
  }
  if (layout.vertical.has_value()) {
    if (!first) os << "; ";
    os << "COLUMNS (";
    for (size_t i = 0; i < layout.vertical->row_store_columns.size(); ++i) {
      if (i > 0) os << ", ";
      os << schema.column(layout.vertical->row_store_columns[i]).name;
    }
    os << ") TO ROW STORE";
  }
  os << ") BASE " << StoreTypeName(layout.base_store) << encodings << ";";
  return os.str();
}

}  // namespace

std::string Recommendation::Summary() const {
  std::ostringstream os;
  os << "Storage advisor recommendation\n";
  if (!solved_for.empty()) {
    os << "  solved for: " << solved_for.total_queries
       << " queries, OLAP fraction " << solved_for.olap_fraction;
    if (solved_epoch > 0) os << ", epoch " << solved_epoch;
    os << "\n";
  }
  os << "  estimated workload cost: " << estimated_cost_ms << " ms\n";
  os << "  baselines: RS-only " << rs_only_cost_ms << " ms, CS-only "
     << cs_only_cost_ms << " ms, table-level " << table_level_cost_ms
     << " ms";
  if (sequential_cost_ms > 0.0) {
    os << ", sequential pipeline " << sequential_cost_ms << " ms";
  }
  os << "\n";
  if (encoding_footprint_bytes > 0.0) {
    os << "  encodings: " << encoding_footprint_bytes << " bytes";
    if (memory_budget_bytes.has_value()) {
      os << " (budget " << *memory_budget_bytes << " bytes, "
         << (encoding_budget_feasible ? "met" : "NOT met") << ")";
    }
    os << ", picker baseline " << encoding_picker_cost_ms << " ms\n";
  }
  if (!encoding_footprint_by_table.empty() &&
      memory_budget_bytes.has_value() && *memory_budget_bytes > 0.0) {
    os << "  budget attribution:\n";
    for (const auto& [name, bytes] : encoding_footprint_by_table) {
      os << "    " << name << ": " << bytes << " bytes ("
         << 100.0 * bytes / *memory_budget_bytes << "% of budget)\n";
    }
  }
  for (const std::string& r : rationale) os << "  - " << r << "\n";
  for (const std::string& d : ddl) os << "  " << d << "\n";
  return os.str();
}

StorageAdvisor::StorageAdvisor(Database* db, AdvisorOptions options)
    : db_(db),
      options_(options),
      model_(std::make_unique<CostModel>()),
      recorder_(std::make_unique<WorkloadRecorder>(
          &db->catalog(), options.recorder_sample,
          options.recorder_hot_keys, &db->metrics())) {
  // Cost scans at the database's actual degree of parallelism and — when a
  // serving front-end batches queries — at its shared-scan width.
  model_->set_dop(db_->num_threads());
  model_->set_batch_width(options_.batch_width);
  // Close the loop between prediction and observation: every query the
  // database executes from now on is costed by the advisor's model under
  // the catalog's *current* layouts, so the result carries an
  // observed-vs-predicted residual (Database::cost_feedback()). The lambda
  // reads model_ at call time — InitializeCostModel swapping in calibrated
  // parameters takes effect immediately.
  db_->set_cost_predictor([this](const Query& query) {
    WorkloadCostEstimator estimator(model_.get(), &db_->catalog());
    return estimator.QueryCost(query, [this](const std::string& name) {
      const LogicalTable* table = db_->catalog().GetTable(name);
      if (table == nullptr) return LayoutContext{};
      return CurrentLayoutContext(*table, db_->catalog().GetStatistics(name));
    });
  });
}

StorageAdvisor::~StorageAdvisor() {
  // The controller's background thread ticks against the recorder and the
  // database; join it before detaching anything.
  controller_.reset();
  if (recording_) db_->set_observer(nullptr);
  db_->set_cost_predictor(nullptr);
}

CalibrationReport StorageAdvisor::InitializeCostModel() {
  EngineProbeRunner runner;
  return InitializeCostModel(runner);
}

CalibrationReport StorageAdvisor::InitializeCostModel(ProbeRunner& runner) {
  CalibrationReport report = Calibrate(runner, options_.calibration);
  model_ = std::make_unique<CostModel>(report.params);
  model_->set_dop(db_->num_threads());
  model_->set_batch_width(options_.batch_width);
  return report;
}

void StorageAdvisor::SetCostModelParams(CostModelParams params) {
  model_ = std::make_unique<CostModel>(std::move(params));
  model_->set_dop(db_->num_threads());
  model_->set_batch_width(options_.batch_width);
}

Status StorageAdvisor::EnsureStatistics(
    const std::vector<WeightedQuery>& workload, bool refresh) {
  for (const WeightedQuery& wq : workload) {
    for (const std::string& name : TablesOf(wq.query)) {
      if (db_->catalog().GetTable(name) == nullptr) {
        return Status::NotFound("workload references unknown table " + name);
      }
      if (refresh || db_->catalog().GetStatistics(name) == nullptr) {
        HSDB_RETURN_IF_ERROR(db_->catalog().UpdateStatistics(name));
      }
    }
  }
  return Status::OK();
}

Result<Recommendation> StorageAdvisor::RecommendOffline(
    const std::vector<Query>& workload) {
  return RecommendOffline(ToWeighted(workload));
}

Result<Recommendation> StorageAdvisor::RecommendOffline(
    const std::vector<WeightedQuery>& workload) {
  if (workload.empty()) {
    return Status::InvalidArgument("empty workload");
  }
  HSDB_RETURN_IF_ERROR(EnsureStatistics(workload));
  // Offline mode derives the extended statistics from the supplied workload
  // itself (paper §4: recorded or expected workload information).
  WorkloadStatistics stats;
  for (const WeightedQuery& wq : workload) {
    uint64_t repeat = std::max<uint64_t>(
        1, static_cast<uint64_t>(wq.weight + 0.5));
    for (uint64_t i = 0; i < repeat; ++i) {
      stats.Record(wq.query, db_->catalog());
    }
  }
  return Recommend(workload, stats);
}

void StorageAdvisor::StartRecording() {
  recorder_->Reset();
  db_->set_observer(recorder_.get());
  recording_ = true;
}

void StorageAdvisor::StopRecording() {
  db_->set_observer(nullptr);
  recording_ = false;
}

AdaptationController& StorageAdvisor::StartAutoAdapt(
    const AdaptationOptions& options) {
  if (!recording_) StartRecording();
  controller_ = std::make_unique<AdaptationController>(this, db_, options);
  return *controller_;
}

AdaptationController& StorageAdvisor::StartAutoAdapt() {
  return StartAutoAdapt(AdaptationOptions{});
}

void StorageAdvisor::StopAutoAdapt() { controller_.reset(); }

Result<Recommendation> StorageAdvisor::RecommendOnline() {
  if (!recording_) {
    return Status::FailedPrecondition(
        "online mode requires StartRecording()");
  }
  if (recorder_->epoch_seen_queries() == 0) {
    return Status::FailedPrecondition(
        "no queries recorded in the current epoch");
  }
  // Consume the epoch atomically: snapshot the extended statistics and the
  // sample, then roll the recorder so queries arriving during (or after)
  // the search land in the next epoch — the search below never sees a mix
  // of two windows.
  const WorkloadStatistics stats = recorder_->SnapshotStatistics();
  const std::vector<Query> sample = recorder_->SnapshotQueries();
  const uint64_t epoch_seen = recorder_->epoch_seen_queries();
  const uint64_t epoch = recorder_->epoch();
  recorder_->BeginEpoch();

  std::vector<WeightedQuery> workload;
  if (sample.empty()) {
    // Statistics-only mode (no raw query log retained): reconstruct a
    // representative weighted workload from the extended statistics.
    workload = BuildWorkloadModel(stats, db_->catalog());
    if (workload.empty()) {
      return Status::FailedPrecondition(
          "statistics do not describe any known table");
    }
  } else {
    // Scale the retained sample back to the epoch's full stream volume.
    double scale = static_cast<double>(epoch_seen) /
                   static_cast<double>(sample.size());
    workload.reserve(sample.size());
    for (const Query& q : sample) {
      workload.push_back(WeightedQuery{q, scale});
    }
  }
  // Refresh the catalog statistics of every touched table (memoized on the
  // table's data_version, so unmutated tables are not re-profiled): the
  // search pairs this epoch's workload profile with this epoch's data
  // statistics instead of whatever an earlier epoch left behind.
  HSDB_RETURN_IF_ERROR(EnsureStatistics(workload, /*refresh=*/true));
  Result<Recommendation> rec = Recommend(workload, stats);
  if (rec.ok()) rec->solved_epoch = epoch;
  return rec;
}

Result<Recommendation> StorageAdvisor::Recommend(
    const std::vector<WeightedQuery>& workload,
    const WorkloadStatistics& stats) {
  // The search holds raw GetTable/GetStatistics pointers across its whole
  // run while a concurrent migration cut-over may retire versions: pin the
  // reclamation epoch for the duration. Mutable table state is never read
  // here — EnsureStatistics guarantees every costed table has a statistics
  // object, so the estimator works from those immutable snapshots plus
  // immutable table fields (layout, schema).
  EpochPin pin(&db_->catalog().epochs());
  // Search telemetry: phase timings, search effort and the stability /
  // budget-repair outcomes. Registration is idempotent and Recommend runs
  // at adaptation frequency, so fetching handles here is fine.
  telemetry::MetricsRegistry& reg = db_->metrics();
  const bool telemetry_on = telemetry::kCompiledIn && reg.enabled();
  auto observe_phase = [&](const char* phase, double ms) {
    if (!telemetry_on) return;
    reg.GetHistogram("hsdb_advisor_phase_ms",
                     "Advisor search phase wall time in milliseconds.",
                     {{"phase", phase}})
        .Observe(ms);
  };
  Stopwatch total_sw;

  Recommendation rec;
  // Stamp what the search is about to be solved for: the drift detector
  // compares live statistics against this snapshot, and the migration
  // planner orders steps by gain on this workload.
  rec.solved_for = WorkloadProfile::Snapshot(stats);
  rec.solved_workload = workload;

  Stopwatch phase_sw;
  TableAdvisor table_advisor(model_.get(), &db_->catalog(),
                             options_.table_options);
  TableAdvisorResult table_result = table_advisor.Recommend(workload);
  observe_phase("table", phase_sw.ElapsedMs());
  rec.table_level_assignment = table_result.assignment;
  rec.rs_only_cost_ms = table_result.rs_only_cost_ms;
  rec.cs_only_cost_ms = table_result.cs_only_cost_ms;
  rec.table_level_cost_ms = table_result.estimated_cost_ms;

  phase_sw.Restart();
  PartitionAdvisor partition_advisor(model_.get(), &db_->catalog(),
                                     options_.partition_options);
  PartitionAdvisorResult part =
      partition_advisor.Recommend(workload, stats, table_result.assignment);
  observe_phase("partition", phase_sw.ElapsedMs());
  rec.layouts = part.layouts;
  rec.estimated_cost_ms = part.estimated_cost_ms;
  rec.rationale = part.rationale;
  rec.sequential_cost_ms = rec.estimated_cost_ms;

  // The staged pick anchors candidate 0 of every table, the plain
  // single-store layouts and the PartitionAdvisor's heuristic splits widen
  // the space, and the table's current layout rides along so the
  // hysteresis rule can protect it across flips. The search then trades
  // footprint across layout flips and codec swaps under the one shared
  // memory budget.
  phase_sw.Restart();
  std::map<std::string, std::vector<LayoutCandidate>> candidates;
  for (const auto& [name, ctx] : rec.layouts) {
    std::vector<LayoutCandidate> list;
    auto add = [&](const LayoutContext& candidate, std::string reason) {
      for (const LayoutCandidate& existing : list) {
        if (existing.context.layout == candidate.layout) return;
      }
      list.push_back({candidate, std::move(reason)});
    };
    add(ctx, "sequential pick");
    add(LayoutContext::SingleStore(StoreType::kRow),
        "unpartitioned ROW store");
    add(LayoutContext::SingleStore(StoreType::kColumn),
        "unpartitioned COLUMN store");
    auto hc = part.candidates.find(name);
    if (hc != part.candidates.end()) {
      for (const LayoutCandidate& candidate : hc->second) {
        add(candidate.context, candidate.reason);
      }
    }
    if (const LogicalTable* table = db_->catalog().GetTable(name)) {
      add(CurrentLayoutContext(*table, db_->catalog().GetStatistics(name)),
          "current layout");
    }
    candidates.emplace(name, std::move(list));
  }
  const EncodingDesign chosen =
      EncodingSearch(model_.get(), &db_->catalog(), options_.encoding)
          .Search(workload, candidates);
  if (!chosen.tables.empty()) {
    for (const auto& [name, design] : chosen.tables) {
      rec.layouts.at(name) = design.context;
      rec.encoding_footprint_by_table[name] = design.footprint_bytes;
      // Report a move only when the chosen layout deviates from the staged
      // pick AND from what the catalog already has (hysteresis keeping the
      // current layout against a drifted staged pick is not a move — no DDL
      // is emitted for it either).
      const LogicalTable* table = db_->catalog().GetTable(name);
      if (design.layout_changed && table != nullptr &&
          !(table->layout() == design.context.layout)) {
        std::ostringstream flip;
        flip << name << ": joint budget search moved the layout to "
             << design.context.layout.ToString() << " (" << design.reason
             << ", footprint " << design.footprint_bytes << " bytes)";
        rec.rationale.push_back(flip.str());
      }
    }
    rec.estimated_cost_ms = chosen.cost_ms;
    rec.sequential_cost_ms = chosen.sequential_cost_ms;
    rec.sequential_budget_feasible = chosen.sequential_feasible;
    rec.encoding_footprint_bytes = chosen.footprint_bytes;
    rec.encoding_picker_cost_ms = chosen.picker_cost_ms;
    rec.memory_budget_bytes = options_.encoding.memory_budget_bytes;
    rec.encoding_budget_feasible = chosen.feasible;
    std::ostringstream note;
    note << "joint layout+encoding search ("
         << (chosen.exact ? "exact" : "greedy") << ", "
         << chosen.evaluated_assignments << " designs): cost "
         << chosen.cost_ms << " ms vs sequential pipeline "
         << chosen.sequential_cost_ms << " ms, footprint "
         << chosen.footprint_bytes << " bytes";
    if (options_.encoding.memory_budget_bytes.has_value()) {
      note << ", budget " << *options_.encoding.memory_budget_bytes
           << " bytes " << (chosen.feasible ? "met" : "NOT met");
      if (!chosen.feasible) {
        note << " (floor " << chosen.min_footprint_bytes << " bytes)";
      }
    }
    rec.rationale.push_back(note.str());
  }

  // Emit DDL for tables whose layout changes — or whose cost-derived
  // encodings differ from the codecs the store currently has (or would
  // pick), so encoding-only recommendations stay actionable. Budget mode
  // records the constraint in a WITH (MEMORY_BUDGET ...) clause.
  for (const auto& [name, ctx] : rec.layouts) {
    const LogicalTable* table = db_->catalog().GetTable(name);
    if (table == nullptr) continue;
    const TableStatistics* stats = db_->catalog().GetStatistics(name);
    if (table->layout() == ctx.layout &&
        !EncodingsDiffer(table->schema(), ctx, stats)) {
      continue;
    }
    rec.ddl.push_back(LayoutDdl(name, ctx, table->schema(), stats,
                                options_.encoding.memory_budget_bytes));
  }

  if (telemetry_on) {
    // The search phase keeps its `joint_search` label: dashboards and
    // perfbench's advise loop read it.
    observe_phase("joint_search", phase_sw.ElapsedMs());
    observe_phase("total", total_sw.ElapsedMs());
    reg.GetCounter("hsdb_advisor_searches_total",
                   "Full advisor recommendation searches run.")
        .Increment();
    reg.GetCounter("hsdb_advisor_evaluated_assignments_total",
                   "Workload cost evaluations performed by the "
                   "layout+encoding search (search effort).")
        .Increment(chosen.evaluated_assignments);
    reg.GetCounter("hsdb_advisor_budget_repair_iterations_total",
                   "Greedy budget-repair evictions across all searches.")
        .Increment(chosen.repair_iterations);
    if (chosen.hysteresis_applied) {
      reg.GetCounter("hsdb_advisor_hysteresis_rejections_total",
                     "Searches where the hysteresis rule kept the incumbent "
                     "design against a marginal challenger.")
          .Increment();
    }
  }
  return rec;
}

Status StorageAdvisor::Apply(const Recommendation& recommendation) {
  // The applied design is now the one solved for this profile — the
  // baseline the adaptation loop measures drift against.
  if (!recommendation.solved_for.empty()) {
    solved_profile_ = recommendation.solved_for;
  }
  for (const auto& [name, ctx] : recommendation.layouts) {
    // Only act on tables the recommendation actually changes — same
    // criterion as the DDL emission — so unchanged tables are not
    // rematerialized just to pin the codecs they already use.
    const LogicalTable* table = db_->catalog().GetTable(name);
    if (table == nullptr) continue;
    if (table->layout() == ctx.layout &&
        !EncodingsDiffer(table->schema(), ctx,
                         db_->catalog().GetStatistics(name))) {
      continue;
    }
    // The searched per-column codecs are applied with the layout: the
    // rebuild's bulk-load merge encodes every column-store piece with the
    // recommended codec instead of re-running the footprint-greedy picker.
    HSDB_RETURN_IF_ERROR(
        db_->MigrateShadow(name, ctx.layout, ctx.encodings).status());
  }
  return Status::OK();
}

}  // namespace hsdb
