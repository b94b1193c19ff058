#include "online/migration.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/stopwatch.h"
#include "core/workload_cost.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace hsdb {

const char* MigrationStepKindName(MigrationStepKind kind) {
  switch (kind) {
    case MigrationStepKind::kLayoutFlip:
      return "layout flip";
    case MigrationStepKind::kReencode:
      return "re-encode";
    case MigrationStepKind::kPartitionChange:
      return "partition change";
  }
  return "?";
}

std::string MigrationPlan::Summary() const {
  std::ostringstream os;
  os << steps.size() << " step(s), " << next_step << " done, est. total "
     << total_estimated_cost_ms << " ms";
  for (size_t i = 0; i < steps.size(); ++i) {
    const MigrationStep& s = steps[i];
    os << "\n  " << (i < next_step ? "[done] " : "[todo] ") << s.table
       << ": " << MigrationStepKindName(s.kind) << " -> "
       << s.target_layout.ToString() << " (build " << s.estimated_build_ms
       << " ms + cutover " << s.estimated_cutover_ms << " ms, gain "
       << s.estimated_gain_ms << " ms)";
  }
  return os.str();
}

double MigrationExecutor::RebuildCostMs(const LogicalTable& table,
                                        const LayoutContext& target) const {
  const double rows = static_cast<double>(table.row_count());
  if (rows == 0.0) return 0.0;
  const StoreType from = table.layout().base_store;
  const StoreType to = target.layout.base_store;
  // Rebuild = full-width scan out of the current store + per-row insert
  // into the target store (uniqueness verification and, for column-store
  // targets, the bulk-load merge's re-encode are in the insert term).
  const double scan = model_->SelectCost(
      from, table.schema().num_columns(), /*selectivity=*/1.0,
      /*indexed=*/false, rows);
  return scan + rows * model_->InsertCost(to, rows);
}

double MigrationExecutor::CutoverCostMs(const LayoutContext& target) const {
  // The cut-over drains the op-log tail and swaps a catalog pointer. The
  // tail is bounded by the catch-up replay rounds the build already ran —
  // a fixed per-table row allowance prices it; the swap itself is pointer
  // bookkeeping. Crucially this does NOT scale with table size: a 10M-row
  // flip and a 10k-row flip block writers for about the same window.
  constexpr double kSwapBookkeepingMs = 0.05;
  constexpr double kTailRowAllowance = 64.0;
  return kSwapBookkeepingMs +
         kTailRowAllowance *
             model_->InsertCost(target.layout.base_store, kTailRowAllowance);
}

MigrationPlan MigrationExecutor::Plan(const Recommendation& rec) const {
  MigrationPlan plan;
  const Catalog& catalog = db_->catalog();

  // Planning runs on the controller thread while client DML is live: pin
  // the epoch (GetTable/GetStatistics pointers stay valid) and hold every
  // involved table's reader lock (row_count and the estimator's table
  // facts read mutable state).
  std::vector<std::string> involved;
  for (const auto& [name, ctx] : rec.layouts) involved.push_back(name);
  for (const WeightedQuery& wq : rec.solved_workload) {
    for (std::string& name : TablesOf(wq.query)) {
      involved.push_back(std::move(name));
    }
  }
  CatalogReadLock read_lock(catalog, std::move(involved));

  // Current design: the estimator's baseline every step's gain is measured
  // against.
  auto current_ctx = [&](const std::string& name) {
    const LogicalTable* table = catalog.GetTable(name);
    if (table == nullptr) return LayoutContext{};
    return CurrentLayoutContext(*table, catalog.GetStatistics(name));
  };

  WorkloadCostEstimator estimator(model_, &catalog);
  const bool have_workload = !rec.solved_workload.empty();
  const double baseline_cost =
      have_workload ? estimator.WorkloadCost(rec.solved_workload, current_ctx)
                    : 0.0;

  for (const auto& [name, ctx] : rec.layouts) {
    const LogicalTable* table = catalog.GetTable(name);
    if (table == nullptr) continue;
    if (!DesignChanges(*table, ctx, catalog.GetStatistics(name))) continue;
    const bool layout_changed = !(table->layout() == ctx.layout);
    MigrationStep step;
    step.table = name;
    step.target_layout = ctx.layout;
    step.encodings = ctx.encodings;
    if (!layout_changed) {
      step.kind = MigrationStepKind::kReencode;
    } else if (ctx.layout.IsPartitioned() || table->layout().IsPartitioned()) {
      step.kind = MigrationStepKind::kPartitionChange;
    } else {
      step.kind = MigrationStepKind::kLayoutFlip;
    }
    step.estimated_build_ms = RebuildCostMs(*table, ctx);
    step.estimated_cutover_ms = CutoverCostMs(ctx);
    step.estimated_cost_ms = step.estimated_build_ms + step.estimated_cutover_ms;
    if (have_workload) {
      // Gain of this step alone: flip just this table to its target on top
      // of the otherwise-current design.
      const double with_step = estimator.WorkloadCost(
          rec.solved_workload, [&](const std::string& n) {
            return n == name ? ctx : current_ctx(n);
          });
      step.estimated_gain_ms = baseline_cost - with_step;
    }
    std::ostringstream desc;
    desc << name << ": " << MigrationStepKindName(step.kind) << " "
         << table->layout().ToString() << " -> " << ctx.layout.ToString();
    step.description = desc.str();
    plan.total_estimated_cost_ms += step.estimated_cost_ms;
    plan.steps.push_back(std::move(step));
  }

  // Most valuable work first: gain per unit of *cut-over* cost — the only
  // share concurrent statements can feel now that builds run in the
  // background. Cheapest total work first among equals (and as the whole
  // order when no workload was attached).
  std::stable_sort(plan.steps.begin(), plan.steps.end(),
                   [](const MigrationStep& a, const MigrationStep& b) {
                     const double ra =
                         a.estimated_gain_ms /
                         std::max(1e-9, a.estimated_cutover_ms);
                     const double rb =
                         b.estimated_gain_ms /
                         std::max(1e-9, b.estimated_cutover_ms);
                     if (ra != rb) return ra > rb;
                     return a.estimated_cost_ms < b.estimated_cost_ms;
                   });
  return plan;
}

MigrationExecutor::Progress MigrationExecutor::ExecuteSteps(
    MigrationPlan* plan, size_t max_steps, std::optional<double> budget_ms) {
  Progress progress;
  telemetry::MetricsRegistry& reg = db_->metrics();
  const bool telemetry_on = telemetry::kCompiledIn && reg.enabled();
  double spent_ms = 0.0;
  while (!plan->Done() && progress.executed < max_steps) {
    MigrationStep& step = plan->steps[plan->next_step];
    if (progress.executed > 0 && budget_ms.has_value() &&
        spent_ms + step.estimated_cost_ms > *budget_ms) {
      break;  // next step would blow the epoch's budget; resume next epoch
    }
    Stopwatch sw;
    {
      // Two-phase execution: the build overlaps concurrent queries, only
      // the cut-over (observed_cutover_ms) latches writers out. The
      // migration_build/migration_swap child spans come from MigrateShadow.
      telemetry::ScopedSpan span("migration_step");
      Result<ShadowMigrationStats> migrated =
          db_->MigrateShadow(step.table, step.target_layout, step.encodings);
      if (migrated.ok()) {
        progress.status = Status::OK();
        step.observed_cutover_ms = migrated.value().cutover_ms;
        step.replayed_ops = migrated.value().replayed_ops;
      } else {
        progress.status = migrated.status();
      }
    }
    if (!progress.status.ok()) {
      if (telemetry_on) {
        reg.GetCounter("hsdb_migration_step_failures_total",
                       "Migration steps that failed to apply.")
            .Increment();
      }
      break;  // cursor stays on the failing step
    }
    step.observed_cost_ms = sw.ElapsedMs();
    if (telemetry_on) {
      reg.GetCounter("hsdb_migration_steps_total",
                     "Migration steps executed, by step kind.",
                     {{"kind", MigrationStepKindName(step.kind)}})
          .Increment();
      reg.GetHistogram("hsdb_migration_step_ms",
                       "Wall-clock rebuild time of one migration step (ms).")
          .Observe(step.observed_cost_ms);
      // Rebuild-side observed-vs-predicted residual, same shape as the
      // query-side hsdb_cost_abs_rel_error.
      if (step.observed_cost_ms > 0.0 && step.estimated_cost_ms >= 0.0) {
        reg.GetHistogram(
               "hsdb_migration_cost_abs_rel_error",
               "Absolute relative error |observed-predicted|/observed of "
               "the migration rebuild-cost estimate, per step.",
               {}, /*min_bound=*/1e-4)
            .Observe(std::abs(step.observed_cost_ms -
                              step.estimated_cost_ms) /
                     step.observed_cost_ms);
      }
    }
    spent_ms += step.estimated_cost_ms;
    ++plan->next_step;
    ++progress.executed;
  }
  return progress;
}

}  // namespace hsdb
