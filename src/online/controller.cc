#include "online/controller.h"

#include <algorithm>
#include <sstream>

#include "core/workload_cost.h"
#include "telemetry/metrics.h"

namespace hsdb {

const char* AdaptDecisionName(AdaptDecision decision) {
  switch (decision) {
    case AdaptDecision::kIdle:
      return "idle";
    case AdaptDecision::kNoDrift:
      return "no drift";
    case AdaptDecision::kCooldown:
      return "cool-down";
    case AdaptDecision::kResearchedNoChange:
      return "re-searched, design kept";
    case AdaptDecision::kAdapted:
      return "adapted";
    case AdaptDecision::kMigrationStep:
      return "migration step";
  }
  return "?";
}

std::string AdaptationLogEntry::ToString() const {
  std::ostringstream os;
  os << "epoch " << epoch << " (" << queries << " q): "
     << AdaptDecisionName(decision) << ", drift " << global_drift;
  if (!max_table.empty()) {
    os << " (max " << max_table << " " << max_table_drift << ")";
  }
  if (decision == AdaptDecision::kAdapted ||
      decision == AdaptDecision::kResearchedNoChange) {
    os << ", cost " << cost_before_ms << " -> " << cost_after_ms << " ms";
  }
  if (migration_steps_applied > 0) {
    os << ", " << migration_steps_applied << " migration step(s)";
  }
  if (!detail.empty()) os << " [" << detail << "]";
  return os.str();
}

AdaptationController::AdaptationController(StorageAdvisor* advisor,
                                           Database* db,
                                           AdaptationOptions options)
    : advisor_(advisor),
      db_(db),
      options_(options),
      executor_(db, &advisor->cost_model()) {}

AdaptationController::~AdaptationController() { Stop(); }

double AdaptationController::CurrentDesignCost(
    const std::vector<WeightedQuery>& workload) const {
  // Runs on the controller thread against live traffic: hold reader locks
  // on every table the estimator will read (same protocol as
  // MigrationExecutor::Plan; see docs/CONCURRENCY.md).
  std::vector<std::string> involved;
  for (const WeightedQuery& wq : workload) {
    for (std::string& name : TablesOf(wq.query)) {
      involved.push_back(std::move(name));
    }
  }
  CatalogReadLock read_lock(db_->catalog(), std::move(involved));
  WorkloadCostEstimator estimator(&advisor_->cost_model(), &db_->catalog());
  return estimator.WorkloadCost(workload, [&](const std::string& name) {
    const LogicalTable* table = db_->catalog().GetTable(name);
    if (table == nullptr) return LayoutContext{};
    return CurrentLayoutContext(*table, db_->catalog().GetStatistics(name));
  });
}

AdaptationLogEntry AdaptationController::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  return TickLocked();
}

AdaptationLogEntry AdaptationController::TickLocked() {
  WorkloadRecorder* recorder = advisor_->recorder();
  const size_t abandons_before = abandons_;
  AdaptationLogEntry e;
  e.epoch = recorder->epoch();
  e.queries = recorder->epoch_seen_queries();

  if (migration_.has_value() && !migration_->Done()) {
    // Converging toward an already-chosen design takes priority over
    // judging new drift: the window keeps describing a system in motion,
    // so re-solving on it would chase a moving target.
    MigrationExecutor::Progress progress =
        executor_.ExecuteSteps(&*migration_, options_.migration_steps_per_tick);
    e.decision = AdaptDecision::kMigrationStep;
    e.migration_steps_applied = progress.executed;
    std::ostringstream detail;
    detail << migration_->next_step << "/" << migration_->steps.size()
           << " steps done";
    if (progress.status.ok()) {
      migration_failures_ = 0;
      recorder->BeginEpoch();
    } else {
      // A failing step must not wedge the loop: retry a few ticks, then
      // abandon the plan so drift detection resumes (the next re-search
      // plans from the catalog as it actually is). The window is left
      // accumulating — failed ticks produce no design change to observe.
      ++migration_failures_;
      detail << "; step failed (" << migration_failures_ << "/"
             << kMaxMigrationFailures
             << "): " << progress.status.ToString();
      if (migration_failures_ >= kMaxMigrationFailures) {
        detail << "; plan abandoned";
        migration_.reset();
        migration_failures_ = 0;
        ++abandons_;
      }
    }
    e.detail = detail.str();
    if (migration_.has_value() && migration_->Done()) migration_.reset();
  } else if (e.queries < options_.min_epoch_queries) {
    // Too little evidence; let the window keep accumulating.
    e.decision = AdaptDecision::kIdle;
  } else {
    bool research = false;
    if (!advisor_->solved_profile().has_value()) {
      // No design has been solved on this advisor yet (auto-adapt started
      // on a hand-built layout): bootstrap with a first search.
      research = true;
      e.global_drift = 1.0;
      e.detail = "bootstrap (no solved-for profile)";
    } else {
      const WorkloadProfile live =
          WorkloadProfile::Snapshot(recorder->SnapshotStatistics());
      const DriftReport report =
          detector_.Compare(*advisor_->solved_profile(), live);
      e.global_drift = report.global_score;
      e.max_table_drift = report.max_table_score;
      e.max_table = report.max_table;
      if (!report.exceeded) {
        e.decision = AdaptDecision::kNoDrift;
        if (cooldown_ > 0) --cooldown_;
        recorder->BeginEpoch();
      } else if (cooldown_ > 0) {
        --cooldown_;
        e.decision = AdaptDecision::kCooldown;
        recorder->BeginEpoch();
      } else {
        research = true;
      }
    }
    if (research) {
      // RecommendOnline snapshots + rolls the epoch itself and refreshes
      // the touched tables' catalog statistics — the atomic per-epoch
      // re-search.
      Result<Recommendation> rec = advisor_->RecommendOnline();
      if (!rec.ok()) {
        // No search actually ran: charge neither the re-search counter nor
        // the cool-down, so genuine drift is judged again next epoch.
        e.decision = AdaptDecision::kIdle;
        e.detail = "re-search failed: " + rec.status().ToString();
      } else {
        ++researches_;
        cooldown_ = options_.cooldown_epochs;
        e.cost_before_ms = CurrentDesignCost(rec->solved_workload);
        e.cost_after_ms = rec->estimated_cost_ms;
        // Whether the design changes or not, it is now the design solved
        // for this profile — drift is measured from here on.
        advisor_->set_solved_profile(rec->solved_for);
        if (rec->ddl.empty()) {
          e.decision = AdaptDecision::kResearchedNoChange;
        } else {
          ++adaptations_;
          MigrationPlan plan = executor_.Plan(*rec);
          std::ostringstream detail;
          detail << plan.steps.size() << "-step migration";
          MigrationExecutor::Progress progress = executor_.ExecuteSteps(
              &plan, options_.migration_steps_per_tick);
          e.migration_steps_applied = progress.executed;
          if (!progress.status.ok()) {
            detail << "; step failed: " << progress.status.ToString();
          }
          e.decision = AdaptDecision::kAdapted;
          e.detail = detail.str();
          if (!plan.Done()) migration_ = std::move(plan);
        }
      }
    }
  }

  ++ticks_;
  log_.push_back(e);
  while (log_.size() > options_.max_log_entries) {
    log_.pop_front();
    ++log_dropped_;
  }
  RecordTickMetrics(e, abandons_ > abandons_before);
  return e;
}

void AdaptationController::RecordTickMetrics(const AdaptationLogEntry& entry,
                                             bool abandoned) {
  telemetry::MetricsRegistry& reg = db_->metrics();
  if (!telemetry::kCompiledIn || !reg.enabled()) return;
  reg.GetCounter("hsdb_adapt_ticks_total",
                 "Adaptation controller ticks, by decision.",
                 {{"decision", AdaptDecisionName(entry.decision)}})
      .Increment();
  reg.GetGauge("hsdb_adapt_drift_score",
               "Query-weighted mean drift score at the last judged tick.")
      .Set(entry.global_drift);
  if (entry.decision == AdaptDecision::kResearchedNoChange ||
      entry.decision == AdaptDecision::kAdapted) {
    reg.GetCounter("hsdb_adapt_researches_total",
                   "Joint-search re-runs the controller triggered.")
        .Increment();
  }
  if (entry.decision == AdaptDecision::kAdapted) {
    reg.GetCounter("hsdb_adapt_adaptations_total",
                   "Re-searches that changed the design and began migrating.")
        .Increment();
  }
  if (entry.migration_steps_applied > 0) {
    reg.GetCounter("hsdb_adapt_migration_steps_total",
                   "Migration steps executed by the controller.")
        .Increment(entry.migration_steps_applied);
  }
  if (abandoned) {
    reg.GetCounter("hsdb_adapt_migration_abandons_total",
                   "Migration plans abandoned after repeated step failures.")
        .Increment();
  }
  if (log_dropped_ > 0) {
    reg.GetGauge("hsdb_adapt_log_dropped",
                 "Adaptation-log entries dropped by the retention bound "
                 "(lifetime).")
        .Set(static_cast<double>(log_dropped_));
  }
}

void AdaptationController::Start() {
  std::lock_guard<std::mutex> thread_lock(thread_mu_);
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(stop_mu_);
    while (!stop_) {
      if (stop_cv_.wait_for(lock, options_.tick_interval,
                            [this] { return stop_; })) {
        break;
      }
      lock.unlock();
      Tick();
      lock.lock();
    }
  });
}

void AdaptationController::Stop() {
  std::lock_guard<std::mutex> thread_lock(thread_mu_);
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  thread_ = std::thread();
}

bool AdaptationController::running() const {
  std::lock_guard<std::mutex> thread_lock(thread_mu_);
  return thread_.joinable();
}

size_t AdaptationController::researches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return researches_;
}

size_t AdaptationController::adaptations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return adaptations_;
}

size_t AdaptationController::ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

size_t AdaptationController::abandons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return abandons_;
}

size_t AdaptationController::log_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_dropped_;
}

const MigrationPlan* AdaptationController::active_migration() const {
  std::lock_guard<std::mutex> lock(mu_);
  return migration_.has_value() ? &*migration_ : nullptr;
}

std::vector<AdaptationLogEntry> AdaptationController::log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<AdaptationLogEntry>(log_.begin(), log_.end());
}

std::string AdaptationController::LogSummary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "adaptation log: " << ticks_ << " tick(s), " << researches_
     << " re-search(es), " << adaptations_ << " adaptation(s)";
  if (log_dropped_ > 0) {
    os << " (" << log_dropped_ << " oldest entr"
       << (log_dropped_ == 1 ? "y" : "ies") << " dropped)";
  }
  for (const AdaptationLogEntry& e : log_) os << "\n  " << e.ToString();
  return os.str();
}

}  // namespace hsdb
