// AdaptationController: the feedback loop closing the paper's online mode
// (Fig. 5 "periodically recompute adaptation recommendations"). Each epoch
// (an explicit Tick() for tests and embedders, or the optional background
// thread) it compares the recorder's live statistics against the profile
// the currently applied design was solved for (drift.h), re-runs the
// advisor's joint search only when the drift exceeds its thresholds, and
// converges toward a new recommendation through budgeted incremental
// migration steps (migration.h) instead of one all-tables Apply.
//
// Damping, in the dynamical-systems sense: the advisor's 2% hysteresis
// keeps cost-near-equal designs stable within a re-search; the controller's
// cool-down keeps the system from chasing alternating phases with a
// re-search per phase; and the drift thresholds keep sampling noise from
// triggering any of it.
#ifndef HSDB_ONLINE_CONTROLLER_H_
#define HSDB_ONLINE_CONTROLLER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.h"
#include "online/drift.h"
#include "online/migration.h"

namespace hsdb {

struct AdaptationOptions {
  /// Drift thresholds and component weights.
  DriftOptions drift;
  /// Epoch traffic below this is not judged at all (the tick reports kIdle
  /// and the window keeps accumulating).
  uint64_t min_epoch_queries = 64;
  /// Epochs to sit out after a re-search before the next one: with
  /// alternating workload phases this is the damping that keeps the
  /// controller from re-solving (and re-migrating) on every phase flip.
  int cooldown_epochs = 2;
  /// Migration steps the controller may execute per tick.
  size_t migration_steps_per_tick = 1;
  /// Estimated-cost budget (ms) for the steps of one tick; unset = only
  /// the step count bounds a tick. At least one pending step always runs,
  /// so a small budget stretches a migration over epochs without stalling.
  std::optional<double> migration_budget_ms;
  /// Background-thread tick period (Start()/Stop()).
  std::chrono::milliseconds tick_interval{1000};
  /// Adaptation-log entries retained (oldest dropped first).
  size_t max_log_entries = 1024;
};

enum class AdaptDecision {
  kIdle,                // not enough traffic this epoch
  kNoDrift,             // judged, below thresholds — no re-search
  kCooldown,            // drift seen but the cool-down suppressed it
  kResearchedNoChange,  // re-search kept the current design
  kAdapted,             // re-search produced a new design; migration begun
  kMigrationStep,       // spent the tick advancing an active migration
};

const char* AdaptDecisionName(AdaptDecision decision);

/// One line of the adaptation log: what the controller saw and did at one
/// epoch boundary.
struct AdaptationLogEntry {
  uint64_t epoch = 0;           // recorder epoch the tick judged
  uint64_t queries = 0;         // traffic in that epoch
  double global_drift = 0.0;    // query-weighted mean drift score
  double max_table_drift = 0.0;
  std::string max_table;
  AdaptDecision decision = AdaptDecision::kIdle;
  /// Filled on a re-search: estimated workload cost of the incumbent
  /// design vs. the re-search's recommendation, on the epoch's workload.
  double cost_before_ms = 0.0;
  double cost_after_ms = 0.0;
  size_t migration_steps_applied = 0;
  std::string detail;

  std::string ToString() const;
};

/// Drives drift detection, conditional re-search, and incremental
/// migration against one StorageAdvisor/Database pair. Tick() is
/// internally serialized; the background thread is optional and only calls
/// Tick().
///
/// Background mode is safe against live traffic: migration steps execute
/// as non-blocking shadow rebuilds (Database::MigrateShadow) — concurrent
/// Execute calls keep scanning the live version while a step builds, and
/// writers are latched out only for the short cut-over window. Drift
/// scoring and re-search read locked recorder snapshots and epoch-pinned
/// catalog statistics. docs/CONCURRENCY.md spells out the full protocol.
class AdaptationController {
 public:
  AdaptationController(StorageAdvisor* advisor, Database* db,
                       AdaptationOptions options);
  ~AdaptationController();

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  /// Runs one adaptation epoch; see the class comment for the loop. The
  /// epoch's decision is appended to the log and returned.
  AdaptationLogEntry Tick();

  /// Starts/stops the background thread (Tick every tick_interval).
  /// Thread-safe: Start/Stop/running may be called concurrently from any
  /// thread (idempotent; the winner of a Start/Start race spawns once).
  void Start();
  void Stop();
  bool running() const;

  // --- Introspection ------------------------------------------------------

  const AdaptationOptions& options() const { return options_; }
  /// Joint-search re-runs performed (bootstrap included).
  size_t researches() const;
  /// Re-searches whose recommendation changed the design (began migrating).
  size_t adaptations() const;
  /// Ticks performed.
  size_t ticks() const;
  /// Migration plans abandoned after repeated step failures.
  size_t abandons() const;
  /// Adaptation-log entries dropped by the max_log_entries bound (lifetime)
  /// — when this is non-zero, log() is a suffix of the history, not all of
  /// it.
  size_t log_dropped() const;
  /// The in-flight migration plan; nullptr when fully converged.
  const MigrationPlan* active_migration() const;
  std::vector<AdaptationLogEntry> log() const;
  std::string LogSummary() const;

 private:
  AdaptationLogEntry TickLocked();
  /// Estimated cost of the *current* catalog design on `workload`.
  double CurrentDesignCost(const std::vector<WeightedQuery>& workload) const;
  /// Mirrors the tick's outcome into the metrics registry.
  void RecordTickMetrics(const AdaptationLogEntry& entry, bool abandoned);

  StorageAdvisor* advisor_;
  Database* db_;
  AdaptationOptions options_;
  DriftDetector detector_;
  MigrationExecutor executor_;

  /// Ticks a failing migration step is retried before the plan is
  /// abandoned and drift detection resumes.
  static constexpr int kMaxMigrationFailures = 3;

  mutable std::mutex mu_;
  std::optional<MigrationPlan> migration_;
  int migration_failures_ = 0;
  int cooldown_ = 0;
  size_t researches_ = 0;
  size_t adaptations_ = 0;
  size_t ticks_ = 0;
  size_t abandons_ = 0;
  size_t log_dropped_ = 0;
  std::deque<AdaptationLogEntry> log_;

  /// Guards the thread object itself (Start/Stop/running lifecycle);
  /// distinct from stop_mu_ so Stop can hold it across the join while the
  /// worker still takes stop_mu_ for its interruptible sleep. The worker
  /// never takes thread_mu_, so this cannot deadlock.
  mutable std::mutex thread_mu_;
  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
};

}  // namespace hsdb

#endif  // HSDB_ONLINE_CONTROLLER_H_
