// Incremental migration executor — the actuation half of the online
// adaptation loop. A fresh recommendation may move several tables at once;
// applying it in one StorageAdvisor::Apply runs every rebuild back to back
// in one call. The executor instead turns the
// recommendation into an ordered plan of per-table steps (layout flip,
// re-encode, partition change), each carrying a split cost estimate —
// background build vs foreground cut-over — and a gain estimate
// (workload-cost improvement of applying just that step), ordered by gain
// per *cut-over* cost: since steps execute as non-blocking shadow rebuilds
// (Database::MigrateShadow), the build overlaps queries and only the short
// writer-latched cut-over is ever felt, so that is the denominator that
// reflects what queries experience. The AdaptationController then spends a
// bounded step/cost budget per epoch, converging a drifted system over
// several epochs to exactly the design a one-shot Apply would have
// produced — while serving.
#ifndef HSDB_ONLINE_MIGRATION_H_
#define HSDB_ONLINE_MIGRATION_H_

#include <optional>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "executor/database.h"

namespace hsdb {

enum class MigrationStepKind {
  kLayoutFlip,       // unpartitioned store change (RS <-> CS)
  kReencode,         // same layout, different per-column codecs
  kPartitionChange,  // partitioning added/removed/reshaped
};

const char* MigrationStepKindName(MigrationStepKind kind);

/// One per-table unit of migration work: move `table` to `target_layout`
/// with `encodings` pinned (the same arguments a direct MigrateShadow call
/// would take — a plan is a scheduled decomposition of
/// StorageAdvisor::Apply, not a different endpoint).
///
/// Steps execute as two phases (Database::MigrateShadow): a background
/// build that overlaps query execution, and a foreground cut-over that
/// briefly latches out writers. The cost estimate is split accordingly —
/// queries only ever feel the cut-over share, so that is what the plan
/// order weighs gains against.
struct MigrationStep {
  std::string table;
  MigrationStepKind kind = MigrationStepKind::kLayoutFlip;
  TableLayout target_layout;
  std::vector<Encoding> encodings;
  /// Estimated total work (ms) of executing the step — the sum of the two
  /// phase estimates below. This is the number the controller's per-epoch
  /// migration budget meters, since the background build still burns CPU
  /// the workload could have used.
  double estimated_cost_ms = 0.0;
  /// Background share: scanning the table out of its current layout plus
  /// re-inserting every row under the target. Runs concurrently with
  /// queries; no statement blocks on it.
  double estimated_build_ms = 0.0;
  /// Foreground share: the writer-latched cut-over (tail replay + pointer
  /// swap). The only part of the step concurrent statements can feel.
  double estimated_cutover_ms = 0.0;
  /// Estimated workload-cost improvement (ms) of applying this step alone
  /// on top of the current design (may be negative for steps that only pay
  /// off combined with others, e.g. budget-driven downgrades).
  double estimated_gain_ms = 0.0;
  /// Measured wall-clock time (ms) of the step's rebuild, filled by
  /// ExecuteSteps once the step has run. Negative = not executed yet.
  /// Together with estimated_cost_ms this is the rebuild-side
  /// observed-vs-predicted residual.
  double observed_cost_ms = -1.0;
  /// Measured writer-latch hold time (ms) of the step's cut-over window;
  /// negative = not executed.
  double observed_cutover_ms = -1.0;
  /// Write ops replayed onto the step's shadow copy (0 when no write raced
  /// the rebuild).
  uint64_t replayed_ops = 0;
  std::string description;
};

/// Ordered migration schedule. Steps execute front to back; `next_step`
/// marks progress, so a plan is resumable across epochs.
struct MigrationPlan {
  std::vector<MigrationStep> steps;
  size_t next_step = 0;
  double total_estimated_cost_ms = 0.0;

  bool Done() const { return next_step >= steps.size(); }
  size_t remaining() const { return steps.size() - next_step; }

  std::string Summary() const;
};

/// Plans and executes incremental migrations against a database. Stateless
/// between calls; the plan itself carries the progress cursor.
class MigrationExecutor {
 public:
  MigrationExecutor(Database* db, const CostModel* model)
      : db_(db), model_(model) {}

  /// Decomposes `rec` into per-table steps for every table whose current
  /// catalog layout or codecs differ from the recommendation (unchanged
  /// tables produce no step, matching Apply's no-op criterion). Gains are
  /// costed against rec.solved_workload — the weighted workload the
  /// recommendation itself was solved on; with an empty workload all gains
  /// are 0 and the order falls back to cheapest-first.
  MigrationPlan Plan(const Recommendation& rec) const;

  /// Outcome of one ExecuteSteps call: how many steps actually executed
  /// (tables really rebuilt — reported even when a later step failed) and
  /// the first failing step's error, OK otherwise.
  struct Progress {
    size_t executed = 0;
    Status status = Status::OK();
  };

  /// Executes up to `max_steps` pending steps of `plan`, stopping early
  /// when the next step would push the executed cost estimate past
  /// `budget_ms`. Always attempts at least one step when any is pending
  /// (guaranteed progress: a budget smaller than every step must not stall
  /// the plan forever). A failing step leaves the cursor on itself so the
  /// next call retries; steps executed before the failure stay counted in
  /// the returned Progress.
  Progress ExecuteSteps(MigrationPlan* plan, size_t max_steps,
                        std::optional<double> budget_ms = std::nullopt);

 private:
  /// Background-phase estimate: full-width scan out of the current store
  /// plus per-row insert into the target.
  double RebuildCostMs(const LogicalTable& table,
                       const LayoutContext& target) const;
  /// Foreground-phase estimate: the bounded cut-over window (tail replay
  /// allowance + swap bookkeeping) — deliberately independent of table
  /// size, which is the whole point of the two-phase step.
  double CutoverCostMs(const LayoutContext& target) const;

  Database* db_;
  const CostModel* model_;
};

}  // namespace hsdb

#endif  // HSDB_ONLINE_MIGRATION_H_
