// StorageAdvisor: the tool the paper contributes. Wraps the full
// recommendation process of Fig. 5:
//
//   initialize cost model (calibration probes)
//     -> offline mode: initial recommendation from an expected/recorded
//        workload
//     -> online mode: record extended statistics while the system runs,
//        periodically recompute adaptation recommendations
//
// Recommendations report the estimated costs of RS-only / CS-only /
// table-level / partitioned layouts, carry executable layout changes and
// pseudo-DDL for the administrator, and can be applied to the database.
#ifndef HSDB_CORE_ADVISOR_H_
#define HSDB_CORE_ADVISOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/calibration.h"
#include "core/encoding_search.h"
#include "core/partition_advisor.h"
#include "core/probe_runner.h"
#include "core/table_advisor.h"
#include "online/drift.h"
#include "workload/recorder.h"

namespace hsdb {

class AdaptationController;
struct AdaptationOptions;

struct AdvisorOptions {
  /// Probe-suite configuration for InitializeCostModel (reference rows,
  /// sweep points, whether to run the per-codec microprobes).
  CalibrationOptions calibration;
  /// Search strategy of the table-level RS/CS assignment (exhaustive vs
  /// hill climbing, join handling).
  TableAdvisor::Options table_options;
  /// Horizontal/vertical split enumeration limits and validation.
  PartitionAdvisor::Options partition_options;
  /// Layout x per-column encoding search over the staged pick, the plain
  /// single-store layouts, the PartitionAdvisor's heuristic splits and the
  /// current layout: exact fallback threshold, hysteresis and — the user
  /// knob — encoding.memory_budget_bytes, the one shared memory budget for
  /// encoded column-store segments. A binding budget can flip a table's
  /// layout (row store, narrower hybrid split) instead of only downgrading
  /// codecs. Recommendations under a budget emit a WITH (MEMORY_BUDGET ...)
  /// DDL clause and cost-derived ENCODING (...) assignments.
  EncodingSearchOptions encoding;
  /// Raw queries retained by the online recorder (reservoir sample).
  size_t recorder_sample = 4096;
  /// Counters of the online recorder's per-table hot-update-key sketch
  /// (SpaceSaving capacity): any key updated more than 1/capacity of the
  /// time is guaranteed tracked. Larger = finer hot-set resolution at a
  /// little more recording memory.
  size_t recorder_hot_keys = 64;
  /// Expected shared-scan batch width when queries arrive through the
  /// serving front-end (SocketServer + BatchExecutor): how many compatible
  /// queries co-run on one decode pass, i.e. CostModel::set_batch_width.
  /// Server deployments mirror their measured hsdb_server_batch_width
  /// here so the advisor weighs layouts by the amortized per-query cost a
  /// co-running client actually pays. 1 (the default) costs every query
  /// stand-alone — the right setting for embedded/library use.
  int batch_width = 1;
};

struct Recommendation {
  /// Chosen layout per table (with locality context for the estimator;
  /// LayoutContext::encodings carries the cost-derived per-column codecs
  /// the encoding search selected).
  std::map<std::string, LayoutContext> layouts;
  /// Table-level assignment (before partitioning), for comparison.
  std::map<std::string, StoreType> table_level_assignment;

  /// Estimated workload cost (ms) of the recommended design and of the
  /// comparison baselines the paper reports: everything in the row store,
  /// everything in the column store, and the table-level (unpartitioned)
  /// assignment.
  double estimated_cost_ms = 0.0;
  double rs_only_cost_ms = 0.0;
  double cs_only_cost_ms = 0.0;
  double table_level_cost_ms = 0.0;

  /// Encoding-search outcome: estimated footprint of the chosen encodings,
  /// the workload cost the picker's heuristic assignment would have had,
  /// the budget (echoed from AdvisorOptions) and whether it was met.
  double encoding_footprint_bytes = 0.0;
  double encoding_picker_cost_ms = 0.0;
  std::optional<double> memory_budget_bytes;
  bool encoding_budget_feasible = true;

  /// The search's baseline, the staged layout-then-encoding pipeline: its
  /// cost and whether its footprint meets the budget (the recommendation
  /// never exceeds that cost when the staged design is budget-feasible),
  /// and the per-table encoded footprint the chosen design charges against
  /// the budget (budget attribution).
  double sequential_cost_ms = 0.0;
  bool sequential_budget_feasible = true;
  std::map<std::string, double> encoding_footprint_by_table;

  /// Pseudo-DDL statements realizing the recommendation.
  std::vector<std::string> ddl;
  /// Per-table reasoning.
  std::vector<std::string> rationale;

  /// The workload profile this recommendation was solved for (normalized
  /// snapshot of the statistics that drove the search). The online
  /// adaptation loop compares live statistics against it to decide when a
  /// re-search is due (src/online/drift.h).
  WorkloadProfile solved_for;
  /// Recorder epoch the online mode snapshotted (0 for offline mode).
  uint64_t solved_epoch = 0;
  /// The weighted workload the recommendation was costed on — the
  /// migration planner re-uses it to order steps by workload-cost gain.
  std::vector<WeightedQuery> solved_workload;

  /// Human-readable report: costs, per-table DDL + rationale, encoding
  /// footprints and budget attribution.
  std::string Summary() const;
};

/// The end-to-end advisor tool; see the class comment at the top of this
/// header and docs/ARCHITECTURE.md §3 for the pipeline it wraps.
class StorageAdvisor {
 public:
  /// Advises `db` (not owned; must outlive the advisor) with defaults.
  explicit StorageAdvisor(Database* db) : StorageAdvisor(db, AdvisorOptions{}) {}
  StorageAdvisor(Database* db, AdvisorOptions options);
  ~StorageAdvisor();

  // --- Fig. 5, step 1: initialize the cost model -------------------------

  /// Calibrates against the bundled engine with scratch probe tables.
  CalibrationReport InitializeCostModel();
  /// Calibrates through an injected runner (tests, custom engines).
  CalibrationReport InitializeCostModel(ProbeRunner& runner);
  /// Skips calibration and installs parameters directly.
  void SetCostModelParams(CostModelParams params);
  const CostModel& cost_model() const { return *model_; }

  // --- Offline mode -------------------------------------------------------

  /// Recommendation from an expected or recorded workload. Table statistics
  /// are refreshed for every touched table that has none.
  Result<Recommendation> RecommendOffline(const std::vector<Query>& workload);
  Result<Recommendation> RecommendOffline(
      const std::vector<WeightedQuery>& workload);

  // --- Online mode ----------------------------------------------------------

  /// Attaches the extended-statistics recorder to the database.
  void StartRecording();
  void StopRecording();
  WorkloadRecorder* recorder() { return recorder_.get(); }

  /// Recommendation from the statistics and query sample recorded in the
  /// current epoch (since StartRecording()/the last epoch rollover).
  /// The epoch is consumed atomically: the recorded profile and sample are
  /// snapshotted, the recorder rolls to the next epoch, and the catalog
  /// statistics of every touched table are refreshed before the search — a
  /// re-search never mixes the workload profile of one epoch with the data
  /// statistics of another. FailedPrecondition when not recording or when
  /// the current epoch is empty.
  Result<Recommendation> RecommendOnline();

  // --- Online adaptation (src/online/) --------------------------------------

  /// Starts the epoch-driven adaptation loop: attaches the recorder (as
  /// StartRecording) if needed and creates the AdaptationController that
  /// re-runs the joint search when recorded statistics drift from the
  /// profile the applied design was solved for, migrating incrementally.
  /// Call controller->Tick() per epoch (or controller->Start() for the
  /// background thread). Replaces any previous controller.
  AdaptationController& StartAutoAdapt(const AdaptationOptions& options);
  AdaptationController& StartAutoAdapt();
  /// The active controller; nullptr before StartAutoAdapt/after Stop.
  AdaptationController* auto_adapt() { return controller_.get(); }
  /// Destroys the controller (joining its background thread if running);
  /// recording continues.
  void StopAutoAdapt();

  /// The profile the currently *applied* design was solved for: stamped by
  /// Apply() from the applied recommendation, re-stamped by the controller
  /// when a re-search validates the design for a new profile. Empty until
  /// a recommendation with a profile is applied.
  const std::optional<WorkloadProfile>& solved_profile() const {
    return solved_profile_;
  }
  void set_solved_profile(WorkloadProfile profile) {
    solved_profile_ = std::move(profile);
  }

  // --- Applying recommendations -------------------------------------------

  /// Executes the layout changes against the database (the "ask the storage
  /// advisor to apply the recommended storage layout" path in §4): one
  /// Database::MigrateShadow per changed table, so writers stall only for
  /// each table's cut-over, never for a whole rebuild.
  Status Apply(const Recommendation& recommendation);

 private:
  Result<Recommendation> Recommend(
      const std::vector<WeightedQuery>& workload,
      const WorkloadStatistics& stats);
  /// Statistics for every touched table: with `refresh` false only tables
  /// that were never analyzed are profiled (offline mode); with true every
  /// touched table is re-analyzed (memoized on data_version — the online
  /// mode's per-epoch refresh).
  Status EnsureStatistics(const std::vector<WeightedQuery>& workload,
                          bool refresh = false);

  Database* db_;
  AdvisorOptions options_;
  std::unique_ptr<CostModel> model_;
  std::unique_ptr<WorkloadRecorder> recorder_;
  std::unique_ptr<AdaptationController> controller_;
  std::optional<WorkloadProfile> solved_profile_;
  bool recording_ = false;
};

}  // namespace hsdb

#endif  // HSDB_CORE_ADVISOR_H_
