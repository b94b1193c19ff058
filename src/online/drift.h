// Workload-profile snapshots and drift detection — the sensing half of the
// online adaptation loop (paper §4, Fig. 5: "record extended statistics
// while the system runs, periodically recompute adaptation
// recommendations"). A WorkloadProfile freezes the recorder's extended
// statistics in normalized form (per-table query-mix fractions, per-column
// usage vectors, update-key histogram densities); the advisor stamps every
// recommendation with the profile it was solved for, and the DriftDetector
// compares that snapshot against live statistics with bounded divergence
// scores, so the AdaptationController re-runs the (expensive) joint search
// only when the workload genuinely moved.
//
// All divergences are total-variation style distances in [0, 1]:
//   - query-mix drift: normalized L1 over the per-table fraction vector
//     (insert/update/delete/point/range/aggregation shares),
//   - column-usage drift: normalized L1 over the per-column usage shares
//     (updates + aggregates + group-bys + filters + projections),
//   - update-key drift: histogram distance between the update-key densities,
//     resampled onto a common grid so snapshots with different key domains
//     stay comparable, and shrunk toward 0 on small samples so sketch noise
//     does not register as drift.
#ifndef HSDB_ONLINE_DRIFT_H_
#define HSDB_ONLINE_DRIFT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload/recorder.h"

namespace hsdb {

/// Normalized workload shape of one table, as frozen by a profile snapshot.
struct TableProfile {
  /// Queries that touched the table in the snapshot window.
  uint64_t queries = 0;

  /// Query-mix fractions over `queries` (they sum to 1 for a non-empty
  /// window: every recorded query increments exactly one class per table).
  double insert_fraction = 0.0;
  double update_fraction = 0.0;
  double delete_fraction = 0.0;
  double point_select_fraction = 0.0;
  double range_select_fraction = 0.0;
  double olap_fraction = 0.0;  // aggregation queries

  /// Share of each column in the table's total column usage
  /// (updates + aggregate uses + group-bys + filters + projections);
  /// sums to 1 when any column was used, empty otherwise.
  std::vector<double> column_usage;

  /// Update-key histogram shape: per-bucket densities (sum 1) over the
  /// domain [update_key_lo, update_key_hi), plus the sample count the
  /// densities were estimated from.
  std::vector<double> update_key_density;
  int64_t update_key_lo = 0;
  int64_t update_key_hi = 1;
  uint64_t update_key_samples = 0;

  /// The six query-mix fractions as a distribution vector.
  std::vector<double> MixVector() const;
};

/// Immutable snapshot of the recorder's extended statistics, in normalized
/// (count-free) form so windows of different lengths compare directly.
struct WorkloadProfile {
  uint64_t total_queries = 0;
  double olap_fraction = 0.0;
  std::map<std::string, TableProfile> tables;

  bool empty() const { return total_queries == 0; }

  const TableProfile* table(const std::string& name) const;

  /// Freezes the current state of `stats`.
  static WorkloadProfile Snapshot(const WorkloadStatistics& stats);

  std::string Summary() const;
};

/// Per-table divergence components and combined score, all in [0, 1].
struct TableDrift {
  double mix = 0.0;          // query-mix fraction-vector L1 (normalized)
  double columns = 0.0;      // column-usage share L1 (normalized)
  double update_keys = 0.0;  // update-key histogram distance
  double score = 0.0;        // weighted combination
  bool exceeded = false;
};

struct DriftReport {
  std::map<std::string, TableDrift> tables;
  /// Live-query-weighted mean of the per-table scores.
  double global_score = 0.0;
  double max_table_score = 0.0;
  std::string max_table;
  /// True when any table or the global score crossed its threshold (or when
  /// there is no solved-for baseline at all).
  bool exceeded = false;

  std::string Summary() const;
};

/// Compares a solved-for profile against live statistics. Stateless; the
/// component weights and thresholds are constants in drift.cc.
class DriftDetector {
 public:
  /// Scores the drift of `live` relative to `solved_for`. Tables without
  /// enough live traffic are skipped; a table with live traffic but no
  /// snapshot presence scores maximal drift (the design never saw it).
  DriftReport Compare(const WorkloadProfile& solved_for,
                      const WorkloadProfile& live) const;
};

/// Total-variation distance 0.5·Σ|a_i − b_i| between two nonnegative
/// vectors, padded with zeros to equal length. For two distributions the
/// result is in [0, 1]. Exposed for tests.
double TotalVariation(const std::vector<double>& a,
                      const std::vector<double>& b);

/// Update-key histogram distance between two table profiles: both densities
/// are resampled onto a common equi-width grid spanning the union of their
/// domains, compared by total variation, and shrunk toward 0 on small
/// samples: 0 when either side has fewer than `min_update_samples` samples,
/// else scaled by n/(n + 2·min_update_samples) with n the smaller sample.
/// Exposed for tests.
double UpdateKeyDivergence(const TableProfile& a, const TableProfile& b,
                           uint64_t min_update_samples);

}  // namespace hsdb

#endif  // HSDB_ONLINE_DRIFT_H_
