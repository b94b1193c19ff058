// Cost-model calibration (paper §4, Fig. 5 "Initialize cost model"): runs
// representative probe queries against the engine, measures them, and fits
// the base costs and adjustment functions of CostModelParams. The probe
// execution is behind the ProbeRunner interface so fitting logic is unit-
// testable with a deterministic fake.
#ifndef HSDB_CORE_CALIBRATION_H_
#define HSDB_CORE_CALIBRATION_H_

#include <string>
#include <vector>

#include "core/cost_model.h"

namespace hsdb {

/// One probe measurement: median wall time plus the observed column-store
/// compression rate of the probed table (1.0 for row-store probes).
struct ProbeResult {
  double ms = 0.0;
  double compression_rate = 1.0;
};

/// Executes calibration probes. The engine-backed implementation lives in
/// core/probe_runner.h; tests inject closed-form fakes.
class ProbeRunner {
 public:
  virtual ~ProbeRunner() = default;

  /// Aggregation of `fn` over a column of `type`; `distinct` bounds the
  /// aggregated column's distinct values (0 = all distinct) — the knob that
  /// sweeps the compression rate.
  virtual ProbeResult MeasureAggregation(StoreType store, AggFn fn,
                                         DataType type, bool grouped,
                                         bool filtered, size_t rows,
                                         uint64_t distinct) = 0;

  /// Range select of `selected_columns` columns at `selectivity`;
  /// `use_index` controls whether the row store may use a sorted index.
  virtual ProbeResult MeasureSelect(StoreType store, size_t selected_columns,
                                    double selectivity, bool use_index,
                                    size_t rows) = 0;

  /// Primary-key point lookup retrieving one column.
  virtual ProbeResult MeasurePointSelect(StoreType store, size_t rows) = 0;

  /// Per-statement cost of inserting into a table of `rows` rows.
  virtual ProbeResult MeasureInsert(StoreType store, size_t rows) = 0;

  /// Update of `affected_columns` columns on `affected_rows` rows.
  virtual ProbeResult MeasureUpdate(StoreType store, size_t affected_columns,
                                    size_t affected_rows, size_t rows) = 0;

  /// Ungrouped SUM over fact JOIN dim for one store combination.
  virtual ProbeResult MeasureJoin(StoreType fact_store, StoreType dim_store,
                                  size_t fact_rows, size_t dim_rows) = 0;

  /// Extra cost of an aggregation spanning both pieces of a vertical split
  /// versus one covered by a single piece (per-table-size point).
  virtual ProbeResult MeasureStitch(size_t rows) = 0;

  /// Ungrouped SUM scan at degree of parallelism `dop` (same table shape as
  /// MeasureAggregation at the reference point). Non-pure with a zero
  /// default so fakes that predate the parallel terms keep compiling; a
  /// zero measurement skips the parallel fit and keeps the analytic
  /// defaults.
  virtual ProbeResult MeasureParallelScan(StoreType store, int dop,
                                          size_t rows) {
    (void)store;
    (void)dop;
    (void)rows;
    return ProbeResult{};
  }
};

struct CalibrationOptions {
  /// Reference configuration: base costs are the measured cost here and all
  /// adjustment functions are normalized to 1 at this point.
  size_t reference_rows = 200'000;
  uint64_t reference_distinct = 1024;
  double reference_selectivity = 0.01;
  size_t reference_dim_rows = 1000;

  /// Row sweep spans both the in-cache and out-of-cache regimes so linear
  /// fits do not extrapolate across a cache cliff.
  std::vector<size_t> row_points = {50'000, 200'000, 500'000, 1'000'000};
  std::vector<double> selectivity_points = {0.001, 0.01, 0.05, 0.2};
  std::vector<size_t> column_points = {1, 2, 4, 8};
  std::vector<uint64_t> distinct_points = {16, 1024, 65'536, 0};
  std::vector<size_t> affected_rows_points = {1, 4, 16, 64};
  std::vector<size_t> dim_row_points = {100, 1000, 5000};

  /// Degrees of parallelism to probe for the per-store parallel scan terms
  /// (c_parallel_core); dop 1 is always measured as the baseline. Empty, or
  /// a runner whose MeasureParallelScan returns zero, keeps the analytic
  /// defaults.
  std::vector<int> parallel_dop_points = {2, 4};
};

/// Selectivity of the aggregation filter probe; the fitted c_agg_filter is
/// the measured ratio minus the aggregation work on this fraction.
inline constexpr double kAggFilterProbeSelectivity = 0.5;

struct CalibrationReport {
  CostModelParams params;
  /// Mean r² across all linear fits (1.0 = perfectly linear system).
  double mean_r_squared = 0.0;
  /// Human-readable fitting log.
  std::string log;
};

/// Runs the full probe suite and fits CostModelParams.
CalibrationReport Calibrate(ProbeRunner& runner,
                            const CalibrationOptions& options);

}  // namespace hsdb

#endif  // HSDB_CORE_CALIBRATION_H_
