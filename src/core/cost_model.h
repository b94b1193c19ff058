// The storage advisor's cost model (paper §3):
//
//   Costs = BaseCosts · QueryAdjustment · DataAdjustment
//
// All base costs and adjustment functions are store-specific; adjustment
// functions are constants, linear functions or piecewise-linear functions of
// one characteristic each (the paper's independence assumption). Parameters
// are produced either analytically (Default) or by calibration probes run
// against the engine (core/calibration.h, the paper's "initialize cost
// model" step).
#ifndef HSDB_CORE_COST_MODEL_H_
#define HSDB_CORE_COST_MODEL_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/regression.h"
#include "common/types.h"
#include "executor/query.h"
#include "storage/compression/encoding.h"
#include "storage/store_type.h"

namespace hsdb {

/// Per-store cost-model parameters. Base costs are in milliseconds at the
/// reference configuration; every adjustment function returns a multiplier
/// and is normalized to ~1 at its calibration reference point.
struct StoreCostParams {
  // Aggregation: (Σ_i base_agg[fn_i]·c_data_type[type_i]) · c_group_by? ·
  //              c_filter? · f_rows_agg(rows) · f_compression_agg(rate).
  double base_agg[kNumAggFns] = {1, 1, 1, 1, 0.1};
  double c_data_type[kNumDataTypes] = {1, 1, 1, 1, 1};
  double c_group_by = 4.0;
  double c_agg_filter = 1.3;
  LinearFn f_rows_agg{0.0, 1e-6};  // multiplier per row
  PiecewiseLinearFn f_compression_agg = PiecewiseLinearFn::Constant(1.0);

  // Point/range select: base_select · f_selected_columns(k) ·
  //                     f_selectivity(sel) · f_rows_select(rows).
  double base_select = 1.0;
  /// Primary-key point lookups bypass the scan machinery entirely (hash
  /// index in both stores) and are costed separately.
  double base_point_select = 0.005;
  LinearFn f_selected_columns{1.0, 0.0};
  LinearFn f_selectivity_indexed{0.1, 10.0};
  LinearFn f_selectivity_scan{1.0, 3.0};
  LinearFn f_rows_select{0.0, 1e-6};

  // Insert: base_insert · f_rows_insert(rows)   (uniqueness verification).
  double base_insert = 0.005;
  LinearFn f_rows_insert{1.0, 0.0};

  // Update: base_update · f_affected_columns(k) · f_affected_rows(m) ·
  //         f_rows_update(rows).
  double base_update = 0.005;
  LinearFn f_affected_columns{1.0, 0.0};
  LinearFn f_affected_rows{0.0, 1.0};
  LinearFn f_rows_update{1.0, 0.0};

  // Join contributions (see CostModel::JoinAggregationCost).
  LinearFn f_rows_probe{0.0, 1e-6};
  LinearFn f_rows_build{0.5, 5e-4};

  // Compressed-scan decode terms (column store): relative sequential-scan
  // cost per column encoding, normalized to the dictionary codec = 1.
  // Calibrated by the per-codec decode microprobes
  // (storage/compression/encoding_calibration.h); identity for the row
  // store.
  double c_encoding_scan[kNumEncodings] = {1.0, 1.0, 1.0, 1.0};

  // Delta-merge re-encoding terms (column store): relative cost of
  // re-encoding one column segment under each codec at merge time,
  // normalized to the dictionary codec = 1 (calibrated by the per-codec
  // encode microprobes), and the share of the amortized insert cost that
  // merge re-encoding accounts for. Identity / zero for the row store,
  // which has no delta merges.
  double c_encoding_reencode[kNumEncodings] = {1.0, 1.0, 1.0, 1.0};
  double c_merge_share = 0.0;

  // Morsel-parallel scan terms. Scan-shaped costs (aggregation, non-indexed
  // selection) at degree of parallelism d are divided by the speedup
  //   S(d) = 1 + c_parallel_core * (d - 1)
  // — c_parallel_core is the marginal scan bandwidth each extra core
  // contributes relative to the first (1 = perfect scaling; memory-bandwidth
  // saturation keeps it below 1) — and charged c_parallel_merge_ms of
  // coordinator-side merge overhead per scan. Calibrated by the parallel
  // scan probe (MeasureParallelScan); identity at d = 1.
  double c_parallel_core = 0.7;
  double c_parallel_merge_ms = 0.01;

  // Shared-scan batch term (v6). The serving front-end's BatchExecutor
  // co-runs w compatible queries on one decode pass, so each query pays
  //   cost / BatchSpeedup(w),  BatchSpeedup(w) = w / (1 + share * (w - 1))
  // — c_batch_scan_share is the per-query share of scan-shaped work the
  // shared pass can NOT amortize (bitmap fan-out, per-query
  // materialization): 0 = decode dominates (ideal w-fold sharing), 1 = no
  // benefit. Applied to scan-shaped costs only, like the parallel terms;
  // the column store amortizes more (the decode pass is the expensive
  // part), the row store less (the tuple walk is shared but cheap to begin
  // with).
  double c_batch_scan_share = 0.35;
};

/// Full parameter set: one StoreCostParams per store plus the store-
/// combination base costs for joins and the vertical-stitch penalty.
struct CostModelParams {
  StoreCostParams store[kNumStoreTypes];
  /// base_join[fact store][dimension store]: multiplier on the join part.
  double base_join[kNumStoreTypes][kNumStoreTypes] = {{1.0, 1.1},
                                                      {0.9, 1.0}};
  /// Cost (ms) of stitching vertically partitioned pieces, per scanned row
  /// (charged when a query spans both pieces of a vertical split).
  LinearFn f_stitch{0.0, 2e-3};
  /// Constant overhead (ms) for combining horizontal partition partials.
  double c_union = 0.05;

  const StoreCostParams& of(StoreType s) const {
    return store[static_cast<int>(s)];
  }
  StoreCostParams& of(StoreType s) { return store[static_cast<int>(s)]; }

  /// Analytic defaults roughly shaped like the bundled engine; calibration
  /// replaces them with measured parameters.
  static CostModelParams Default();

  std::string ToString() const;

  /// Round-trippable text serialization, so a calibrated model can be
  /// persisted and reused across processes (the advisor only re-initializes
  /// the cost model when hardware/system settings change, Fig. 5).
  std::string Serialize() const;
  static Result<CostModelParams> Deserialize(const std::string& text);
};

/// One aggregate's characteristics: function + data type of its column.
struct AggSpec {
  AggFn fn;
  DataType type;
};

/// Evaluates the paper's cost formulas on query/data characteristics.
class CostModel {
 public:
  CostModel() : params_(CostModelParams::Default()) {}
  explicit CostModel(CostModelParams params) : params_(std::move(params)) {}

  const CostModelParams& params() const { return params_; }

  /// Degree of parallelism the engine runs eligible scans at (the advisor
  /// mirrors Database::num_threads() here). Scan-shaped costs are divided
  /// by the per-store parallel speedup; point lookups and writes (serial in
  /// the engine) and joins (whose fact side runs in morsels) stay unscaled.
  /// 1 (the default) disables the adjustment.
  void set_dop(int dop) { dop_ = dop < 1 ? 1 : dop; }
  int dop() const { return dop_; }

  /// Expected number of compatible queries co-running per shared-scan batch
  /// when a serving front-end feeds the engine through the BatchExecutor
  /// (the advisor mirrors AdvisorOptions::batch_width, which deployments
  /// set from their measured hsdb_server_batch_width). Scan-shaped costs
  /// are divided by the per-store batch speedup — the amortized per-query
  /// cost a co-running client actually pays. 1 (the default) disables the
  /// adjustment; point lookups, joins and writes are never shared and stay
  /// unscaled.
  void set_batch_width(int width) { batch_width_ = width < 1 ? 1 : width; }
  int batch_width() const { return batch_width_; }

  /// Single-table aggregation (paper §3.1 "Aggregation Queries").
  /// A predicate splits the cost into a filter pass over all rows
  /// (c_agg_filter) plus the aggregation work over the selected fraction —
  /// an extension of the paper's constant-only filter adjustment that keeps
  /// the estimate store-rank-correct when filters are selective.
  /// `encoding_scan` is the table's average per-encoding scan multiplier
  /// (EncodingScanMultiplier averaged over the scanned columns); it adjusts
  /// column-store scans only.
  double AggregationCost(StoreType store, const std::vector<AggSpec>& aggs,
                         bool grouped, bool filtered, double rows,
                         double compression_rate, double selectivity = 1.0,
                         double encoding_scan = 1.0) const;

  /// Star-join aggregation: fact-side aggregation adjusted per joined
  /// dimension with the store-combination base costs (§3.1 "Join Queries").
  struct JoinSide {
    StoreType store;
    double rows;
    double compression_rate;
  };
  double JoinAggregationCost(StoreType fact_store,
                             const std::vector<AggSpec>& aggs, bool grouped,
                             bool filtered, double fact_rows,
                             double fact_compression,
                             const std::vector<JoinSide>& dims,
                             double selectivity = 1.0,
                             double encoding_scan = 1.0) const;

  /// Point/range selection (§3.1 "Point and Range Queries").
  double SelectCost(StoreType store, size_t selected_columns,
                    double selectivity, bool indexed, double rows,
                    double encoding_scan = 1.0) const;

  /// Relative scan cost of a column-store column under `encoding`
  /// (dictionary = 1); always 1 for the row store.
  double EncodingScanMultiplier(StoreType store, Encoding encoding) const;

  /// Relative delta-merge re-encode cost of a column-store column under
  /// `encoding` (dictionary = 1); always 1 for the row store.
  double EncodingReencodeMultiplier(StoreType store, Encoding encoding) const;

  /// Primary-key point lookup: hash access + k-column tuple reconstruction.
  double PointSelectCost(StoreType store, size_t selected_columns) const;

  /// Insert (§3.1 "Inserts and Updates"). `encoding_reencode` is the
  /// table's average per-codec re-encode multiplier (delta-merge term); it
  /// scales the merge share of the column store's amortized insert cost and
  /// is ignored by the row store.
  double InsertCost(StoreType store, double rows,
                    double encoding_reencode = 1.0) const;

  /// Update (§3.1 "Inserts and Updates").
  double UpdateCost(StoreType store, size_t affected_columns,
                    double affected_rows, double rows) const;

  /// Delete is costed like a full-width update of one row batch.
  double DeleteCost(StoreType store, double affected_rows, double rows) const;

  /// Vertical-stitch penalty for queries spanning both pieces of a vertical
  /// split, and the union overhead for horizontal partitions. A fitted
  /// stitch line can have a negative intercept; below its root the stitch
  /// costs nothing rather than crediting the query.
  double StitchCost(double rows) const {
    return std::max(0.0, params_.f_stitch(rows));
  }
  double UnionOverhead() const { return params_.c_union; }

 private:
  /// Parallel speedup S(d) for scan-shaped work under `sp` (1 at dop 1).
  double ParallelSpeedup(const StoreCostParams& sp) const;
  /// Shared-scan speedup B(w) for scan-shaped work under `sp` (1 at batch
  /// width 1).
  double BatchSpeedup(const StoreCostParams& sp) const;

  CostModelParams params_;
  int dop_ = 1;
  int batch_width_ = 1;
};

}  // namespace hsdb

#endif  // HSDB_CORE_COST_MODEL_H_
