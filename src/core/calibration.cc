#include "core/calibration.h"

#include <array>
#include <cmath>
#include <sstream>

#include "common/macros.h"
#include "storage/compression/encoding_calibration.h"

namespace hsdb {

namespace {

/// Rescales a fitted raw function into a multiplier that is 1 at `x_ref`.
LinearFn NormalizeAt(const LinearFn& fn, double x_ref) {
  double scale = fn(x_ref);
  if (scale <= 0.0) return fn;
  return LinearFn{fn.intercept / scale, fn.slope / scale};
}

PiecewiseLinearFn NormalizePwlAt(const PiecewiseLinearFn& fn, double x_ref) {
  double scale = fn(x_ref);
  if (scale <= 0.0) return fn;
  std::vector<double> ys = fn.ys();
  for (double& y : ys) y /= scale;
  return PiecewiseLinearFn::FromKnots(fn.xs(), std::move(ys));
}

}  // namespace

CalibrationReport Calibrate(ProbeRunner& runner,
                            const CalibrationOptions& opt) {
  CalibrationReport report;
  CostModelParams& params = report.params;
  std::ostringstream log;
  std::vector<double> r2s;
  auto fit = [&](const std::vector<double>& x, const std::vector<double>& y,
                 const char* what) {
    LinearFit f = FitLinear(x, y);
    r2s.push_back(f.r_squared);
    log << "  fit " << what << ": " << f.fn.ToString()
        << " (r2=" << f.r_squared << ")\n";
    return f.fn;
  };

  const size_t ref_rows = opt.reference_rows;
  const uint64_t ref_distinct = opt.reference_distinct;

  for (StoreType store : {StoreType::kRow, StoreType::kColumn}) {
    StoreCostParams& sp = params.of(store);
    log << "store " << StoreTypeName(store) << ":\n";

    // ---- Aggregation ----------------------------------------------------
    ProbeResult ref = runner.MeasureAggregation(
        store, AggFn::kSum, DataType::kDouble, false, false, ref_rows,
        ref_distinct);
    const double base_sum = std::max(ref.ms, 1e-6);
    const double ref_rate = ref.compression_rate;
    for (AggFn fn : {AggFn::kSum, AggFn::kAvg, AggFn::kMin, AggFn::kMax,
                     AggFn::kCount}) {
      sp.base_agg[static_cast<int>(fn)] =
          fn == AggFn::kSum
              ? base_sum
              : runner.MeasureAggregation(store, fn, DataType::kDouble,
                                          false, false, ref_rows,
                                          ref_distinct)
                    .ms;
    }
    // Data-type constants relative to DOUBLE.
    sp.c_data_type[static_cast<int>(DataType::kDouble)] = 1.0;
    sp.c_data_type[static_cast<int>(DataType::kVarchar)] = 1.0;
    for (DataType type :
         {DataType::kInt32, DataType::kInt64, DataType::kDate}) {
      sp.c_data_type[static_cast<int>(type)] =
          runner.MeasureAggregation(store, AggFn::kSum, type, false, false,
                                    ref_rows, ref_distinct)
              .ms /
          base_sum;
    }
    sp.c_group_by = runner.MeasureAggregation(store, AggFn::kSum,
                                              DataType::kDouble, true, false,
                                              ref_rows, ref_distinct)
                        .ms /
                    base_sum;
    // The filtered probe measures (filter pass + aggregation over the
    // selected fraction); subtract the latter to isolate the filter-pass
    // constant (cf. CostModel::AggregationCost).
    sp.c_agg_filter = std::max(
        0.05, runner.MeasureAggregation(store, AggFn::kSum,
                                        DataType::kDouble, false, true,
                                        ref_rows, ref_distinct)
                      .ms /
                      base_sum -
                  kAggFilterProbeSelectivity);

    // f_rows: sweep the table size.
    {
      std::vector<double> xs, ys;
      for (size_t rows : opt.row_points) {
        xs.push_back(static_cast<double>(rows));
        ys.push_back(runner.MeasureAggregation(store, AggFn::kSum,
                                               DataType::kDouble, false,
                                               false, rows, ref_distinct)
                         .ms /
                     base_sum);
      }
      sp.f_rows_agg = NormalizeAt(
          fit(xs, ys, "f_rows_agg"), static_cast<double>(ref_rows));
    }

    // f_compression (column store only): sweep distinct counts, knot on the
    // *observed* compression rate.
    if (store == StoreType::kColumn) {
      std::vector<double> xs, ys;
      for (uint64_t distinct : opt.distinct_points) {
        ProbeResult r = runner.MeasureAggregation(store, AggFn::kSum,
                                                  DataType::kDouble, false,
                                                  false, ref_rows, distinct);
        xs.push_back(r.compression_rate);
        ys.push_back(r.ms / base_sum);
      }
      sp.f_compression_agg =
          NormalizePwlAt(PiecewiseLinearFn::FromKnots(xs, ys), ref_rate);
      log << "  f_compression_agg: " << sp.f_compression_agg.ToString()
          << "\n";
    } else {
      sp.f_compression_agg = PiecewiseLinearFn::Constant(1.0);
    }

    // ---- Select ----------------------------------------------------------
    const double ref_sel = opt.reference_selectivity;
    ProbeResult sel_ref =
        runner.MeasureSelect(store, 1, ref_sel, true, ref_rows);
    sp.base_select = std::max(sel_ref.ms, 1e-6);
    sp.base_point_select =
        std::max(runner.MeasurePointSelect(store, ref_rows).ms, 1e-9);
    {
      std::vector<double> xs, ys;
      for (size_t cols : opt.column_points) {
        xs.push_back(static_cast<double>(cols));
        ys.push_back(
            runner.MeasureSelect(store, cols, ref_sel, true, ref_rows).ms /
            sp.base_select);
      }
      sp.f_selected_columns =
          NormalizeAt(fit(xs, ys, "f_selected_columns"), 1.0);
    }
    {
      std::vector<double> xs, ys_idx, ys_scan;
      for (double sel : opt.selectivity_points) {
        xs.push_back(sel);
        ys_idx.push_back(
            runner.MeasureSelect(store, 1, sel, true, ref_rows).ms /
            sp.base_select);
        ys_scan.push_back(
            runner.MeasureSelect(store, 1, sel, false, ref_rows).ms /
            sp.base_select);
      }
      sp.f_selectivity_indexed =
          NormalizeAt(fit(xs, ys_idx, "f_selectivity_indexed"), ref_sel);
      sp.f_selectivity_scan =
          NormalizeAt(fit(xs, ys_scan, "f_selectivity_scan"), ref_sel);
    }
    {
      std::vector<double> xs, ys;
      for (size_t rows : opt.row_points) {
        xs.push_back(static_cast<double>(rows));
        ys.push_back(runner.MeasureSelect(store, 1, ref_sel, true, rows).ms /
                     sp.base_select);
      }
      sp.f_rows_select = NormalizeAt(
          fit(xs, ys, "f_rows_select"), static_cast<double>(ref_rows));
    }

    // ---- Insert ----------------------------------------------------------
    sp.base_insert = std::max(runner.MeasureInsert(store, ref_rows).ms, 1e-9);
    {
      std::vector<double> xs, ys;
      for (size_t rows : opt.row_points) {
        xs.push_back(static_cast<double>(rows));
        ys.push_back(runner.MeasureInsert(store, rows).ms / sp.base_insert);
      }
      sp.f_rows_insert = NormalizeAt(
          fit(xs, ys, "f_rows_insert"), static_cast<double>(ref_rows));
    }

    // ---- Update ----------------------------------------------------------
    sp.base_update =
        std::max(runner.MeasureUpdate(store, 1, 1, ref_rows).ms, 1e-9);
    {
      std::vector<double> xs, ys;
      for (size_t cols : opt.column_points) {
        xs.push_back(static_cast<double>(cols));
        ys.push_back(runner.MeasureUpdate(store, cols, 1, ref_rows).ms /
                     sp.base_update);
      }
      sp.f_affected_columns =
          NormalizeAt(fit(xs, ys, "f_affected_columns"), 1.0);
    }
    {
      std::vector<double> xs, ys;
      for (size_t m : opt.affected_rows_points) {
        xs.push_back(static_cast<double>(m));
        ys.push_back(runner.MeasureUpdate(store, 1, m, ref_rows).ms /
                     sp.base_update);
      }
      // f_affected_rows is used un-normalized (multiplier per affected row).
      LinearFn f = fit(xs, ys, "f_affected_rows");
      sp.f_affected_rows = NormalizeAt(f, 1.0);
    }
    {
      std::vector<double> xs, ys;
      for (size_t rows : opt.row_points) {
        xs.push_back(static_cast<double>(rows));
        ys.push_back(runner.MeasureUpdate(store, 1, 1, rows).ms /
                     sp.base_update);
      }
      sp.f_rows_update = NormalizeAt(
          fit(xs, ys, "f_rows_update"), static_cast<double>(ref_rows));
    }
  }

  // ---- Joins (store combinations) ---------------------------------------
  {
    double ref_join[kNumStoreTypes][kNumStoreTypes];
    for (StoreType f : {StoreType::kRow, StoreType::kColumn}) {
      for (StoreType d : {StoreType::kRow, StoreType::kColumn}) {
        ref_join[static_cast<int>(f)][static_cast<int>(d)] =
            runner.MeasureJoin(f, d, ref_rows, opt.reference_dim_rows).ms;
      }
    }
    for (StoreType f : {StoreType::kRow, StoreType::kColumn}) {
      StoreCostParams& fp = params.of(f);
      double base_sum = fp.base_agg[static_cast<int>(AggFn::kSum)];
      // Probe-side scaling: fact rows (probe) and dim rows (build).
      std::vector<double> xs, ys;
      for (size_t rows : opt.row_points) {
        xs.push_back(static_cast<double>(rows));
        ys.push_back(
            runner.MeasureJoin(f, StoreType::kRow, rows,
                               opt.reference_dim_rows)
                .ms);
      }
      fp.f_rows_probe = NormalizeAt(
          fit(xs, ys, "f_rows_probe"), static_cast<double>(ref_rows));
      xs.clear();
      ys.clear();
      for (size_t dim_rows : opt.dim_row_points) {
        xs.push_back(static_cast<double>(dim_rows));
        ys.push_back(
            runner.MeasureJoin(StoreType::kRow, f, ref_rows, dim_rows).ms);
      }
      fp.f_rows_build = NormalizeAt(
          fit(xs, ys, "f_rows_build"),
          static_cast<double>(opt.reference_dim_rows));
      for (StoreType d : {StoreType::kRow, StoreType::kColumn}) {
        params.base_join[static_cast<int>(f)][static_cast<int>(d)] =
            ref_join[static_cast<int>(f)][static_cast<int>(d)] /
            std::max(base_sum, 1e-9);
      }
    }
  }

  // ---- Vertical stitch penalty -------------------------------------------
  {
    std::vector<double> xs, ys;
    for (size_t rows : opt.row_points) {
      xs.push_back(static_cast<double>(rows));
      ys.push_back(std::max(0.0, runner.MeasureStitch(rows).ms));
    }
    params.f_stitch = fit(xs, ys, "f_stitch");  // absolute ms, un-normalized
    if (params.f_stitch.slope < 0.0) {
      params.f_stitch = LinearFn::Constant(
          std::max(0.0, params.f_stitch(static_cast<double>(ref_rows))));
    }
  }

  // ---- Per-codec decode + re-encode terms --------------------------------
  std::array<double, kNumEncodings> mult =
      compression::MeasureEncodingScanMultipliers();
  StoreCostParams& cs = params.of(StoreType::kColumn);
  log << "c_encoding_scan:";
  for (int e = 0; e < kNumEncodings; ++e) {
    cs.c_encoding_scan[e] = mult[e];
    log << " " << EncodingName(static_cast<Encoding>(e)) << "=" << mult[e];
  }
  log << "\n";
  // Delta-merge re-encode throughput per codec; the merge share itself
  // stays at its analytic default (isolating it would need engine-level
  // merge probes).
  std::array<double, kNumEncodings> reenc =
      compression::MeasureEncodingReencodeMultipliers();
  log << "c_encoding_reencode:";
  for (int e = 0; e < kNumEncodings; ++e) {
    cs.c_encoding_reencode[e] = reenc[e];
    log << " " << EncodingName(static_cast<Encoding>(e)) << "=" << reenc[e];
  }
  log << " (merge_share=" << cs.c_merge_share << ")\n";

  // ---- Morsel-parallel scan terms ----------------------------------------
  if (!opt.parallel_dop_points.empty()) {
    for (StoreType s : {StoreType::kRow, StoreType::kColumn}) {
      StoreCostParams& sp = params.of(s);
      const double serial =
          runner.MeasureParallelScan(s, 1, ref_rows).ms;
      if (serial <= 0.0) continue;  // runner without a parallel probe
      // Fit speedup(d) = 1 + e*(d-1) through the measured points:
      // per-point efficiency e_d = (serial/parallel - 1) / (d - 1),
      // averaged (each probe gets equal weight).
      double e_sum = 0.0;
      int e_n = 0;
      log << "c_parallel_core[" << StoreTypeName(s) << "]:";
      for (int dop : opt.parallel_dop_points) {
        if (dop <= 1) continue;
        const double parallel = runner.MeasureParallelScan(s, dop, ref_rows).ms;
        if (parallel <= 0.0) continue;
        const double e = (serial / parallel - 1.0) / (dop - 1);
        log << " d" << dop << "=" << serial / parallel << "x";
        e_sum += e;
        ++e_n;
      }
      if (e_n > 0) {
        // A 1-core host measures ~0 marginal gain; clamp into [0, 1].
        sp.c_parallel_core =
            std::min(1.0, std::max(0.0, e_sum / e_n));
      }
      log << " -> e=" << sp.c_parallel_core << "\n";
    }
  }

  double sum_r2 = 0.0;
  for (double r2 : r2s) sum_r2 += r2;
  report.mean_r_squared = r2s.empty() ? 0.0 : sum_r2 / r2s.size();
  report.log = log.str();
  return report;
}

}  // namespace hsdb
