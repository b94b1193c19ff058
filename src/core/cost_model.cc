#include "core/cost_model.h"

#include <algorithm>
#include <sstream>

#include "common/macros.h"

namespace hsdb {

CostModelParams CostModelParams::Default() {
  CostModelParams p;

  // Row store: strided scans make aggregation expensive; writes and point
  // access are cheap.
  StoreCostParams& rs = p.of(StoreType::kRow);
  rs.base_agg[static_cast<int>(AggFn::kSum)] = 8.0;
  rs.base_agg[static_cast<int>(AggFn::kAvg)] = 8.0;
  rs.base_agg[static_cast<int>(AggFn::kMin)] = 8.0;
  rs.base_agg[static_cast<int>(AggFn::kMax)] = 8.0;
  rs.base_agg[static_cast<int>(AggFn::kCount)] = 0.5;
  rs.c_group_by = 6.0;
  rs.c_agg_filter = 1.5;
  rs.f_rows_agg = LinearFn{0.0, 1e-6};  // 1.0 at the 1M-row reference
  rs.f_compression_agg = PiecewiseLinearFn::Constant(1.0);
  rs.base_select = 4.0;
  rs.base_point_select = 0.003;
  rs.f_selected_columns = LinearFn{1.0, 0.0};  // rows are read whole anyway
  rs.f_selectivity_indexed = LinearFn{0.01, 20.0};
  rs.f_selectivity_scan = LinearFn{1.0, 2.0};  // scan dominated by the pass
  rs.f_rows_select = LinearFn{0.0, 1e-6};
  rs.base_insert = 0.002;
  rs.f_rows_insert = LinearFn{1.0, 1e-9};
  rs.base_update = 0.003;
  rs.f_affected_columns = LinearFn{1.0, 0.02};
  rs.f_affected_rows = LinearFn{0.0, 1.0};
  rs.f_rows_update = LinearFn{1.0, 1e-9};
  rs.f_rows_probe = LinearFn{0.0, 1e-6};
  rs.f_rows_build = LinearFn{0.9, 1e-4};

  // Column store: packed scans make aggregation cheap; writes pay delta
  // maintenance and merges, point access pays reconstruction.
  StoreCostParams& cs = p.of(StoreType::kColumn);
  cs.base_agg[static_cast<int>(AggFn::kSum)] = 2.5;
  cs.base_agg[static_cast<int>(AggFn::kAvg)] = 2.5;
  cs.base_agg[static_cast<int>(AggFn::kMin)] = 2.5;
  cs.base_agg[static_cast<int>(AggFn::kMax)] = 2.5;
  cs.base_agg[static_cast<int>(AggFn::kCount)] = 0.5;
  cs.c_group_by = 10.0;
  cs.c_agg_filter = 1.4;
  cs.f_rows_agg = LinearFn{0.0, 1e-6};
  cs.f_compression_agg = PiecewiseLinearFn::FromKnots(
      {0.05, 0.3, 0.7, 1.0}, {0.7, 0.9, 1.05, 1.15});
  cs.base_select = 2.0;
  cs.base_point_select = 0.006;  // per-column reconstruction
  cs.f_selected_columns = LinearFn{0.9, 0.05};  // tuple reconstruction
  cs.f_selectivity_indexed = LinearFn{0.05, 10.0};  // dictionary position scan
  cs.f_selectivity_scan = LinearFn{0.05, 10.0};     // implicit index always
  cs.f_rows_select = LinearFn{0.0, 1e-6};
  cs.base_insert = 0.02;
  cs.f_rows_insert = LinearFn{1.0, 5e-9};
  cs.base_update = 0.04;
  cs.f_affected_columns = LinearFn{1.0, 0.05};
  cs.f_affected_rows = LinearFn{0.0, 1.0};
  cs.f_rows_update = LinearFn{1.0, 5e-9};
  cs.f_rows_probe = LinearFn{0.0, 1.2e-6};
  cs.f_rows_build = LinearFn{0.9, 1.2e-4};
  // Analytic decode shape: run replay beats id+dictionary indirection,
  // base+delta adds sit between, plain vectors lose the bandwidth savings.
  // Calibration replaces these with measured per-codec throughput.
  cs.c_encoding_scan[static_cast<int>(Encoding::kDictionary)] = 1.0;
  cs.c_encoding_scan[static_cast<int>(Encoding::kRle)] = 0.55;
  cs.c_encoding_scan[static_cast<int>(Encoding::kFrameOfReference)] = 0.8;
  cs.c_encoding_scan[static_cast<int>(Encoding::kRaw)] = 1.25;
  // Analytic re-encode shape: the dictionary pays the distinct-value sort
  // plus id packing, FOR repacks deltas, RLE emits runs, raw is a move.
  // Calibration replaces these with measured per-codec encode throughput.
  cs.c_encoding_reencode[static_cast<int>(Encoding::kDictionary)] = 1.0;
  cs.c_encoding_reencode[static_cast<int>(Encoding::kRle)] = 0.6;
  cs.c_encoding_reencode[static_cast<int>(Encoding::kFrameOfReference)] = 0.75;
  cs.c_encoding_reencode[static_cast<int>(Encoding::kRaw)] = 0.4;
  cs.c_merge_share = 0.3;
  // Analytic parallel shape: row-store strided scans saturate memory
  // bandwidth earlier than the column store's packed decode, so each extra
  // core contributes less. Calibration replaces these with the measured
  // parallel-scan speedup.
  rs.c_parallel_core = 0.6;
  rs.c_parallel_merge_ms = 0.02;
  cs.c_parallel_core = 0.75;
  cs.c_parallel_merge_ms = 0.01;

  // Shared-scan batches amortize the column store's decode pass almost
  // fully; the row store's tuple walk is shared too, but it was never the
  // dominant term, so less of the per-query cost disappears.
  rs.c_batch_scan_share = 0.55;
  cs.c_batch_scan_share = 0.3;

  p.base_join[0][0] = 1.0;
  p.base_join[0][1] = 1.15;
  p.base_join[1][0] = 0.85;
  p.base_join[1][1] = 0.95;
  p.f_stitch = LinearFn{0.5, 2e-3};
  p.c_union = 0.05;
  return p;
}

std::string CostModelParams::ToString() const {
  std::ostringstream os;
  for (int s = 0; s < kNumStoreTypes; ++s) {
    const StoreCostParams& sp = store[s];
    os << StoreTypeName(static_cast<StoreType>(s)) << ": base_sum="
       << sp.base_agg[0] << " c_group=" << sp.c_group_by
       << " f_rows_agg=" << sp.f_rows_agg.ToString()
       << " f_compr=" << sp.f_compression_agg.ToString()
       << " base_select=" << sp.base_select
       << " base_insert=" << sp.base_insert
       << " base_update=" << sp.base_update << " c_enc_scan={";
    for (int e = 0; e < kNumEncodings; ++e) {
      os << (e > 0 ? "," : "") << sp.c_encoding_scan[e];
    }
    os << "} c_enc_reencode={";
    for (int e = 0; e < kNumEncodings; ++e) {
      os << (e > 0 ? "," : "") << sp.c_encoding_reencode[e];
    }
    os << "}*" << sp.c_merge_share << " c_par=" << sp.c_parallel_core << "+"
       << sp.c_parallel_merge_ms << "ms"
       << " c_batch_share=" << sp.c_batch_scan_share << "\n";
  }
  os << "base_join={" << base_join[0][0] << "," << base_join[0][1] << ";"
     << base_join[1][0] << "," << base_join[1][1] << "}"
     << " f_stitch=" << f_stitch.ToString();
  return os.str();
}

namespace {

/// Adjustment multipliers must never drive a cost negative; measured fits
/// can dip below zero when extrapolating far left of the calibrated range.
double ClampMultiplier(double m) { return std::max(m, 1e-4); }

// Version history (docs/ARCHITECTURE.md "Calibration cache lifecycle"):
// v2 added the per-codec scan terms (c_encoding_scan), v3 the delta-merge
// re-encoding terms (c_encoding_reencode, c_merge_share). v4 changes no
// field but marks the SIMD decode kernels (storage/compression/simd/):
// they shift the measured per-codec scan/re-encode throughput, so
// scalar-era v1-v3 calibrations are rejected and caches recalibrate with
// the vectorized engine. v5 adds the morsel-parallel scan terms
// (c_parallel_core, c_parallel_merge_ms); pre-parallel caches are rejected
// so they recalibrate with the parallel probe. v6 adds the shared-scan
// batch term (c_batch_scan_share) the serving front-end's amortized
// per-query costs divide by. v7 changes no field but marks the amortized
// insert probe: EngineProbeRunner::MeasureInsert times a column-store insert
// window through one statement-boundary delta merge, so v6 caches still
// carry the merge-free base_insert terms and must recalibrate. v8 changes no
// field but marks the ranged decode probe: c_encoding_scan is timed on the
// codecs' ForEachInRange, the decode served scans run, so v7 caches still
// carry multipliers fit on the deleted bulk decode and must recalibrate.
constexpr char kSerializationMagic[] = "hsdb_cost_model_v8";

void PutFn(std::ostream& os, const LinearFn& fn) {
  os << fn.intercept << " " << fn.slope << "\n";
}

bool GetFn(std::istream& is, LinearFn* fn) {
  return static_cast<bool>(is >> fn->intercept >> fn->slope);
}

void PutPwl(std::ostream& os, const PiecewiseLinearFn& fn) {
  os << fn.num_knots();
  for (size_t i = 0; i < fn.num_knots(); ++i) {
    os << " " << fn.xs()[i] << " " << fn.ys()[i];
  }
  os << "\n";
}

bool GetPwl(std::istream& is, PiecewiseLinearFn* fn) {
  size_t n;
  if (!(is >> n) || n == 0 || n > 10'000) return false;
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(is >> xs[i] >> ys[i])) return false;
  }
  *fn = PiecewiseLinearFn::FromKnots(std::move(xs), std::move(ys));
  return true;
}

}  // namespace

std::string CostModelParams::Serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << kSerializationMagic << "\n";
  for (int s = 0; s < kNumStoreTypes; ++s) {
    const StoreCostParams& sp = store[s];
    for (double b : sp.base_agg) os << b << " ";
    os << "\n";
    for (double c : sp.c_data_type) os << c << " ";
    os << "\n";
    os << sp.c_group_by << " " << sp.c_agg_filter << "\n";
    PutFn(os, sp.f_rows_agg);
    PutPwl(os, sp.f_compression_agg);
    os << sp.base_select << " " << sp.base_point_select << "\n";
    PutFn(os, sp.f_selected_columns);
    PutFn(os, sp.f_selectivity_indexed);
    PutFn(os, sp.f_selectivity_scan);
    PutFn(os, sp.f_rows_select);
    os << sp.base_insert << "\n";
    PutFn(os, sp.f_rows_insert);
    os << sp.base_update << "\n";
    PutFn(os, sp.f_affected_columns);
    PutFn(os, sp.f_affected_rows);
    PutFn(os, sp.f_rows_update);
    PutFn(os, sp.f_rows_probe);
    PutFn(os, sp.f_rows_build);
    for (double c : sp.c_encoding_scan) os << c << " ";
    os << "\n";
    for (double c : sp.c_encoding_reencode) os << c << " ";
    os << sp.c_merge_share << "\n";
    os << sp.c_parallel_core << " " << sp.c_parallel_merge_ms << "\n";
    os << sp.c_batch_scan_share << "\n";
  }
  for (int f = 0; f < kNumStoreTypes; ++f) {
    for (int d = 0; d < kNumStoreTypes; ++d) {
      os << base_join[f][d] << " ";
    }
  }
  os << "\n";
  PutFn(os, f_stitch);
  os << c_union << "\n";
  return os.str();
}

Result<CostModelParams> CostModelParams::Deserialize(
    const std::string& text) {
  std::istringstream is(text);
  std::string magic;
  if (!(is >> magic) || magic != kSerializationMagic) {
    return Status::InvalidArgument("bad cost-model serialization header");
  }
  CostModelParams p;
  auto fail = [] {
    return Status::InvalidArgument("truncated cost-model serialization");
  };
  for (int s = 0; s < kNumStoreTypes; ++s) {
    StoreCostParams& sp = p.store[s];
    for (double& b : sp.base_agg) {
      if (!(is >> b)) return fail();
    }
    for (double& c : sp.c_data_type) {
      if (!(is >> c)) return fail();
    }
    if (!(is >> sp.c_group_by >> sp.c_agg_filter)) return fail();
    if (!GetFn(is, &sp.f_rows_agg)) return fail();
    if (!GetPwl(is, &sp.f_compression_agg)) return fail();
    if (!(is >> sp.base_select >> sp.base_point_select)) return fail();
    if (!GetFn(is, &sp.f_selected_columns)) return fail();
    if (!GetFn(is, &sp.f_selectivity_indexed)) return fail();
    if (!GetFn(is, &sp.f_selectivity_scan)) return fail();
    if (!GetFn(is, &sp.f_rows_select)) return fail();
    if (!(is >> sp.base_insert)) return fail();
    if (!GetFn(is, &sp.f_rows_insert)) return fail();
    if (!(is >> sp.base_update)) return fail();
    if (!GetFn(is, &sp.f_affected_columns)) return fail();
    if (!GetFn(is, &sp.f_affected_rows)) return fail();
    if (!GetFn(is, &sp.f_rows_update)) return fail();
    if (!GetFn(is, &sp.f_rows_probe)) return fail();
    if (!GetFn(is, &sp.f_rows_build)) return fail();
    for (double& c : sp.c_encoding_scan) {
      if (!(is >> c)) return fail();
    }
    for (double& c : sp.c_encoding_reencode) {
      if (!(is >> c)) return fail();
    }
    if (!(is >> sp.c_merge_share)) return fail();
    if (!(is >> sp.c_parallel_core >> sp.c_parallel_merge_ms)) return fail();
    if (!(is >> sp.c_batch_scan_share)) return fail();
  }
  for (int f = 0; f < kNumStoreTypes; ++f) {
    for (int d = 0; d < kNumStoreTypes; ++d) {
      if (!(is >> p.base_join[f][d])) return fail();
    }
  }
  if (!GetFn(is, &p.f_stitch)) return fail();
  if (!(is >> p.c_union)) return fail();
  return p;
}

double CostModel::AggregationCost(StoreType store,
                                  const std::vector<AggSpec>& aggs,
                                  bool grouped, bool filtered, double rows,
                                  double compression_rate, double selectivity,
                                  double encoding_scan) const {
  const StoreCostParams& sp = params_.of(store);
  // Each aggregate contributes its base cost adjusted to its data type
  // (the paper's two-aggregate example in §3.1).
  double base = 0.0;
  for (const AggSpec& agg : aggs) {
    base += sp.base_agg[static_cast<int>(agg.fn)] *
            sp.c_data_type[static_cast<int>(agg.type)];
  }
  double compr =
      store == StoreType::kColumn
          ? ClampMultiplier(sp.f_compression_agg(compression_rate)) *
                ClampMultiplier(encoding_scan)
          : 1.0;
  // Aggregation work runs over the rows surviving the predicate...
  double work_rows = filtered ? selectivity * rows : rows;
  double cost = base;
  if (grouped) cost *= sp.c_group_by;
  cost *= ClampMultiplier(sp.f_rows_agg(work_rows));
  cost *= compr;
  // ... while the filter pass itself scans the whole table.
  if (filtered) {
    cost += sp.base_agg[static_cast<int>(AggFn::kSum)] * sp.c_agg_filter *
            ClampMultiplier(sp.f_rows_agg(rows)) * compr;
  }
  // Morsel-parallel scan: the whole filter+aggregate pass parallelizes;
  // merging per-morsel partials is coordinator-side overhead.
  if (dop_ > 1) {
    cost = cost / ParallelSpeedup(sp) + sp.c_parallel_merge_ms;
  }
  // Serving amortization: a shared-scan batch of width w runs this query's
  // filter + aggregation pass once per batch, not once per query.
  return cost / BatchSpeedup(sp);
}

double CostModel::ParallelSpeedup(const StoreCostParams& sp) const {
  if (dop_ <= 1) return 1.0;
  return 1.0 + std::max(sp.c_parallel_core, 0.0) * (dop_ - 1);
}

double CostModel::BatchSpeedup(const StoreCostParams& sp) const {
  if (batch_width_ <= 1) return 1.0;
  double share = std::min(std::max(sp.c_batch_scan_share, 0.0), 1.0);
  double w = static_cast<double>(batch_width_);
  return w / (1.0 + share * (w - 1.0));
}

double CostModel::JoinAggregationCost(
    StoreType fact_store, const std::vector<AggSpec>& aggs, bool grouped,
    bool filtered, double fact_rows, double fact_compression,
    const std::vector<JoinSide>& dims, double selectivity,
    double encoding_scan) const {
  const StoreCostParams& fp = params_.of(fact_store);
  double base = 0.0;
  for (const AggSpec& agg : aggs) {
    base += fp.base_agg[static_cast<int>(agg.fn)] *
            fp.c_data_type[static_cast<int>(agg.type)];
  }
  double fact_compr =
      fact_store == StoreType::kColumn
          ? ClampMultiplier(fp.f_compression_agg(fact_compression)) *
                ClampMultiplier(encoding_scan)
          : 1.0;
  // Probe work runs over the rows surviving the fact-side predicate.
  double probe_rows = filtered ? selectivity * fact_rows : fact_rows;
  double cost = base;
  if (grouped) cost *= fp.c_group_by;
  cost *= ClampMultiplier(fp.f_rows_probe(probe_rows));
  cost *= fact_compr;
  if (filtered) {
    cost += fp.base_agg[static_cast<int>(AggFn::kSum)] * fp.c_agg_filter *
            ClampMultiplier(fp.f_rows_probe(fact_rows)) * fact_compr;
  }
  // Per-dimension adjustments: store-combination base cost and build-side
  // scaling (the paper's BaseSUMCosts^{RS,CS} with f^{CS}_rows(100000)).
  for (const JoinSide& dim : dims) {
    const StoreCostParams& dp = params_.of(dim.store);
    cost *= params_.base_join[static_cast<int>(fact_store)]
                             [static_cast<int>(dim.store)];
    cost *= ClampMultiplier(dp.f_rows_build(dim.rows));
    if (dim.store == StoreType::kColumn) {
      cost *= ClampMultiplier(dp.f_compression_agg(dim.compression_rate));
    }
  }
  return cost;
}

double CostModel::SelectCost(StoreType store, size_t selected_columns,
                             double selectivity, bool indexed, double rows,
                             double encoding_scan) const {
  const StoreCostParams& sp = params_.of(store);
  double cost = sp.base_select;
  if (store == StoreType::kColumn) cost *= ClampMultiplier(encoding_scan);
  cost *= ClampMultiplier(
      sp.f_selected_columns(static_cast<double>(selected_columns)));
  // The column store's dictionary acts as an implicit index, so both paths
  // use the "indexed" function there; the row store degrades to a scan when
  // no index is available (paper §3.1).
  const LinearFn& f_sel = indexed || store == StoreType::kColumn
                              ? sp.f_selectivity_indexed
                              : sp.f_selectivity_scan;
  cost *= ClampMultiplier(f_sel(selectivity));
  cost *= ClampMultiplier(sp.f_rows_select(rows));
  // Morsel-parallel scan. Row-store index-seeded selections seed their
  // bitmap serially from the index (already sub-linear), which dominates
  // them, so only scan-shaped selections are scaled.
  if (dop_ > 1 && !(store == StoreType::kRow && indexed)) {
    cost = cost / ParallelSpeedup(sp) + sp.c_parallel_merge_ms;
  }
  // Scan-shaped selections share a batch's decode pass; index-seeded
  // row-store selections never join a shared group and stay unscaled.
  if (!(store == StoreType::kRow && indexed)) {
    cost /= BatchSpeedup(sp);
  }
  return cost;
}

double CostModel::EncodingScanMultiplier(StoreType store,
                                         Encoding encoding) const {
  if (store != StoreType::kColumn) return 1.0;
  return ClampMultiplier(
      params_.of(store).c_encoding_scan[static_cast<int>(encoding)]);
}

double CostModel::PointSelectCost(StoreType store,
                                  size_t selected_columns) const {
  const StoreCostParams& sp = params_.of(store);
  return sp.base_point_select *
         ClampMultiplier(
             sp.f_selected_columns(static_cast<double>(selected_columns)));
}

double CostModel::EncodingReencodeMultiplier(StoreType store,
                                             Encoding encoding) const {
  if (store != StoreType::kColumn) return 1.0;
  return ClampMultiplier(
      params_.of(store).c_encoding_reencode[static_cast<int>(encoding)]);
}

double CostModel::InsertCost(StoreType store, double rows,
                             double encoding_reencode) const {
  const StoreCostParams& sp = params_.of(store);
  double cost = sp.base_insert * ClampMultiplier(sp.f_rows_insert(rows));
  // The re-encode term shifts only the merge share of the amortized insert
  // cost: cheaper codecs (raw copy, run emission) make merges — not the
  // delta append itself — faster.
  if (store == StoreType::kColumn && sp.c_merge_share > 0.0) {
    cost *= ClampMultiplier(
        1.0 + sp.c_merge_share * (ClampMultiplier(encoding_reencode) - 1.0));
  }
  return cost;
}

double CostModel::UpdateCost(StoreType store, size_t affected_columns,
                             double affected_rows, double rows) const {
  const StoreCostParams& sp = params_.of(store);
  double cost = sp.base_update;
  cost *= ClampMultiplier(
      sp.f_affected_columns(static_cast<double>(affected_columns)));
  cost *= std::max(sp.f_affected_rows(affected_rows), 0.0);
  cost *= ClampMultiplier(sp.f_rows_update(rows));
  return cost;
}

double CostModel::DeleteCost(StoreType store, double affected_rows,
                             double rows) const {
  // A delete behaves like a one-column update of the affected rows.
  return UpdateCost(store, 1, affected_rows, rows);
}

}  // namespace hsdb
