// Cost-model serialization round trips (format v3: per-codec scan and
// delta-merge re-encode terms), plus the stale-cache contract: persisted
// models from older format versions must be rejected so callers fall back
// to recalibration instead of silently running with missing encoding terms.
#include <gtest/gtest.h>

#include "core/calibration.h"
#include "core/cost_model.h"

namespace hsdb {
namespace {

/// Minimal deterministic probe engine: costs scale with the probe inputs so
/// every calibration fit is well-conditioned, without the full closed-form
/// surface calibration_test exercises.
class ScalingProbeRunner : public ProbeRunner {
 public:
  ProbeResult MeasureAggregation(StoreType store, AggFn fn, DataType,
                                 bool grouped, bool filtered, size_t rows,
                                 uint64_t distinct) override {
    double ms = (store == StoreType::kColumn ? 2.0 : 8.0) *
                (fn == AggFn::kCount ? 0.1 : 1.0) * (grouped ? 5.0 : 1.0) *
                (filtered ? 1.5 : 1.0) * static_cast<double>(rows) / 2e5;
    double rate = store == StoreType::kColumn
                      ? 0.1 + static_cast<double>(distinct % 4096) / 8192.0
                      : 1.0;
    return {ms, rate};
  }
  ProbeResult MeasureSelect(StoreType, size_t cols, double sel, bool,
                            size_t rows) override {
    return {(0.5 + 0.1 * cols) * (0.05 + 10.0 * sel) * rows / 2e5, 1.0};
  }
  ProbeResult MeasurePointSelect(StoreType, size_t) override {
    return {0.005, 1.0};
  }
  ProbeResult MeasureInsert(StoreType, size_t rows) override {
    return {0.01 + rows * 1e-8, 1.0};
  }
  ProbeResult MeasureUpdate(StoreType, size_t cols, size_t affected,
                            size_t rows) override {
    return {0.01 * (1.0 + cols) * affected * (0.5 + rows / 2e5), 1.0};
  }
  ProbeResult MeasureJoin(StoreType, StoreType, size_t fact,
                          size_t dim) override {
    return {fact * 1e-6 + dim * 1e-4, 1.0};
  }
  ProbeResult MeasureStitch(size_t rows) override {
    return {rows * 1e-6, 1.0};
  }
};

TEST(CostModelSerializationTest, DefaultRoundTrips) {
  CostModelParams original = CostModelParams::Default();
  std::string text = original.Serialize();
  Result<CostModelParams> restored = CostModelParams::Deserialize(text);
  ASSERT_TRUE(restored.ok());
  // Spot-check every parameter family.
  for (int s = 0; s < kNumStoreTypes; ++s) {
    for (int f = 0; f < kNumAggFns; ++f) {
      EXPECT_DOUBLE_EQ(restored->store[s].base_agg[f],
                       original.store[s].base_agg[f]);
    }
    for (int t = 0; t < kNumDataTypes; ++t) {
      EXPECT_DOUBLE_EQ(restored->store[s].c_data_type[t],
                       original.store[s].c_data_type[t]);
    }
    EXPECT_DOUBLE_EQ(restored->store[s].c_group_by,
                     original.store[s].c_group_by);
    EXPECT_DOUBLE_EQ(restored->store[s].f_rows_agg.slope,
                     original.store[s].f_rows_agg.slope);
    EXPECT_DOUBLE_EQ(restored->store[s].base_select,
                     original.store[s].base_select);
    EXPECT_DOUBLE_EQ(restored->store[s].f_selectivity_indexed.intercept,
                     original.store[s].f_selectivity_indexed.intercept);
    EXPECT_DOUBLE_EQ(restored->store[s].base_insert,
                     original.store[s].base_insert);
    EXPECT_DOUBLE_EQ(restored->store[s].f_affected_columns.slope,
                     original.store[s].f_affected_columns.slope);
    EXPECT_DOUBLE_EQ(restored->store[s].f_rows_build.slope,
                     original.store[s].f_rows_build.slope);
  }
  for (int f = 0; f < kNumStoreTypes; ++f) {
    for (int d = 0; d < kNumStoreTypes; ++d) {
      EXPECT_DOUBLE_EQ(restored->base_join[f][d], original.base_join[f][d]);
    }
  }
  EXPECT_DOUBLE_EQ(restored->f_stitch.slope, original.f_stitch.slope);
  EXPECT_DOUBLE_EQ(restored->c_union, original.c_union);
}

TEST(CostModelSerializationTest, PiecewiseKnotsPreserved) {
  CostModelParams p = CostModelParams::Default();
  p.of(StoreType::kColumn).f_compression_agg =
      PiecewiseLinearFn::FromKnots({0.1, 0.4, 0.9}, {0.6, 1.0, 1.3});
  Result<CostModelParams> restored =
      CostModelParams::Deserialize(p.Serialize());
  ASSERT_TRUE(restored.ok());
  const PiecewiseLinearFn& f =
      restored->of(StoreType::kColumn).f_compression_agg;
  ASSERT_EQ(f.num_knots(), 3u);
  EXPECT_DOUBLE_EQ(f(0.4), 1.0);
  EXPECT_DOUBLE_EQ(f(0.25), 0.8);
}

TEST(CostModelSerializationTest, EstimatesIdenticalAfterRoundTrip) {
  CostModelParams p = CostModelParams::Default();
  p.of(StoreType::kRow).base_agg[0] = 7.125;
  p.of(StoreType::kColumn).f_rows_agg = LinearFn{0.123, 4.56e-7};
  CostModel a(p);
  Result<CostModelParams> restored =
      CostModelParams::Deserialize(p.Serialize());
  ASSERT_TRUE(restored.ok());
  CostModel b(*restored);
  std::vector<AggSpec> aggs = {{AggFn::kSum, DataType::kDouble},
                               {AggFn::kMin, DataType::kInt32}};
  for (double rows : {1e4, 1e6, 2e7}) {
    EXPECT_DOUBLE_EQ(
        a.AggregationCost(StoreType::kColumn, aggs, true, false, rows, 0.4),
        b.AggregationCost(StoreType::kColumn, aggs, true, false, rows, 0.4));
    EXPECT_DOUBLE_EQ(a.SelectCost(StoreType::kRow, 3, 0.02, false, rows),
                     b.SelectCost(StoreType::kRow, 3, 0.02, false, rows));
    EXPECT_DOUBLE_EQ(a.UpdateCost(StoreType::kColumn, 4, 10, rows),
                     b.UpdateCost(StoreType::kColumn, 4, 10, rows));
  }
}

TEST(CostModelSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(CostModelParams::Deserialize("").ok());
  EXPECT_FALSE(CostModelParams::Deserialize("not a model").ok());
  // Truncated payload.
  std::string text = CostModelParams::Default().Serialize();
  EXPECT_FALSE(
      CostModelParams::Deserialize(text.substr(0, text.size() / 2)).ok());
}

TEST(CostModelSerializationTest, EncodingTermsRoundTrip) {
  CostModelParams p = CostModelParams::Default();
  StoreCostParams& cs = p.of(StoreType::kColumn);
  cs.c_encoding_scan[static_cast<int>(Encoding::kRle)] = 0.41;
  cs.c_encoding_scan[static_cast<int>(Encoding::kRaw)] = 1.37;
  cs.c_encoding_reencode[static_cast<int>(Encoding::kRle)] = 0.52;
  cs.c_encoding_reencode[static_cast<int>(Encoding::kRaw)] = 0.31;
  cs.c_merge_share = 0.45;
  cs.c_parallel_core = 0.83;
  cs.c_parallel_merge_ms = 0.017;
  cs.c_batch_scan_share = 0.27;
  Result<CostModelParams> restored =
      CostModelParams::Deserialize(p.Serialize());
  ASSERT_TRUE(restored.ok());
  for (int s = 0; s < kNumStoreTypes; ++s) {
    for (int e = 0; e < kNumEncodings; ++e) {
      EXPECT_DOUBLE_EQ(restored->store[s].c_encoding_scan[e],
                       p.store[s].c_encoding_scan[e]);
      EXPECT_DOUBLE_EQ(restored->store[s].c_encoding_reencode[e],
                       p.store[s].c_encoding_reencode[e]);
    }
    EXPECT_DOUBLE_EQ(restored->store[s].c_merge_share,
                     p.store[s].c_merge_share);
    EXPECT_DOUBLE_EQ(restored->store[s].c_parallel_core,
                     p.store[s].c_parallel_core);
    EXPECT_DOUBLE_EQ(restored->store[s].c_parallel_merge_ms,
                     p.store[s].c_parallel_merge_ms);
    EXPECT_DOUBLE_EQ(restored->store[s].c_batch_scan_share,
                     p.store[s].c_batch_scan_share);
  }
  // The re-encode term feeds the insert cost; estimates must survive the
  // round trip bit-exactly.
  CostModel a(p);
  CostModel b(*restored);
  for (double reencode : {0.3, 1.0, 1.8}) {
    EXPECT_DOUBLE_EQ(a.InsertCost(StoreType::kColumn, 1e6, reencode),
                     b.InsertCost(StoreType::kColumn, 1e6, reencode));
  }
}

TEST(CostModelSerializationTest, RejectsStaleFormatVersions) {
  std::string text = CostModelParams::Default().Serialize();
  ASSERT_NE(text.find("hsdb_cost_model_v8"), std::string::npos);
  // A v1 cache (no encoding terms at all), a v2 cache (scan terms but no
  // re-encode terms), a v3 cache (same fields, but calibrated against the
  // scalar decode loops the SIMD kernels replaced), a v4 cache (no
  // morsel-parallel scan terms), a v5 cache (no shared-scan batch term),
  // a v6 cache (same fields, but merge-free insert terms) and a v7 cache
  // (same fields, but scan multipliers fit on the bulk decode) must all
  // fail deserialization — the caller's cue to recalibrate rather than run
  // with a silently incomplete or stale model.
  for (const char* stale :
       {"hsdb_cost_model_v1", "hsdb_cost_model_v2", "hsdb_cost_model_v3",
        "hsdb_cost_model_v4", "hsdb_cost_model_v5", "hsdb_cost_model_v6",
        "hsdb_cost_model_v7"}) {
    std::string stale_text = text;
    stale_text.replace(stale_text.find("hsdb_cost_model_v8"),
                       std::string("hsdb_cost_model_v8").size(), stale);
    EXPECT_FALSE(CostModelParams::Deserialize(stale_text).ok()) << stale;
  }
}

TEST(CostModelSerializationTest, StaleCacheTriggersRecalibration) {
  // The persistence contract end to end: a stale v1 cache fails to load, the
  // caller recalibrates (with the per-codec microprobes), and the fresh
  // model — encoding terms included — round-trips for the next process.
  Result<CostModelParams> cached = CostModelParams::Deserialize(
      "hsdb_cost_model_v1\n1 2 3 4 5\n");
  ASSERT_FALSE(cached.ok());

  ScalingProbeRunner runner;
  CalibrationReport report = Calibrate(runner, CalibrationOptions{});
  const StoreCostParams& cs = report.params.of(StoreType::kColumn);
  // Measured re-encode terms: normalized to the dictionary, clamped sane.
  EXPECT_DOUBLE_EQ(
      cs.c_encoding_reencode[static_cast<int>(Encoding::kDictionary)], 1.0);
  for (int e = 0; e < kNumEncodings; ++e) {
    EXPECT_GE(cs.c_encoding_reencode[e], 0.2);
    EXPECT_LE(cs.c_encoding_reencode[e], 3.0);
    EXPECT_GE(cs.c_encoding_scan[e], 0.2);
    EXPECT_LE(cs.c_encoding_scan[e], 3.0);
  }

  Result<CostModelParams> reloaded =
      CostModelParams::Deserialize(report.params.Serialize());
  ASSERT_TRUE(reloaded.ok());
  for (int e = 0; e < kNumEncodings; ++e) {
    EXPECT_DOUBLE_EQ(
        reloaded->of(StoreType::kColumn).c_encoding_reencode[e],
        cs.c_encoding_reencode[e]);
  }
}

}  // namespace
}  // namespace hsdb
