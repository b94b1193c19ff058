#include "core/cost_model.h"

#include <gtest/gtest.h>

namespace hsdb {
namespace {

TEST(CostModelTest, DefaultsEncodeStoreAsymmetries) {
  CostModel model;
  const CostModelParams& p = model.params();
  // Column store aggregates cheaper, row store writes cheaper.
  EXPECT_LT(p.of(StoreType::kColumn).base_agg[0],
            p.of(StoreType::kRow).base_agg[0]);
  EXPECT_LT(p.of(StoreType::kRow).base_insert,
            p.of(StoreType::kColumn).base_insert);
  EXPECT_LT(p.of(StoreType::kRow).base_update,
            p.of(StoreType::kColumn).base_update);
}

TEST(CostModelTest, AggregationIsMultiplicative) {
  CostModel model;
  std::vector<AggSpec> one = {{AggFn::kSum, DataType::kDouble}};
  double base = model.AggregationCost(StoreType::kRow, one, false, false,
                                      1'000'000, 1.0);
  double grouped = model.AggregationCost(StoreType::kRow, one, true, false,
                                         1'000'000, 1.0);
  EXPECT_NEAR(grouped / base, model.params().of(StoreType::kRow).c_group_by,
              1e-9);
  // Filtered aggregation = filter pass over all rows (c_agg_filter) plus
  // aggregation work over the selected fraction.
  double sel = 0.25;
  double filtered = model.AggregationCost(StoreType::kRow, one, false, true,
                                          1'000'000, 1.0, sel);
  EXPECT_NEAR(filtered / base,
              model.params().of(StoreType::kRow).c_agg_filter + sel, 1e-9);
}

TEST(CostModelTest, MultipleAggregatesAddBaseCosts) {
  // The paper's two-aggregate example: base terms add, shared adjustments
  // multiply.
  CostModel model;
  std::vector<AggSpec> sum_only = {{AggFn::kSum, DataType::kDouble}};
  std::vector<AggSpec> avg_only = {{AggFn::kAvg, DataType::kInt32}};
  std::vector<AggSpec> both = {{AggFn::kSum, DataType::kDouble},
                               {AggFn::kAvg, DataType::kInt32}};
  double rows = 500'000;
  double a = model.AggregationCost(StoreType::kColumn, sum_only, true, false,
                                   rows, 0.7);
  double b = model.AggregationCost(StoreType::kColumn, avg_only, true, false,
                                   rows, 0.7);
  double ab = model.AggregationCost(StoreType::kColumn, both, true, false,
                                    rows, 0.7);
  EXPECT_NEAR(ab, a + b, 1e-9);
}

TEST(CostModelTest, AggregationScalesLinearlyWithRows) {
  CostModel model;
  std::vector<AggSpec> aggs = {{AggFn::kSum, DataType::kDouble}};
  double c1 = model.AggregationCost(StoreType::kColumn, aggs, false, false,
                                    1'000'000, 0.5);
  double c2 = model.AggregationCost(StoreType::kColumn, aggs, false, false,
                                    2'000'000, 0.5);
  EXPECT_NEAR(c2 / c1, 2.0, 1e-6);
}

TEST(CostModelTest, CompressionAffectsOnlyColumnStore) {
  CostModel model;
  std::vector<AggSpec> aggs = {{AggFn::kSum, DataType::kDouble}};
  double rs_low = model.AggregationCost(StoreType::kRow, aggs, false, false,
                                        1e6, 0.1);
  double rs_high = model.AggregationCost(StoreType::kRow, aggs, false, false,
                                         1e6, 1.0);
  EXPECT_DOUBLE_EQ(rs_low, rs_high);
  double cs_low = model.AggregationCost(StoreType::kColumn, aggs, false,
                                        false, 1e6, 0.1);
  double cs_high = model.AggregationCost(StoreType::kColumn, aggs, false,
                                         false, 1e6, 1.0);
  EXPECT_LT(cs_low, cs_high);  // better compression -> cheaper scan
}

TEST(CostModelTest, SelectIndexedVsScan) {
  CostModel model;
  // Row store: a low-selectivity select is much cheaper with an index.
  double indexed =
      model.SelectCost(StoreType::kRow, 2, 0.001, true, 1'000'000);
  double scan = model.SelectCost(StoreType::kRow, 2, 0.001, false, 1'000'000);
  EXPECT_LT(indexed, scan);
  // Column store ignores the index flag (implicit dictionary index).
  double cs_a = model.SelectCost(StoreType::kColumn, 2, 0.001, true, 1e6);
  double cs_b = model.SelectCost(StoreType::kColumn, 2, 0.001, false, 1e6);
  EXPECT_DOUBLE_EQ(cs_a, cs_b);
}

TEST(CostModelTest, SelectedColumnsOnlyMatterForColumnStore) {
  CostModel model;
  double rs_1 = model.SelectCost(StoreType::kRow, 1, 0.01, true, 1e6);
  double rs_8 = model.SelectCost(StoreType::kRow, 8, 0.01, true, 1e6);
  EXPECT_DOUBLE_EQ(rs_1, rs_8);  // f_selectedColumns constant for RS
  double cs_1 = model.SelectCost(StoreType::kColumn, 1, 0.01, true, 1e6);
  double cs_8 = model.SelectCost(StoreType::kColumn, 8, 0.01, true, 1e6);
  EXPECT_LT(cs_1, cs_8);  // tuple reconstruction
}

TEST(CostModelTest, UpdateGrowsWithWidthAndRows) {
  CostModel model;
  double narrow = model.UpdateCost(StoreType::kColumn, 1, 1, 1e6);
  double wide = model.UpdateCost(StoreType::kColumn, 10, 1, 1e6);
  EXPECT_LT(narrow, wide);
  double one = model.UpdateCost(StoreType::kRow, 1, 1, 1e6);
  double many = model.UpdateCost(StoreType::kRow, 1, 100, 1e6);
  EXPECT_LT(one * 50, many);  // ~linear in affected rows
}

TEST(CostModelTest, JoinCombinationsDiffer) {
  CostModel model;
  std::vector<AggSpec> aggs = {{AggFn::kSum, DataType::kDouble}};
  std::vector<CostModel::JoinSide> dim_rs = {
      {StoreType::kRow, 1000, 1.0}};
  std::vector<CostModel::JoinSide> dim_cs = {
      {StoreType::kColumn, 1000, 0.5}};
  double rr = model.JoinAggregationCost(StoreType::kRow, aggs, false, false,
                                        1e6, 1.0, dim_rs);
  double rc = model.JoinAggregationCost(StoreType::kRow, aggs, false, false,
                                        1e6, 1.0, dim_cs);
  double cr = model.JoinAggregationCost(StoreType::kColumn, aggs, false,
                                        false, 1e6, 0.5, dim_rs);
  double cc = model.JoinAggregationCost(StoreType::kColumn, aggs, false,
                                        false, 1e6, 0.5, dim_cs);
  // All four combinations produce distinct estimates (the paper's "four
  // estimates for the join of two tables").
  EXPECT_NE(rr, rc);
  EXPECT_NE(rr, cr);
  EXPECT_NE(cc, rc);
  EXPECT_GT(rr, 0);
  EXPECT_GT(cc, 0);
}

TEST(CostModelTest, JoinScalesWithBothSides) {
  CostModel model;
  std::vector<AggSpec> aggs = {{AggFn::kSum, DataType::kDouble}};
  auto cost = [&](double fact_rows, double dim_rows) {
    std::vector<CostModel::JoinSide> dims = {
        {StoreType::kRow, dim_rows, 1.0}};
    return model.JoinAggregationCost(StoreType::kRow, aggs, false, false,
                                     fact_rows, 1.0, dims);
  };
  EXPECT_LT(cost(1e6, 1000), cost(2e6, 1000));
  EXPECT_LT(cost(1e6, 1000), cost(1e6, 100'000));
}

TEST(CostModelTest, NegativeExtrapolationIsClamped) {
  CostModelParams params = CostModelParams::Default();
  // A fitted function whose left extrapolation dips negative.
  params.of(StoreType::kRow).f_rows_agg = LinearFn{-0.5, 1e-6};
  CostModel model(params);
  std::vector<AggSpec> aggs = {{AggFn::kSum, DataType::kDouble}};
  double cost =
      model.AggregationCost(StoreType::kRow, aggs, false, false, 10, 1.0);
  EXPECT_GT(cost, 0.0);
}

TEST(CostModelTest, NegativeStitchExtrapolationIsClamped) {
  CostModelParams params = CostModelParams::Default();
  // A fitted stitch function whose intercept is negative: fit on 50k-1M
  // rows, it dips below zero for the few rows a selective select stitches.
  params.f_stitch = LinearFn{-28.0, 6.1e-4};
  CostModel model(params);
  EXPECT_EQ(model.StitchCost(1.0), 0.0);
  EXPECT_EQ(model.StitchCost(0.0), 0.0);
  // Past the root the fit applies unchanged.
  EXPECT_NEAR(model.StitchCost(1e6), 610.0 - 28.0, 1e-9);
}

TEST(CostModelTest, StitchAndUnionHelpers) {
  CostModel model;
  EXPECT_GT(model.StitchCost(1e6), model.StitchCost(1e3));
  EXPECT_GT(model.UnionOverhead(), 0.0);
}

TEST(CostModelTest, ParamsToStringSmoke) {
  EXPECT_FALSE(CostModelParams::Default().ToString().empty());
}

TEST(CostModelTest, InsertReencodeTermScalesMergeShareOnly) {
  CostModel model;
  const double rows = 5e5;
  double base = model.InsertCost(StoreType::kColumn, rows);
  // Cheaper re-encoding (raw copy at merge time) lowers the column-store
  // insert cost, costlier re-encoding raises it — but only by the merge
  // share, never proportionally.
  double cheap = model.InsertCost(StoreType::kColumn, rows, 0.4);
  double costly = model.InsertCost(StoreType::kColumn, rows, 2.0);
  EXPECT_LT(cheap, base);
  EXPECT_GT(costly, base);
  double share =
      model.params().of(StoreType::kColumn).c_merge_share;
  EXPECT_NEAR(cheap, base * (1.0 + share * (0.4 - 1.0)), 1e-12);
  EXPECT_NEAR(costly, base * (1.0 + share * (2.0 - 1.0)), 1e-12);
  // The row store has no delta merges: the term is inert there.
  EXPECT_DOUBLE_EQ(model.InsertCost(StoreType::kRow, rows, 0.4),
                   model.InsertCost(StoreType::kRow, rows));
  // Multiplier accessor mirrors the clamped parameter table.
  EXPECT_DOUBLE_EQ(
      model.EncodingReencodeMultiplier(StoreType::kRow, Encoding::kRaw), 1.0);
  EXPECT_LT(model.EncodingReencodeMultiplier(StoreType::kColumn,
                                             Encoding::kRaw),
            model.EncodingReencodeMultiplier(StoreType::kColumn,
                                             Encoding::kDictionary));
}

TEST(CostModelTest, BatchWidthAmortizesScanShapedCosts) {
  CostModel model;
  std::vector<AggSpec> aggs = {{AggFn::kSum, DataType::kDouble}};
  double solo =
      model.AggregationCost(StoreType::kColumn, aggs, false, true, 1e6, 0.2);
  double select_solo = model.SelectCost(StoreType::kColumn, 4, 0.1, false, 1e6);

  // Width 1 is the identity.
  model.set_batch_width(1);
  EXPECT_DOUBLE_EQ(
      model.AggregationCost(StoreType::kColumn, aggs, false, true, 1e6, 0.2),
      solo);

  // Wider batches amortize the shared decode pass, monotonically, and never
  // below the unamortizable share of the per-query cost.
  model.set_batch_width(4);
  double w4 =
      model.AggregationCost(StoreType::kColumn, aggs, false, true, 1e6, 0.2);
  model.set_batch_width(16);
  double w16 =
      model.AggregationCost(StoreType::kColumn, aggs, false, true, 1e6, 0.2);
  EXPECT_LT(w4, solo);
  EXPECT_LT(w16, w4);
  double share =
      model.params().of(StoreType::kColumn).c_batch_scan_share;
  EXPECT_GT(w16, solo * share * 0.99);

  // Scan-shaped selections amortize too ...
  EXPECT_LT(model.SelectCost(StoreType::kColumn, 4, 0.1, false, 1e6),
            select_solo);
  // ... but index-seeded row-store selections and point lookups are
  // delegated out of shared groups: their costs must not move.
  model.set_batch_width(1);
  double row_indexed = model.SelectCost(StoreType::kRow, 4, 0.001, true, 1e6);
  double point = model.PointSelectCost(StoreType::kRow, 4);
  model.set_batch_width(16);
  EXPECT_DOUBLE_EQ(model.SelectCost(StoreType::kRow, 4, 0.001, true, 1e6),
                   row_indexed);
  EXPECT_DOUBLE_EQ(model.PointSelectCost(StoreType::kRow, 4), point);

  // The column store amortizes more than the row store (its decode pass is
  // the part sharing removes).
  model.set_batch_width(1);
  double rs_base =
      model.AggregationCost(StoreType::kRow, aggs, false, true, 1e6, 0.2);
  model.set_batch_width(8);
  double cs_ratio =
      model.AggregationCost(StoreType::kColumn, aggs, false, true, 1e6, 0.2) /
      solo;
  double rs_ratio =
      model.AggregationCost(StoreType::kRow, aggs, false, true, 1e6, 0.2) /
      rs_base;
  EXPECT_LT(cs_ratio, rs_ratio);
}

}  // namespace
}  // namespace hsdb
