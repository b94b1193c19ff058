#include "core/workload_cost.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "executor/database.h"
#include "workload/generator.h"

namespace hsdb {
namespace {

/// Every table in `store`, unpartitioned.
LayoutProvider AllIn(StoreType store) {
  return [store](const std::string&) {
    return LayoutContext::SingleStore(store);
  };
}

/// Each table in the store `stores` names, unpartitioned.
LayoutProvider Assigned(std::map<std::string, StoreType> stores) {
  return [stores = std::move(stores)](const std::string& name) {
    return LayoutContext::SingleStore(stores.at(name));
  };
}

class WorkloadCostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.name = "t";
    ASSERT_TRUE(db_.CreateTable("t", spec_.MakeSchema(),
                                TableLayout::SingleStore(StoreType::kRow))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_.catalog().GetTable("t"), spec_, 5000).ok());
    ASSERT_TRUE(db_.catalog().UpdateStatistics("t").ok());
  }

  WorkloadOptions OltpOnly() {
    WorkloadOptions o;
    o.olap_fraction = 0.0;
    return o;
  }

  Database db_;
  SyntheticTableSpec spec_;
  CostModel model_;
};

TEST_F(WorkloadCostTest, OltpCheaperOnRowStore) {
  WorkloadCostEstimator est(&model_, &db_.catalog());
  SyntheticWorkloadGenerator gen(spec_, 5000, OltpOnly());
  auto workload = ToWeighted(gen.Generate(200));
  double rs = est.WorkloadCost(workload, AllIn(StoreType::kRow));
  double cs = est.WorkloadCost(workload, AllIn(StoreType::kColumn));
  EXPECT_LT(rs, cs);
}

TEST_F(WorkloadCostTest, OlapCheaperOnColumnStore) {
  WorkloadCostEstimator est(&model_, &db_.catalog());
  WorkloadOptions o;
  o.olap_fraction = 1.0;
  SyntheticWorkloadGenerator gen(spec_, 5000, o);
  auto workload = ToWeighted(gen.Generate(50));
  double rs = est.WorkloadCost(workload, AllIn(StoreType::kRow));
  double cs = est.WorkloadCost(workload, AllIn(StoreType::kColumn));
  EXPECT_LT(cs, rs);
}

TEST_F(WorkloadCostTest, WeightsScaleLinearly) {
  WorkloadCostEstimator est(&model_, &db_.catalog());
  AggregationQuery q;
  q.tables = {"t"};
  q.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}}};
  std::vector<WeightedQuery> once = {{Query(q), 1.0}};
  std::vector<WeightedQuery> thrice = {{Query(q), 3.0}};
  double c1 = est.WorkloadCost(once, AllIn(StoreType::kColumn));
  double c3 = est.WorkloadCost(thrice, AllIn(StoreType::kColumn));
  EXPECT_NEAR(c3, 3.0 * c1, 1e-9);
}

TEST_F(WorkloadCostTest, SelectivityLowersSelectCost) {
  WorkloadCostEstimator est(&model_, &db_.catalog());
  auto select_with_range = [&](int64_t width) {
    SelectQuery s;
    s.table = "t";
    s.select_columns = {0};
    s.predicate = {{{spec_.id_column(), 0},
                    ValueRange::Between(Value(int64_t{0}),
                                        Value(width))}};
    return est.QueryCost(Query(s), [](const std::string&) {
      return LayoutContext::SingleStore(StoreType::kColumn);
    });
  };
  EXPECT_LT(select_with_range(10), select_with_range(4000));
}

TEST_F(WorkloadCostTest, VerticalLayoutHelpsColumnwiseSplitUsage) {
  // Updates touch filter attributes, aggregates touch keyfigures: a vertical
  // split should beat both single stores for a mixed workload.
  WorkloadCostEstimator est(&model_, &db_.catalog());
  std::vector<WeightedQuery> workload;
  {
    UpdateQuery u;
    u.table = "t";
    u.predicate = {{{spec_.id_column(), 0},
                    ValueRange::Eq(Value(int64_t{5}))}};
    u.set_columns = {spec_.filter(0)};
    u.set_values = {Value(int32_t{3})};
    workload.push_back({Query(u), 400.0});
  }
  {
    AggregationQuery a;
    a.tables = {"t"};
    a.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}}};
    workload.push_back({Query(a), 10.0});
  }
  double rs = est.WorkloadCost(workload, AllIn(StoreType::kRow));
  double cs = est.WorkloadCost(workload, AllIn(StoreType::kColumn));

  LayoutContext vertical;
  vertical.layout.base_store = StoreType::kColumn;
  std::vector<ColumnId> rs_cols;
  for (size_t i = 0; i < spec_.num_filters; ++i) {
    rs_cols.push_back(spec_.filter(i));
  }
  vertical.layout.vertical = VerticalSpec{rs_cols};
  double split = est.WorkloadCost(
      workload, [&](const std::string&) { return vertical; });
  EXPECT_LT(split, rs);
  EXPECT_LT(split, cs);
}

TEST_F(WorkloadCostTest, SpanningVerticalQueriesPayStitch) {
  WorkloadCostEstimator est(&model_, &db_.catalog());
  // Aggregation over a keyfigure filtered by a filter attribute, where the
  // vertical split separates them.
  AggregationQuery a;
  a.tables = {"t"};
  a.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}}};
  a.predicate = {{{spec_.filter(0), 0},
                  ValueRange::Between(Value(int32_t{0}),
                                      Value(int32_t{50}))}};
  LayoutContext split;
  split.layout.base_store = StoreType::kColumn;
  split.layout.vertical = VerticalSpec{{spec_.filter(0)}};
  LayoutContext covering = LayoutContext::SingleStore(StoreType::kColumn);
  double spanning_cost = est.QueryCost(
      Query(a), [&](const std::string&) { return split; });
  double covering_cost = est.QueryCost(
      Query(a), [&](const std::string&) { return covering; });
  EXPECT_GT(spanning_cost, covering_cost);
}

TEST_F(WorkloadCostTest, HorizontalHotPieceAbsorbsPointAccess) {
  WorkloadCostEstimator est(&model_, &db_.catalog());
  UpdateQuery u;
  u.table = "t";
  u.predicate = {{{spec_.id_column(), 0},
                  ValueRange::Eq(Value(int64_t{4990}))}};
  u.set_columns = {spec_.keyfigure(0)};
  u.set_values = {Value(1.0)};

  LayoutContext hot;
  hot.layout.base_store = StoreType::kColumn;
  hot.layout.horizontal = HorizontalSpec{0, 4500.0, StoreType::kRow};
  hot.hot_row_fraction = 0.1;
  hot.hot_access_fraction = 1.0;  // all updates hit the hot piece

  double partitioned =
      est.QueryCost(Query(u), [&](const std::string&) { return hot; });
  double cs_only = est.QueryCost(Query(u), [](const std::string&) {
    return LayoutContext::SingleStore(StoreType::kColumn);
  });
  EXPECT_LT(partitioned, cs_only);
}

TEST_F(WorkloadCostTest, JoinCostDependsOnBothStores) {
  StarSchemaSpec star;
  ASSERT_TRUE(db_.CreateTable("fact", star.MakeFactSchema(),
                              TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(db_.CreateTable("dim", star.MakeDimSchema(),
                              TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(PopulateStarSchema(db_.catalog().GetTable("fact"),
                                 db_.catalog().GetTable("dim"), star, 2000)
                  .ok());
  db_.catalog().UpdateAllStatistics();

  WorkloadCostEstimator est(&model_, &db_.catalog());
  AggregationQuery q;
  q.tables = {"fact", "dim"};
  q.joins = {{0, star.fact_dim_fk(), 1, star.dim_id()}};
  q.aggregates = {{AggFn::kSum, {star.fact_keyfigure(0), 0}}};

  std::map<std::string, StoreType> rr = {{"fact", StoreType::kRow},
                                         {"dim", StoreType::kRow}};
  std::map<std::string, StoreType> cr = {{"fact", StoreType::kColumn},
                                         {"dim", StoreType::kRow}};
  std::map<std::string, StoreType> cc = {{"fact", StoreType::kColumn},
                                         {"dim", StoreType::kColumn}};
  std::vector<WeightedQuery> w = {{Query(q), 1.0}};
  double c_rr = est.WorkloadCost(w, Assigned(rr));
  double c_cr = est.WorkloadCost(w, Assigned(cr));
  double c_cc = est.WorkloadCost(w, Assigned(cc));
  EXPECT_NE(c_rr, c_cr);
  EXPECT_NE(c_cr, c_cc);
}

TEST_F(WorkloadCostTest, NegativeInterceptsNeverMakeAQueryNegative) {
  StarSchemaSpec star;
  ASSERT_TRUE(db_.CreateTable("fact", star.MakeFactSchema(),
                              TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(db_.CreateTable("dim", star.MakeDimSchema(),
                              TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(PopulateStarSchema(db_.catalog().GetTable("fact"),
                                 db_.catalog().GetTable("dim"), star, 2000)
                  .ok());
  db_.catalog().UpdateAllStatistics();

  // A calibration can fit any term with a negative intercept; extrapolated
  // below its sampled range such a term goes negative.
  CostModelParams params = CostModelParams::Default();
  auto negate = [](LinearFn* f) {
    f->intercept = -100.0 - std::abs(f->intercept);
  };
  for (StoreType store : {StoreType::kRow, StoreType::kColumn}) {
    StoreCostParams& sp = params.of(store);
    for (LinearFn* f :
         {&sp.f_rows_agg, &sp.f_selected_columns, &sp.f_selectivity_indexed,
          &sp.f_selectivity_scan, &sp.f_rows_select, &sp.f_rows_insert,
          &sp.f_affected_columns, &sp.f_affected_rows, &sp.f_rows_update,
          &sp.f_rows_probe, &sp.f_rows_build}) {
      negate(f);
    }
    sp.f_compression_agg = PiecewiseLinearFn::Constant(-1.0);
  }
  negate(&params.f_stitch);
  CostModel model(params);
  WorkloadCostEstimator est(&model, &db_.catalog());

  const Predicate on_filter = {
      {{spec_.filter(0), 0},
       ValueRange::Between(Value(int32_t{0}), Value(int32_t{50}))}};
  const Predicate on_key = {
      {{spec_.id_column(), 0}, ValueRange::Eq(Value(int64_t{4990}))}};
  std::vector<std::pair<std::string, Query>> queries;
  {
    AggregationQuery a;
    a.tables = {"t"};
    a.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}}};
    a.group_by = {{spec_.group(0), 0}};
    a.predicate = on_filter;  // spans a vertical split of filter(0)
    queries.push_back({"aggregation", Query(a)});
  }
  {
    SelectQuery s;
    s.table = "t";
    s.select_columns = {spec_.keyfigure(0), spec_.filter(0)};
    s.predicate = on_filter;
    queries.push_back({"range select", Query(s)});
    s.predicate = on_key;
    queries.push_back({"point select", Query(s)});
  }
  queries.push_back(
      {"insert", Query(InsertQuery{"t", SyntheticRow(spec_, 9000)})});
  {
    UpdateQuery u;
    u.table = "t";
    u.predicate = on_key;
    u.set_columns = {spec_.keyfigure(0), spec_.filter(0)};
    u.set_values = {Value(1.0), Value(int32_t{1})};
    queries.push_back({"update", Query(u)});
  }
  queries.push_back({"delete", Query(DeleteQuery{"t", on_filter})});
  {
    AggregationQuery j;
    j.tables = {"fact", "dim"};
    j.joins = {{0, star.fact_dim_fk(), 1, star.dim_id()}};
    j.aggregates = {{AggFn::kSum, {star.fact_keyfigure(0), 0}}};
    queries.push_back({"join aggregation", Query(j)});
  }

  LayoutContext vertical;
  vertical.layout.base_store = StoreType::kColumn;
  vertical.layout.vertical = VerticalSpec{{spec_.filter(0)}};
  LayoutContext horizontal;
  horizontal.layout.base_store = StoreType::kColumn;
  horizontal.layout.horizontal = HorizontalSpec{0, 4500.0, StoreType::kRow};
  horizontal.hot_row_fraction = 0.1;
  LayoutContext both = horizontal;
  both.layout.vertical = vertical.layout.vertical;
  const std::vector<std::pair<std::string, LayoutContext>> layouts = {
      {"RS", LayoutContext::SingleStore(StoreType::kRow)},
      {"CS", LayoutContext::SingleStore(StoreType::kColumn)},
      {"vertical", vertical},
      {"horizontal", horizontal},
      {"both", both}};
  for (const auto& [layout_name, ctx] : layouts) {
    for (const auto& [query_name, query] : queries) {
      const double cost =
          est.QueryCost(query, [&](const std::string& name) {
            return name == "t"
                       ? ctx
                       : LayoutContext::SingleStore(ctx.layout.base_store);
          });
      EXPECT_GE(cost, 0.0) << query_name << " on " << layout_name;
    }
  }
}

TEST_F(WorkloadCostTest, KeyOnlyAggregationOnVerticalSplitScansRowPiece) {
  // Both pieces of a vertical split hold the key; the engine serves a read
  // of key columns only from the first, the row-store piece.
  WorkloadCostEstimator est(&model_, &db_.catalog());
  LayoutContext split;
  split.layout.base_store = StoreType::kColumn;
  split.layout.vertical = VerticalSpec{{spec_.filter(0)}};
  AggregationQuery count;
  count.tables = {"t"};
  count.aggregates = {{AggFn::kCount, {}}};
  AggregationQuery count_range = count;
  count_range.predicate = {{{spec_.id_column(), 0},
                            ValueRange::AtMost(Value(int64_t{2500}))}};
  for (const AggregationQuery& q : {count, count_range}) {
    EXPECT_DOUBLE_EQ(
        est.QueryCost(Query(q), [&](const std::string&) { return split; }),
        est.QueryCost(Query(q), AllIn(StoreType::kRow)));
  }
}

TEST_F(WorkloadCostTest, StarJoinSpanningFactSplitPaysStitch) {
  StarSchemaSpec star;
  ASSERT_TRUE(db_.CreateTable("fact", star.MakeFactSchema(),
                              TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(db_.CreateTable("dim", star.MakeDimSchema(),
                              TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(PopulateStarSchema(db_.catalog().GetTable("fact"),
                                 db_.catalog().GetTable("dim"), star, 2000)
                  .ok());
  db_.catalog().UpdateAllStatistics();
  WorkloadCostEstimator est(&model_, &db_.catalog());
  AggregationQuery q;
  q.tables = {"fact", "dim"};
  q.joins = {{0, star.fact_dim_fk(), 1, star.dim_id()}};
  q.aggregates = {{AggFn::kSum, {star.fact_keyfigure(0), 0}}};

  // The join reads the key and a keyfigure: a split that sends the key to
  // the row store spans them, one that sends a filter there does not. One
  // codec throughout keeps the scan multiplier out of the comparison.
  auto split_off = [&](ColumnId col) {
    LayoutContext ctx;
    ctx.layout.base_store = StoreType::kColumn;
    ctx.layout.vertical = VerticalSpec{{col}};
    ctx.encodings.assign(star.MakeFactSchema().num_columns(),
                         Encoding::kDictionary);
    return [ctx](const std::string& name) {
      return name == "fact" ? ctx
                            : LayoutContext::SingleStore(StoreType::kColumn);
    };
  };
  const double spanning =
      est.QueryCost(Query(q), split_off(star.fact_dim_fk()));
  const double covered =
      est.QueryCost(Query(q), split_off(star.fact_filter(0)));
  const double rows =
      static_cast<double>(db_.catalog().GetStatistics("fact")->row_count);
  EXPECT_GT(spanning, covered);
  EXPECT_NEAR(spanning, covered + model_.StitchCost(rows), 1e-9);
}

TEST_F(WorkloadCostTest, PkPointInsideMultiTermPredicateIsPricedAsScan) {
  // Only a predicate that is exactly the key point takes the hash-index
  // path; with a second term the row store scans.
  WorkloadCostEstimator est(&model_, &db_.catalog());
  SelectQuery s;
  s.table = "t";
  s.select_columns = {spec_.keyfigure(1)};
  s.predicate = {
      {{spec_.id_column(), 0}, ValueRange::Eq(Value(int64_t{10}))},
      {{spec_.keyfigure(0), 0}, ValueRange::AtMost(Value(5000.0))}};
  const TableStatistics* stats = db_.catalog().GetStatistics("t");
  ASSERT_NE(stats, nullptr);
  double selectivity = 1.0;
  for (const PredicateTerm& term : s.predicate) {
    selectivity *= stats->EstimateSelectivity(term.column.column, term.range);
  }
  selectivity = std::clamp(selectivity, 0.0, 1.0);
  const double rows = static_cast<double>(stats->row_count);
  const double cost = est.QueryCost(Query(s), AllIn(StoreType::kRow));
  EXPECT_DOUBLE_EQ(cost, model_.SelectCost(StoreType::kRow, 1, selectivity,
                                           /*indexed=*/false, rows));
  EXPECT_NE(cost, model_.SelectCost(StoreType::kRow, 1, selectivity,
                                    /*indexed=*/true, rows));
}

TEST_F(WorkloadCostTest, UnknownTableCostsZero) {
  WorkloadCostEstimator est(&model_, &db_.catalog());
  SelectQuery s;
  s.table = "missing";
  s.select_columns = {0};
  EXPECT_DOUBLE_EQ(est.QueryCost(Query(s), [](const std::string&) {
    return LayoutContext::SingleStore(StoreType::kRow);
  }), 0.0);
}

}  // namespace
}  // namespace hsdb
