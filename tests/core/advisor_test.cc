// Tests for TableAdvisor, SplitCandidates and the StorageAdvisor facade.
#include "core/advisor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/generator.h"
#include "workload/runner.h"

namespace hsdb {
namespace {

class AdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.name = "t";
    ASSERT_TRUE(db_.CreateTable("t", spec_.MakeSchema(),
                                TableLayout::SingleStore(StoreType::kRow))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_.catalog().GetTable("t"), spec_, 5000).ok());
    db_.catalog().UpdateAllStatistics();
  }

  std::vector<WeightedQuery> MixedWorkload(double olap_fraction,
                                           size_t count = 400,
                                           uint64_t seed = 11) {
    WorkloadOptions o;
    o.olap_fraction = olap_fraction;
    o.seed = seed;
    SyntheticWorkloadGenerator gen(spec_, 5000, o);
    return ToWeighted(gen.Generate(count));
  }

  Database db_;
  SyntheticTableSpec spec_;
  CostModel model_;
};

TEST_F(AdvisorTest, TableAdvisorPrefersRowStoreForPureOltp) {
  TableAdvisor advisor(&model_, &db_.catalog());
  TableAdvisorResult r = advisor.Recommend(MixedWorkload(0.0));
  ASSERT_EQ(r.assignment.size(), 1u);
  EXPECT_EQ(r.assignment.at("t"), StoreType::kRow);
  EXPECT_DOUBLE_EQ(r.estimated_cost_ms, r.rs_only_cost_ms);
  EXPECT_LT(r.rs_only_cost_ms, r.cs_only_cost_ms);
}

TEST_F(AdvisorTest, TableAdvisorPrefersColumnStoreForOlapHeavy) {
  TableAdvisor advisor(&model_, &db_.catalog());
  TableAdvisorResult r = advisor.Recommend(MixedWorkload(0.9));
  EXPECT_EQ(r.assignment.at("t"), StoreType::kColumn);
  EXPECT_LT(r.cs_only_cost_ms, r.rs_only_cost_ms);
}

TEST_F(AdvisorTest, RecommendationIsArgminOfModel) {
  // Across the OLAP sweep, the advisor's choice must always cost no more
  // than either single-store baseline under its own model.
  TableAdvisor advisor(&model_, &db_.catalog());
  for (double frac : {0.0, 0.01, 0.02, 0.05, 0.2, 1.0}) {
    TableAdvisorResult r = advisor.Recommend(MixedWorkload(frac));
    EXPECT_LE(r.estimated_cost_ms, r.rs_only_cost_ms + 1e-9) << frac;
    EXPECT_LE(r.estimated_cost_ms, r.cs_only_cost_ms + 1e-9) << frac;
  }
}

TEST_F(AdvisorTest, CrossoverMovesWithOlapFraction) {
  TableAdvisor advisor(&model_, &db_.catalog());
  StoreType at_zero =
      advisor.Recommend(MixedWorkload(0.0)).assignment.at("t");
  StoreType at_one = advisor.Recommend(MixedWorkload(1.0)).assignment.at("t");
  EXPECT_EQ(at_zero, StoreType::kRow);
  EXPECT_EQ(at_one, StoreType::kColumn);
}

TEST_F(AdvisorTest, HillClimbMatchesExhaustiveOnSmallSchemas) {
  StarSchemaSpec star;
  ASSERT_TRUE(db_.CreateTable("fact", star.MakeFactSchema(),
                              TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(db_.CreateTable("dim", star.MakeDimSchema(),
                              TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(PopulateStarSchema(db_.catalog().GetTable("fact"),
                                 db_.catalog().GetTable("dim"), star, 3000)
                  .ok());
  db_.catalog().UpdateAllStatistics();
  WorkloadOptions o;
  o.olap_fraction = 0.05;
  StarWorkloadGenerator gen(star, 3000, o);
  auto star_workload = ToWeighted(gen.Generate(300));
  // Plus the single-table mix so three tables are involved.
  auto mixed = MixedWorkload(0.05, 200);
  for (auto& wq : mixed) star_workload.push_back(wq);

  TableAdvisor exhaustive(&model_, &db_.catalog());
  TableAdvisor::Options greedy_opts;
  greedy_opts.exhaustive_limit = 0;  // force hill climbing
  TableAdvisor greedy(&model_, &db_.catalog(), greedy_opts);
  TableAdvisorResult e = exhaustive.Recommend(star_workload);
  TableAdvisorResult g = greedy.Recommend(star_workload);
  EXPECT_TRUE(e.exhaustive);
  EXPECT_FALSE(g.exhaustive);
  EXPECT_NEAR(e.estimated_cost_ms, g.estimated_cost_ms,
              1e-6 * e.estimated_cost_ms);
  EXPECT_EQ(e.assignment, g.assignment);
}

/// The candidates with (`horizontal`, `vertical`) split parts.
std::vector<LayoutCandidate> WithSplits(
    const std::vector<LayoutCandidate>& candidates, bool horizontal,
    bool vertical) {
  std::vector<LayoutCandidate> out;
  for (const LayoutCandidate& c : candidates) {
    if (c.context.layout.horizontal.has_value() == horizontal &&
        c.context.layout.vertical.has_value() == vertical) {
      out.push_back(c);
    }
  }
  return out;
}

bool InRowStorePiece(const TableLayout& layout, ColumnId col) {
  const std::vector<ColumnId>& rs = layout.vertical->row_store_columns;
  return std::find(rs.begin(), rs.end(), col) != rs.end();
}

TEST_F(AdvisorTest, SplitCandidatesProposeVerticalForOltpAttributes) {
  // Updates hammer filter attributes while aggregates read keyfigures.
  WorkloadStatistics stats;
  UpdateQuery u;
  u.table = "t";
  u.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{7}))}};
  u.set_columns = {spec_.filter(0), spec_.filter(1)};
  u.set_values = {Value(int32_t{1}), Value(int32_t{2})};
  for (int i = 0; i < 300; ++i) stats.Record(Query(u), db_.catalog());
  AggregationQuery a;
  a.tables = {"t"};
  a.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}}};
  a.group_by = {{spec_.group(0), 0}};
  for (int i = 0; i < 20; ++i) stats.Record(Query(a), db_.catalog());

  // One key is updated, not a range at the top of the domain, and nothing
  // is inserted: the vertical split is the only proposal.
  std::vector<LayoutCandidate> candidates =
      SplitCandidates(db_.catalog(), "t", *stats.table("t"));
  ASSERT_EQ(candidates.size(), 1u);
  const TableLayout& layout = candidates[0].context.layout;
  ASSERT_TRUE(layout.vertical.has_value());
  EXPECT_FALSE(layout.horizontal.has_value());
  EXPECT_EQ(layout.base_store, StoreType::kColumn);
  // The updated filter columns go to the row store piece, the keyfigures
  // stay in the column piece.
  EXPECT_TRUE(InRowStorePiece(layout, spec_.filter(0)));
  EXPECT_TRUE(InRowStorePiece(layout, spec_.filter(1)));
  EXPECT_FALSE(InRowStorePiece(layout, spec_.keyfigure(0)));
  EXPECT_NE(candidates[0].reason.find("vertical"), std::string::npos);
}

TEST_F(AdvisorTest, SplitCandidatesProposeInsertPartition) {
  WorkloadStatistics stats;
  for (int i = 0; i < 200; ++i) {
    InsertQuery ins{"t", SyntheticRow(spec_, 100'000 + i)};
    stats.Record(Query(ins), db_.catalog());
  }
  AggregationQuery a;
  a.tables = {"t"};
  a.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}}};
  for (int i = 0; i < 10; ++i) stats.Record(Query(a), db_.catalog());

  std::vector<LayoutCandidate> candidates =
      SplitCandidates(db_.catalog(), "t", *stats.table("t"));
  ASSERT_EQ(candidates.size(), 1u);
  const LayoutContext& ctx = candidates[0].context;
  ASSERT_TRUE(ctx.layout.horizontal.has_value());
  EXPECT_FALSE(ctx.layout.vertical.has_value());
  EXPECT_EQ(ctx.layout.horizontal->hot_store, StoreType::kRow);
  // Boundary above the loaded key range: a fresh-data partition that holds
  // no rows yet and takes no point access.
  EXPECT_GT(ctx.layout.horizontal->boundary, 4999.0);
  EXPECT_EQ(ctx.hot_row_fraction, 0.0);
  EXPECT_EQ(ctx.hot_access_fraction, 0.0);
  EXPECT_NE(candidates[0].reason.find("insert fraction"), std::string::npos);
}

TEST_F(AdvisorTest, SplitCandidatesFindHotUpdateRange) {
  WorkloadStatistics stats;
  Rng rng(3);
  // Whole-tuple updates concentrated on the top 10% of keys (the paper's
  // "tuples that are frequently updated as a whole").
  for (int i = 0; i < 500; ++i) {
    UpdateQuery u;
    u.table = "t";
    u.predicate = {{{0, 0},
                    ValueRange::Eq(Value(rng.UniformInt(4500, 4999)))}};
    for (size_t k = 0; k < spec_.num_keyfigures; ++k) {
      u.set_columns.push_back(spec_.keyfigure(k));
      u.set_values.push_back(Value(1.0 * k));
    }
    for (size_t f = 0; f < spec_.num_filters; ++f) {
      u.set_columns.push_back(spec_.filter(f));
      u.set_values.push_back(Value(int32_t(f)));
    }
    stats.Record(Query(u), db_.catalog());
  }
  AggregationQuery a;
  a.tables = {"t"};
  a.aggregates = {{AggFn::kSum, {spec_.keyfigure(1), 0}}};
  for (int i = 0; i < 25; ++i) stats.Record(Query(a), db_.catalog());

  std::vector<LayoutCandidate> horizontal = WithSplits(
      SplitCandidates(db_.catalog(), "t", *stats.table("t")), true, false);
  ASSERT_EQ(horizontal.size(), 1u);
  const LayoutContext& ctx = horizontal[0].context;
  EXPECT_EQ(ctx.layout.horizontal->hot_store, StoreType::kRow);
  // Boundary near the start of the hot range.
  EXPECT_NEAR(ctx.layout.horizontal->boundary, 4500.0, 300.0);
  EXPECT_NEAR(ctx.hot_row_fraction, 0.1, 0.08);
  EXPECT_GT(ctx.hot_access_fraction, 0.9);
  EXPECT_NE(horizontal[0].reason.find("hot update range"), std::string::npos);
}

TEST_F(AdvisorTest, SplitCandidatesCombineHorizontalAndVertical) {
  // Frequent inserts propose the new-data partition; filter-attribute
  // updates next to grouped keyfigure aggregates propose the vertical
  // split; together they also propose both at once.
  WorkloadStatistics stats;
  for (int i = 0; i < 100; ++i) {
    InsertQuery ins{"t", SyntheticRow(spec_, 100'000 + i)};
    stats.Record(Query(ins), db_.catalog());
  }
  UpdateQuery u;
  u.table = "t";
  u.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{7}))}};
  u.set_columns = {spec_.filter(0)};
  u.set_values = {Value(int32_t{1})};
  for (int i = 0; i < 100; ++i) stats.Record(Query(u), db_.catalog());
  AggregationQuery a;
  a.tables = {"t"};
  a.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}}};
  a.group_by = {{spec_.group(0), 0}};
  for (int i = 0; i < 20; ++i) stats.Record(Query(a), db_.catalog());

  std::vector<LayoutCandidate> candidates =
      SplitCandidates(db_.catalog(), "t", *stats.table("t"));
  ASSERT_EQ(candidates.size(), 3u);
  std::vector<LayoutCandidate> horizontal = WithSplits(candidates, true, false);
  std::vector<LayoutCandidate> vertical = WithSplits(candidates, false, true);
  std::vector<LayoutCandidate> both = WithSplits(candidates, true, true);
  ASSERT_EQ(horizontal.size(), 1u);
  ASSERT_EQ(vertical.size(), 1u);
  ASSERT_EQ(both.size(), 1u);
  const LayoutContext& h = horizontal[0].context;
  const LayoutContext& v = vertical[0].context;
  const LayoutContext& hv = both[0].context;
  // The combined layout is exactly the two single splits together, with
  // the horizontal split's locality.
  EXPECT_EQ(hv.layout.base_store, StoreType::kColumn);
  EXPECT_EQ(hv.layout.horizontal->column, h.layout.horizontal->column);
  EXPECT_EQ(hv.layout.horizontal->boundary, h.layout.horizontal->boundary);
  EXPECT_EQ(hv.layout.vertical->row_store_columns,
            v.layout.vertical->row_store_columns);
  EXPECT_TRUE(InRowStorePiece(hv.layout, spec_.filter(0)));
  EXPECT_EQ(hv.hot_row_fraction, h.hot_row_fraction);
  EXPECT_EQ(hv.hot_access_fraction, h.hot_access_fraction);
  EXPECT_NE(both[0].reason.find("combined"), std::string::npos);
}

TEST_F(AdvisorTest, SearchBaselineIsTheTableLevelDesign) {
  for (double frac : {0.0, 0.05, 0.2, 0.9}) {
    const std::vector<WeightedQuery> workload = MixedWorkload(frac);
    StorageAdvisor advisor(&db_);
    Result<Recommendation> rec = advisor.RecommendOffline(workload);
    ASSERT_TRUE(rec.ok()) << frac;
    const double tol = 1e-9 * rec->table_level_cost_ms;
    EXPECT_LE(rec->estimated_cost_ms, rec->table_level_cost_ms + tol) << frac;
    EXPECT_LE(rec->table_level_cost_ms,
              std::min(rec->rs_only_cost_ms, rec->cs_only_cost_ms) + tol)
        << frac;
    // The table-level cost is the TableAdvisor's design...
    const TableAdvisorResult table_level =
        TableAdvisor(&advisor.cost_model(), &db_.catalog())
            .Recommend(workload);
    EXPECT_EQ(table_level.assignment, rec->table_level_assignment) << frac;
    EXPECT_NEAR(rec->table_level_cost_ms, table_level.estimated_cost_ms, tol)
        << frac;
    // ...and it is what the search prices as its baseline: the table-level
    // stores with the picker's codecs.
    std::map<std::string, std::vector<LayoutCandidate>> frozen;
    for (const auto& [name, store] : table_level.assignment) {
      frozen[name] = {{LayoutContext::SingleStore(store), "table-level"}};
    }
    const EncodingDesign baseline =
        EncodingSearch(&advisor.cost_model(), &db_.catalog())
            .Search(workload, frozen);
    EXPECT_NEAR(rec->table_level_cost_ms, baseline.picker_cost_ms, tol)
        << frac;
  }
}

TEST_F(AdvisorTest, OfflineRecommendationEndToEnd) {
  StorageAdvisor advisor(&db_);
  WorkloadOptions o;
  o.olap_fraction = 0.0;
  SyntheticWorkloadGenerator gen(spec_, 5000, o);
  auto r = advisor.RecommendOffline(gen.Generate(200));
  ASSERT_TRUE(r.ok());
  // Pure OLTP: unpartitioned row store, no partitioning gain.
  EXPECT_EQ(r->table_level_assignment.at("t"), StoreType::kRow);
  EXPECT_LE(r->estimated_cost_ms, r->rs_only_cost_ms + 1e-9);
  EXPECT_FALSE(r->Summary().empty());
}

TEST_F(AdvisorTest, OfflineRejectsEmptyOrUnknown) {
  StorageAdvisor advisor(&db_);
  EXPECT_EQ(advisor.RecommendOffline(std::vector<Query>{}).status().code(),
            StatusCode::kInvalidArgument);
  SelectQuery s;
  s.table = "nope";
  s.select_columns = {0};
  EXPECT_EQ(advisor.RecommendOffline(std::vector<Query>{Query(s)})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(AdvisorTest, ApplyExecutesRecommendedLayout) {
  StorageAdvisor advisor(&db_);
  WorkloadOptions o;
  o.olap_fraction = 0.9;
  SyntheticWorkloadGenerator gen(spec_, 5000, o);
  auto r = advisor.RecommendOffline(gen.Generate(100));
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->ddl.empty());  // table starts in RS, OLAP wants CS
  ASSERT_TRUE(advisor.Apply(*r).ok());
  EXPECT_EQ(db_.catalog().GetTable("t")->layout(), r->layouts.at("t").layout);
  // Re-running the recommendation now emits no DDL (already applied).
  auto again = advisor.RecommendOffline(gen.Generate(100));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ddl.empty());
}

TEST_F(AdvisorTest, OnlineModeRecordsAndRecommends) {
  StorageAdvisor advisor(&db_);
  EXPECT_EQ(advisor.RecommendOnline().status().code(),
            StatusCode::kFailedPrecondition);
  advisor.StartRecording();
  EXPECT_EQ(advisor.RecommendOnline().status().code(),
            StatusCode::kFailedPrecondition);  // nothing recorded yet
  WorkloadOptions o;
  o.olap_fraction = 0.0;
  SyntheticWorkloadGenerator gen(spec_, 5000, o);
  RunWorkload(db_, gen.Generate(300));
  auto r = advisor.RecommendOnline();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table_level_assignment.at("t"), StoreType::kRow);
  EXPECT_EQ(advisor.recorder()->seen_queries(), 300u);
  advisor.StopRecording();
  RunWorkload(db_, gen.Generate(10));
  EXPECT_EQ(advisor.recorder()->seen_queries(), 300u);  // detached
}

TEST_F(AdvisorTest, OnlineModeAdaptsToWorkloadShift) {
  StorageAdvisor advisor(&db_);
  advisor.StartRecording();
  WorkloadOptions oltp;
  oltp.olap_fraction = 0.0;
  SyntheticWorkloadGenerator gen1(spec_, 5000, oltp);
  RunWorkload(db_, gen1.Generate(200));
  auto first = advisor.RecommendOnline();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->table_level_assignment.at("t"), StoreType::kRow);

  // The workload shifts to pure OLAP; re-record and re-evaluate.
  advisor.recorder()->Reset();
  WorkloadOptions olap;
  olap.olap_fraction = 1.0;
  SyntheticWorkloadGenerator gen2(spec_, 5000, olap);
  RunWorkload(db_, gen2.Generate(60));
  auto second = advisor.RecommendOnline();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->table_level_assignment.at("t"), StoreType::kColumn);
}

TEST_F(AdvisorTest, RecommendOnlineConsumesEpochAtomically) {
  StorageAdvisor advisor(&db_);
  advisor.StartRecording();
  WorkloadOptions o;
  o.olap_fraction = 0.0;
  SyntheticWorkloadGenerator gen(spec_, 5000, o);
  RunWorkload(db_, gen.Generate(300));
  EXPECT_EQ(advisor.recorder()->epoch(), 0u);
  auto r = advisor.RecommendOnline();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->solved_epoch, 0u);
  // The epoch was snapshotted and rolled: a second re-search has no window
  // of its own and must refuse rather than reuse (or mix) the old one.
  EXPECT_EQ(advisor.recorder()->epoch(), 1u);
  EXPECT_EQ(advisor.recorder()->epoch_seen_queries(), 0u);
  EXPECT_EQ(advisor.recorder()->seen_queries(), 300u);  // lifetime kept
  EXPECT_EQ(advisor.RecommendOnline().status().code(),
            StatusCode::kFailedPrecondition);
  // Fresh traffic opens the next epoch.
  RunWorkload(db_, gen.Generate(100));
  auto second = advisor.RecommendOnline();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->solved_epoch, 1u);
  // The second recommendation was solved on the 100-query window only.
  EXPECT_EQ(second->solved_for.total_queries, 100u);
}

TEST_F(AdvisorTest, RecommendOnlineRefreshesCatalogStatistics) {
  StorageAdvisor advisor(&db_);
  advisor.StartRecording();
  const uint64_t rows_before =
      db_.catalog().GetStatistics("t")->row_count;
  // The epoch's inserts mutate the table; the re-search must pair the
  // epoch's profile with refreshed data statistics, not the stale ones.
  WorkloadOptions o;
  o.olap_fraction = 0.0;
  o.insert_weight = 1.0;
  o.update_weight = 0.0;
  o.point_select_weight = 0.0;
  SyntheticWorkloadGenerator gen(spec_, 5000, o);
  RunWorkload(db_, gen.Generate(50));
  ASSERT_TRUE(advisor.RecommendOnline().ok());
  EXPECT_EQ(db_.catalog().GetStatistics("t")->row_count, rows_before + 50);
}

TEST_F(AdvisorTest, RecommendationCarriesSolvedProfileAndWorkload) {
  StorageAdvisor advisor(&db_);
  WorkloadOptions o;
  o.olap_fraction = 0.9;
  SyntheticWorkloadGenerator gen(spec_, 5000, o);
  auto r = advisor.RecommendOffline(gen.Generate(200));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->solved_for.empty());
  EXPECT_EQ(r->solved_for.total_queries, 200u);
  const TableProfile* t = r->solved_for.table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_GT(t->olap_fraction, 0.5);
  EXPECT_EQ(r->solved_workload.size(), 200u);
  // Apply stamps the advisor with the design's solved-for baseline.
  EXPECT_FALSE(advisor.solved_profile().has_value());
  ASSERT_TRUE(advisor.Apply(*r).ok());
  ASSERT_TRUE(advisor.solved_profile().has_value());
  EXPECT_EQ(advisor.solved_profile()->total_queries, 200u);
}

TEST_F(AdvisorTest, RecorderHotKeyCapacityFlowsFromOptions) {
  AdvisorOptions options;
  options.recorder_hot_keys = 4;
  StorageAdvisor advisor(&db_, options);
  advisor.StartRecording();
  for (int64_t i = 0; i < 50; ++i) {
    UpdateQuery u;
    u.table = "t";
    u.predicate = {{{0, 0}, ValueRange::Eq(Value(i % 25))}};
    u.set_columns = {spec_.keyfigure(0)};
    u.set_values = {Value(1.0)};
    ASSERT_TRUE(db_.Execute(Query(u)).ok());
  }
  const TableWorkloadStats* t =
      advisor.recorder()->statistics().table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_LE(t->hot_update_keys.tracked(), 4u);
}

TEST_F(AdvisorTest, DdlMentionsPartitioningClauses) {
  StorageAdvisor advisor(&db_);
  // Force a partitioned recommendation via a hot-update + OLAP mix.
  WorkloadOptions o;
  o.olap_fraction = 0.05;
  o.hot_key_fraction = 0.1;
  o.insert_weight = 0.0;
  o.update_weight = 0.8;
  o.point_select_weight = 0.2;
  SyntheticWorkloadGenerator gen(spec_, 5000, o);
  auto r = advisor.RecommendOffline(gen.Generate(600));
  ASSERT_TRUE(r.ok());
  if (r->layouts.at("t").layout.IsPartitioned()) {
    ASSERT_FALSE(r->ddl.empty());
    EXPECT_NE(r->ddl[0].find("PARTITION BY"), std::string::npos);
  }
}

}  // namespace
}  // namespace hsdb
