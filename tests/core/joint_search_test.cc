// Joint layout+encoding search: the advisor explores per-table layout
// candidates and per-column codec assignments under one shared memory
// budget. Acceptance properties: the joint result is never costlier than
// its baseline (every table's candidate 0 with the picker's codecs; in the
// advisor, the table-level design) whenever that baseline is
// budget-feasible, nor than a staged layout-then-encoding comparator; a
// binding budget can flip a table's recommended layout (and the flip
// disappears when the budget is relaxed); infeasibility is reported only
// when even the best layout cannot fit; and the hysteresis rule keeps the
// current design across cost-near-equal layout flips.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "core/advisor.h"
#include "core/encoding_search.h"
#include "executor/database.h"
#include "tpch/dbgen.h"
#include "tpch/workload.h"

namespace hsdb {
namespace {

constexpr int64_t kRows = 20'000;

/// Two sales-fact-shaped tables, both starting in the row store. The scans
/// pull both toward the column store; the workload weights make "hot" far
/// more valuable to keep column-resident than "cold", so a binding budget
/// should sacrifice cold's layout first.
class JointSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::CreateOrDie({{"id", DataType::kInt64},
                                   {"day", DataType::kDate},
                                   {"status", DataType::kVarchar},
                                   {"amount", DataType::kDouble}},
                                  /*primary_key=*/{0});
    for (const char* name : {"hot", "cold"}) {
      ASSERT_TRUE(db_.CreateTable(name, schema_,
                                  TableLayout::SingleStore(StoreType::kRow))
                      .ok());
      LogicalTable* table = db_.catalog().GetTable(name);
      const char* statuses[] = {"OPEN", "PAID", "SHIPPED"};
      Rng rng(23);
      for (int64_t i = 0; i < kRows; ++i) {
        ASSERT_TRUE(
            table
                ->Insert(Row{Value(i), Value(Date{int32_t(i / 50)}),
                             Value(std::string(statuses[rng.Index(3)])),
                             Value(rng.UniformDouble(0.0, 1e9))})
                .ok());
      }
    }
    db_.catalog().UpdateAllStatistics();
  }

  static Query Scan(const std::string& table) {
    AggregationQuery olap;
    olap.tables = {table};
    olap.aggregates = {{AggFn::kSum, {3, 0}}};
    olap.group_by = {{2, 0}};
    olap.predicate = {{{1, 0},
                       ValueRange::Between(Value(Date{50}),
                                           Value(Date{250}))}};
    return Query(olap);
  }

  /// Scan-heavy on both tables, "hot" dominating.
  std::vector<WeightedQuery> Workload() const {
    return {WeightedQuery{Scan("hot"), 500.0},
            WeightedQuery{Scan("cold"), 25.0}};
  }

  Database db_;
  Schema schema_;
  CostModel model_;
};

TEST_F(JointSearchTest, BindingBudgetFlipsColdTableToRowStore) {
  std::vector<WeightedQuery> workload = Workload();

  // Unconstrained: both tables earn the column store.
  StorageAdvisor advisor(&db_);
  Result<Recommendation> free_rec = advisor.RecommendOffline(workload);
  ASSERT_TRUE(free_rec.ok());
  EXPECT_EQ(free_rec->layouts.at("hot").layout.base_store,
            StoreType::kColumn);
  EXPECT_EQ(free_rec->layouts.at("cold").layout.base_store,
            StoreType::kColumn);
  EXPECT_LE(free_rec->estimated_cost_ms,
            free_rec->table_level_cost_ms + 1e-9);
  // Budget attribution covers both tables and sums to the total footprint.
  ASSERT_EQ(free_rec->encoding_footprint_by_table.size(), 2u);
  double attributed = 0.0;
  for (const auto& [name, bytes] : free_rec->encoding_footprint_by_table) {
    attributed += bytes;
  }
  EXPECT_NEAR(attributed, free_rec->encoding_footprint_bytes,
              1e-6 * attributed);

  // A budget that fits hot's encoded footprint with a sliver of slack —
  // far below anything cold's codecs could shrink to.
  const double hot_bytes = free_rec->encoding_footprint_by_table.at("hot");
  AdvisorOptions tight;
  tight.encoding.memory_budget_bytes = hot_bytes * 1.02;
  StorageAdvisor tight_advisor(&db_, tight);
  Result<Recommendation> rec = tight_advisor.RecommendOffline(workload);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->encoding_budget_feasible);
  EXPECT_LE(rec->encoding_footprint_bytes, *tight.encoding.memory_budget_bytes + 1e-6);
  // The budget flipped cold's layout, not hot's.
  EXPECT_EQ(rec->layouts.at("hot").layout.base_store, StoreType::kColumn);
  EXPECT_EQ(rec->layouts.at("cold").layout.base_store, StoreType::kRow);
  // Cold carries no encoded segments any more.
  EXPECT_NEAR(rec->encoding_footprint_by_table.at("cold"), 0.0, 1e-9);

  // A staged pipeline cannot express this relief: with the layouts frozen
  // at the column store, the same budget is infeasible.
  std::map<std::string, std::vector<LayoutCandidate>> frozen;
  for (const char* name : {"hot", "cold"}) {
    frozen[name] = {{LayoutContext::SingleStore(StoreType::kColumn), "CS"}};
  }
  EXPECT_FALSE(EncodingSearch(&model_, &db_.catalog(), tight.encoding)
                   .Search(workload, frozen)
                   .feasible);

  // Relaxing the budget makes the flip disappear.
  AdvisorOptions loose;
  loose.encoding.memory_budget_bytes =
      free_rec->encoding_footprint_bytes * 1.2;
  StorageAdvisor loose_advisor(&db_, loose);
  Result<Recommendation> relaxed = loose_advisor.RecommendOffline(workload);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_TRUE(relaxed->encoding_budget_feasible);
  EXPECT_EQ(relaxed->layouts.at("cold").layout.base_store,
            StoreType::kColumn);
}

TEST_F(JointSearchTest, InfeasibleOnlyWhenEvenTheBestLayoutCannotFit) {
  std::vector<WeightedQuery> workload = Workload();

  // Column-store-only candidates: a one-byte budget is below the floor and
  // the result reports it, carrying the tightest design there is.
  EncodingSearchOptions options;
  options.memory_budget_bytes = 1.0;
  EncodingSearch search(&model_, &db_.catalog(), options);
  std::map<std::string, std::vector<LayoutCandidate>> cs_only;
  cs_only.emplace(
      "hot", std::vector<LayoutCandidate>{
                 {LayoutContext::SingleStore(StoreType::kColumn), "CS"}});
  EncodingDesign r = search.Search(workload, cs_only);
  ASSERT_EQ(r.tables.size(), 1u);
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.min_footprint_bytes, 1.0);
  EXPECT_NEAR(r.footprint_bytes, r.min_footprint_bytes,
              1e-6 * r.min_footprint_bytes);

  // Add a row-store candidate and the same budget becomes feasible: the
  // best layout's floor is zero encoded bytes.
  std::map<std::string, std::vector<LayoutCandidate>> with_rs = cs_only;
  with_rs.at("hot").push_back(
      {LayoutContext::SingleStore(StoreType::kRow), "RS"});
  EncodingDesign r2 = search.Search(workload, with_rs);
  EXPECT_TRUE(r2.feasible);
  EXPECT_EQ(r2.min_footprint_bytes, 0.0);
  EXPECT_EQ(r2.tables.at("hot").context.layout.base_store, StoreType::kRow);
  EXPECT_EQ(r2.tables.at("hot").candidate_index, 1u);
  EXPECT_NEAR(r2.footprint_bytes, 0.0, 1e-9);
}

TEST_F(JointSearchTest, HysteresisKeepsCurrentLayoutAcrossNearEqualFlips) {
  std::vector<WeightedQuery> workload = Workload();
  // The table currently sits in the row store and the baseline layout
  // (candidate 0) agrees; the column store would be cheaper. Under a large
  // hysteresis threshold the incumbent survives the flip; without one the
  // search takes the improvement.
  std::map<std::string, std::vector<LayoutCandidate>> candidates;
  candidates.emplace(
      "hot",
      std::vector<LayoutCandidate>{
          {LayoutContext::SingleStore(StoreType::kRow), "table-level store"},
          {LayoutContext::SingleStore(StoreType::kColumn), "column store"}});

  EncodingSearchOptions sticky;
  sticky.min_improvement = 0.9;  // only a 90% improvement may flip
  EncodingDesign kept = EncodingSearch(&model_, &db_.catalog(), sticky)
                            .Search(workload, candidates);
  ASSERT_EQ(kept.tables.size(), 1u);
  EXPECT_EQ(kept.tables.at("hot").context.layout.base_store,
            StoreType::kRow);
  EXPECT_EQ(kept.tables.at("hot").candidate_index, 0u);
  EXPECT_NEAR(kept.cost_ms, kept.picker_cost_ms,
              1e-9 * kept.picker_cost_ms + 1e-9);

  EncodingSearchOptions eager;
  eager.min_improvement = 0.0;
  EncodingDesign flipped = EncodingSearch(&model_, &db_.catalog(), eager)
                               .Search(workload, candidates);
  EXPECT_EQ(flipped.tables.at("hot").context.layout.base_store,
            StoreType::kColumn);
  EXPECT_EQ(flipped.tables.at("hot").candidate_index, 1u);
  EXPECT_LT(flipped.cost_ms, flipped.picker_cost_ms);
  // Both runs respect the baseline ceiling.
  EXPECT_LE(kept.cost_ms, kept.picker_cost_ms + 1e-9);
  EXPECT_LE(flipped.cost_ms, flipped.picker_cost_ms + 1e-9);
}

TEST_F(JointSearchTest, OneCandidateRunIsTheLayoutSearchBaseline) {
  std::vector<WeightedQuery> workload = Workload();
  std::map<std::string, std::vector<LayoutCandidate>> frozen;
  std::map<std::string, std::vector<LayoutCandidate>> widened;
  for (const char* name : {"hot", "cold"}) {
    frozen[name] = {{LayoutContext::SingleStore(StoreType::kColumn), "CS"}};
    widened[name] = frozen[name];
    widened[name].push_back(
        {LayoutContext::SingleStore(StoreType::kRow), "RS"});
  }
  for (std::optional<double> budget :
       {std::optional<double>{}, std::optional<double>{200'000.0}}) {
    EncodingSearchOptions options;
    options.memory_budget_bytes = budget;
    EncodingSearch search(&model_, &db_.catalog(), options);
    EncodingDesign one = search.Search(workload, frozen);
    EncodingDesign joint = search.Search(workload, widened);

    // With one candidate per table no layout moves, and the result never
    // costs more than its own (picker) baseline where that baseline fits.
    ASSERT_EQ(one.tables.size(), 2u);
    for (const auto& [name, design] : one.tables) {
      EXPECT_EQ(design.candidate_index, 0u) << name;
    }
    if (!budget.has_value() || one.picker_footprint_bytes <= *budget) {
      EXPECT_LE(one.cost_ms, one.picker_cost_ms + 1e-9);
    }
    // The wider search prices the same baseline: candidate 0 with the
    // picker's codecs.
    EXPECT_NEAR(joint.picker_cost_ms, one.picker_cost_ms,
                1e-9 * one.picker_cost_ms);
    EXPECT_NEAR(joint.picker_footprint_bytes, one.picker_footprint_bytes,
                1e-9 * one.picker_footprint_bytes);
    if (budget.has_value()) {
      // The budget binds: column-store-only cannot fit, a row-store flip can.
      EXPECT_FALSE(one.feasible);
      EXPECT_TRUE(joint.feasible);
    } else {
      // The frozen layouts are candidates of the wider search.
      EXPECT_LE(joint.cost_ms, one.cost_ms + 1e-9);
      EXPECT_LE(joint.cost_ms, joint.picker_cost_ms + 1e-9);
    }
  }
}

TEST_F(JointSearchTest, ApplyRealizesJointBudgetRecommendation) {
  // End-to-end: the budget-flipped design must be actionable — Apply moves
  // hot to the column store with the searched codecs while cold stays put.
  std::vector<WeightedQuery> workload = Workload();
  StorageAdvisor probe(&db_);
  Result<Recommendation> free_rec = probe.RecommendOffline(workload);
  ASSERT_TRUE(free_rec.ok());
  AdvisorOptions tight;
  tight.encoding.memory_budget_bytes =
      free_rec->encoding_footprint_by_table.at("hot") * 1.02;
  StorageAdvisor advisor(&db_, tight);
  Result<Recommendation> rec = advisor.RecommendOffline(workload);
  ASSERT_TRUE(rec.ok());
  ASSERT_FALSE(rec->ddl.empty());
  bool saw_budget_clause = false;
  for (const std::string& ddl : rec->ddl) {
    if (ddl.find("WITH (MEMORY_BUDGET") != std::string::npos) {
      saw_budget_clause = true;
    }
  }
  EXPECT_TRUE(saw_budget_clause);

  ASSERT_TRUE(advisor.Apply(*rec).ok());
  EXPECT_EQ(db_.catalog().GetTable("hot")->layout(),
            TableLayout::SingleStore(StoreType::kColumn));
  EXPECT_EQ(db_.catalog().GetTable("cold")->layout(),
            TableLayout::SingleStore(StoreType::kRow));

  // Convergence under the same budget: nothing left to change.
  Result<Recommendation> again = advisor.RecommendOffline(workload);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ddl.empty());
}

TEST_F(JointSearchTest, RowStoreFlipClearsStaleEncodingPins) {
  // First realize the unconstrained design: cold moves to the column store
  // with its searched codecs pinned.
  std::vector<WeightedQuery> workload = Workload();
  StorageAdvisor advisor(&db_);
  Result<Recommendation> free_rec = advisor.RecommendOffline(workload);
  ASSERT_TRUE(free_rec.ok());
  ASSERT_TRUE(advisor.Apply(*free_rec).ok());
  ASSERT_EQ(db_.catalog().GetTable("cold")->layout(),
            TableLayout::SingleStore(StoreType::kColumn));
  ASSERT_FALSE(db_.catalog()
                   .GetTable("cold")
                   ->physical_options()
                   .column.column_encodings.empty());

  // A binding budget flips cold back to the row store. The flip must drop
  // the codec pins: a later manual move to the column store should start
  // from the adaptive picker, not resurrect codecs solved for an old
  // budget.
  AdvisorOptions tight;
  tight.encoding.memory_budget_bytes =
      free_rec->encoding_footprint_by_table.at("hot") * 1.02;
  StorageAdvisor tight_advisor(&db_, tight);
  Result<Recommendation> rec = tight_advisor.RecommendOffline(workload);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->layouts.at("cold").layout.base_store, StoreType::kRow);
  ASSERT_TRUE(tight_advisor.Apply(*rec).ok());
  EXPECT_EQ(db_.catalog().GetTable("cold")->layout(),
            TableLayout::SingleStore(StoreType::kRow));
  EXPECT_TRUE(db_.catalog()
                  .GetTable("cold")
                  ->physical_options()
                  .column.column_encodings.empty());
}

TEST(JointSearchTpchTest, JointNeverWorseThanSequentialAcrossBudgets) {
  Database db;
  tpch::DbgenOptions opts;
  opts.scale_factor = 0.002;  // ~3000 orders: fast but non-trivial
  ASSERT_TRUE(tpch::LoadTpch(db, opts).ok());
  db.catalog().UpdateAllStatistics();
  // OLAP-leaning mix so several tables earn the column store and the
  // budget sweep has encoded mass to trade away.
  tpch::TpchWorkloadOptions wopts;
  wopts.olap_fraction = 0.5;
  tpch::TpchWorkloadGenerator gen(db, wopts);
  std::vector<WeightedQuery> workload = ToWeighted(gen.Generate(150));

  // Anchor the budget sweep on the unconstrained joint footprint.
  StorageAdvisor anchor(&db);
  Result<Recommendation> top = anchor.RecommendOffline(workload);
  ASSERT_TRUE(top.ok());
  ASSERT_GT(top->encoding_footprint_bytes, 0.0);

  // The staged comparator: the unconstrained recommendation's layouts,
  // frozen as one candidate per table; and the table-level layouts, the
  // search's baseline.
  std::map<std::string, std::vector<LayoutCandidate>> staged_layouts;
  for (const auto& [name, ctx] : top->layouts) {
    staged_layouts[name] = {{ctx, "staged"}};
  }
  std::map<std::string, std::vector<LayoutCandidate>> table_level;
  for (const auto& [name, store] : top->table_level_assignment) {
    table_level[name] = {{LayoutContext::SingleStore(store), "table-level"}};
  }

  for (double scale : {1.1, 0.7, 0.4}) {
    AdvisorOptions options;
    options.encoding.memory_budget_bytes =
        top->encoding_footprint_bytes * scale;
    StorageAdvisor advisor(&db, options);
    Result<Recommendation> joint = advisor.RecommendOffline(workload);
    ASSERT_TRUE(joint.ok()) << scale;

    // Independent staged reference: search the codecs of the frozen
    // layouts alone under the same budget.
    const CostModel& model = advisor.cost_model();
    const EncodingSearch search(&model, &db.catalog(), options.encoding);
    const EncodingDesign staged = search.Search(workload, staged_layouts);
    const EncodingDesign baseline = search.Search(workload, table_level);

    // The joint search prices the table-level design as its baseline and
    // never costs more whenever that design fits the budget; nor does it
    // cost more than the staged reference, and a budget the staged
    // pipeline can satisfy is never infeasible jointly.
    EXPECT_NEAR(joint->table_level_cost_ms, baseline.picker_cost_ms,
                1e-6 * baseline.picker_cost_ms)
        << scale;
    if (baseline.picker_footprint_bytes <=
        *options.encoding.memory_budget_bytes) {
      EXPECT_LE(joint->estimated_cost_ms,
                joint->table_level_cost_ms * (1.0 + 1e-9) + 1e-9)
          << scale;
    }
    if (staged.feasible) {
      EXPECT_TRUE(joint->encoding_budget_feasible) << scale;
      EXPECT_LE(joint->estimated_cost_ms,
                staged.cost_ms * (1.0 + 1e-9) + 1e-9)
          << scale;
    }
    if (joint->memory_budget_bytes.has_value() &&
        joint->encoding_budget_feasible) {
      EXPECT_LE(joint->encoding_footprint_bytes,
                *joint->memory_budget_bytes + 1e-6)
          << scale;
    }
  }
}

}  // namespace
}  // namespace hsdb
