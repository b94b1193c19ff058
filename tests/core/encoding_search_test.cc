// EncodingSearch over frozen layouts (one candidate per table):
// budget-constrained per-column codec selection. The acceptance properties:
// under an unconstrained budget the search never produces a higher-cost
// assignment than the EncodingPicker's heuristic choice, and under a
// binding budget it emits a feasible assignment (or reports the
// feasibility floor when the budget lies below every reachable footprint).
#include "core/encoding_search.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "core/advisor.h"
#include "executor/database.h"

namespace hsdb {
namespace {

constexpr int64_t kRows = 20'000;

class EncodingSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A sales-fact-shaped table whose columns pull toward different codecs:
    //   id     — dense unique INT64: frame-of-reference territory
    //   day    — run-structured DATE (loaded in date order): RLE territory
    //   status — low-cardinality VARCHAR: dictionary territory
    //   amount — high-cardinality DOUBLE: raw is smallest, the dictionary
    //            is faster — the codec the unconstrained search flips.
    schema_ = Schema::CreateOrDie({{"id", DataType::kInt64},
                                   {"day", DataType::kDate},
                                   {"status", DataType::kVarchar},
                                   {"amount", DataType::kDouble}},
                                  /*primary_key=*/{0});
    ASSERT_TRUE(db_.CreateTable("fact", schema_,
                                TableLayout::SingleStore(StoreType::kColumn))
                    .ok());
    LogicalTable* fact = db_.catalog().GetTable("fact");
    const char* statuses[] = {"OPEN", "PAID", "SHIPPED"};
    Rng rng(23);
    for (int64_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE(fact->Insert(Row{Value(i), Value(Date{int32_t(i / 50)}),
                                   Value(std::string(statuses[rng.Index(3)])),
                                   Value(rng.UniformDouble(0.0, 1e9))})
                      .ok());
    }
    fact->ForceMerge();
    db_.catalog().UpdateAllStatistics();
    candidates_["fact"] = {
        {LayoutContext::SingleStore(StoreType::kColumn), "CS"}};
  }

  /// Scan-heavy workload: SUM(amount) GROUP BY status over a day range,
  /// plus `insert_weight` worth of inserts.
  std::vector<WeightedQuery> Workload(double scan_weight,
                                      double insert_weight) const {
    AggregationQuery olap;
    olap.tables = {"fact"};
    olap.aggregates = {{AggFn::kSum, {3, 0}}};
    olap.group_by = {{2, 0}};
    olap.predicate = {{{1, 0},
                       ValueRange::Between(Value(Date{50}),
                                           Value(Date{250}))}};
    InsertQuery insert{"fact",
                       Row{Value(int64_t{kRows + 1}), Value(Date{400}),
                           Value(std::string("OPEN")), Value(1.0)}};
    return {WeightedQuery{Query(olap), scan_weight},
            WeightedQuery{Query(insert), insert_weight}};
  }

  EncodingDesign Run(const std::vector<WeightedQuery>& workload,
                        EncodingSearchOptions options = {}) const {
    EncodingSearch search(&model_, &db_.catalog(), options);
    return search.Search(workload, candidates_);
  }

  Database db_;
  Schema schema_;
  CostModel model_;
  std::map<std::string, std::vector<LayoutCandidate>> candidates_;
};

TEST_F(EncodingSearchTest, CandidatesRespectPickerPruning) {
  const TableStatistics* stats = db_.catalog().GetStatistics("fact");
  ASSERT_NE(stats, nullptr);
  compression::EncodingPicker::Options opts;

  // amount: non-integer, run length ~1 -> only dictionary and raw remain.
  auto amount = compression::CandidateEncodings(
      StatisticsEncodingProfile(stats->column(3), stats->row_count), opts);
  EXPECT_EQ(amount.size(), 2u);
  EXPECT_EQ(amount[0], Encoding::kDictionary);
  EXPECT_EQ(amount[1], Encoding::kRaw);

  // day: integer family with long runs -> every codec is a candidate.
  auto day = compression::CandidateEncodings(
      StatisticsEncodingProfile(stats->column(1), stats->row_count), opts);
  EXPECT_EQ(day.size(), 4u);

  // id: unique values -> RLE pruned, frame-of-reference offered.
  auto id = compression::CandidateEncodings(
      StatisticsEncodingProfile(stats->column(0), stats->row_count), opts);
  EXPECT_TRUE(std::find(id.begin(), id.end(), Encoding::kRle) == id.end());
  EXPECT_TRUE(std::find(id.begin(), id.end(),
                        Encoding::kFrameOfReference) != id.end());
}

TEST_F(EncodingSearchTest, UnconstrainedNeverWorseThanPicker) {
  for (auto [scans, inserts] : {std::pair<double, double>{200.0, 10.0},
                                {50.0, 50.0},
                                {5.0, 500.0},
                                {1.0, 0.0}}) {
    EncodingDesign r = Run(Workload(scans, inserts));
    ASSERT_EQ(r.tables.size(), 1u);
    EXPECT_LE(r.cost_ms, r.picker_cost_ms + 1e-9)
        << "scans=" << scans << " inserts=" << inserts;
    EXPECT_TRUE(r.feasible);
    EXPECT_GT(r.footprint_bytes, 0.0);
  }
}

TEST_F(EncodingSearchTest, ScanHeavyWorkloadFlipsAmountToFasterCodec) {
  const TableStatistics* stats = db_.catalog().GetStatistics("fact");
  ASSERT_NE(stats, nullptr);
  // The picker minimizes footprint: raw wins for the high-cardinality
  // double column.
  EXPECT_EQ(stats->column(3).encoding, Encoding::kRaw);

  EncodingDesign r = Run(Workload(/*scan_weight=*/500.0,
                                  /*insert_weight=*/1.0));
  const std::vector<Encoding>& fact = r.tables.at("fact").context.encodings;
  ASSERT_EQ(fact.size(), schema_.num_columns());
  // The search pays footprint for scan speed: dictionary decode is cheaper
  // than the raw fallback under the default model.
  EXPECT_EQ(fact[3], Encoding::kDictionary);
  EXPECT_LT(r.cost_ms, r.picker_cost_ms);
  EXPECT_GT(r.footprint_bytes, r.picker_footprint_bytes);
}

TEST_F(EncodingSearchTest, HalfPlainFootprintBudgetIsFeasible) {
  const TableStatistics* stats = db_.catalog().GetStatistics("fact");
  ASSERT_NE(stats, nullptr);
  double plain_bytes = 0.0;
  for (const ColumnStatistics& cs : stats->columns) {
    plain_bytes += static_cast<double>(stats->row_count) * cs.avg_plain_bytes;
  }
  EncodingSearchOptions options;
  options.memory_budget_bytes = 0.5 * plain_bytes;
  EncodingDesign r = Run(Workload(500.0, 1.0), options);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.footprint_bytes, *options.memory_budget_bytes + 1e-6);
}

TEST_F(EncodingSearchTest, BindingBudgetTradesSpeedForFootprint) {
  std::vector<WeightedQuery> workload = Workload(500.0, 1.0);
  EncodingDesign unconstrained = Run(workload);
  ASSERT_GT(unconstrained.footprint_bytes,
            unconstrained.min_footprint_bytes);

  // A budget halfway between the floor and the unconstrained choice binds:
  // the search must give some scan speed back.
  EncodingSearchOptions options;
  options.memory_budget_bytes = 0.5 * (unconstrained.footprint_bytes +
                                       unconstrained.min_footprint_bytes);
  EncodingDesign r = Run(workload, options);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.footprint_bytes, *options.memory_budget_bytes + 1e-6);
  EXPECT_GE(r.cost_ms, unconstrained.cost_ms - 1e-9);
  // Still never worse than the picker, whose assignment (the per-column
  // footprint minima) is feasible under this budget.
  EXPECT_LE(r.cost_ms, r.picker_cost_ms + 1e-9);
}

TEST_F(EncodingSearchTest, InfeasibleBudgetReportsFloor) {
  EncodingSearchOptions options;
  options.memory_budget_bytes = 1.0;  // one byte: below any assignment
  EncodingDesign r = Run(Workload(100.0, 1.0), options);
  EXPECT_FALSE(r.feasible);
  ASSERT_EQ(r.tables.size(), 1u);
  // The result falls back to the tightest assignment there is.
  EXPECT_NEAR(r.footprint_bytes, r.min_footprint_bytes,
              1e-6 * r.min_footprint_bytes);
}

TEST_F(EncodingSearchTest, ExactEnumerationMatchesOrBeatsGreedy) {
  std::vector<WeightedQuery> workload = Workload(300.0, 20.0);
  for (std::optional<double> budget :
       {std::optional<double>{}, std::optional<double>{250'000.0}}) {
    EncodingSearchOptions exact_opts;
    exact_opts.memory_budget_bytes = budget;
    EncodingDesign exact = Run(workload, exact_opts);
    EXPECT_TRUE(exact.exact);

    EncodingSearchOptions greedy_opts;
    greedy_opts.memory_budget_bytes = budget;
    greedy_opts.exact_combination_limit = 0;  // force the greedy knapsack
    EncodingDesign greedy = Run(workload, greedy_opts);
    EXPECT_FALSE(greedy.exact);

    EXPECT_EQ(exact.feasible, greedy.feasible);
    EXPECT_LE(exact.cost_ms, greedy.cost_ms + 1e-9);
    // The greedy result keeps the acceptance guarantees on its own.
    if (!budget.has_value()) {
      EXPECT_LE(greedy.cost_ms, greedy.picker_cost_ms + 1e-9);
    }
  }
}

TEST_F(EncodingSearchTest, ApplyRealizesSearchedEncodings) {
  // The table is already column-resident, so the recommendation is
  // encoding-only: same layout, different codecs (amount flips to the
  // dictionary under a scan-heavy workload). It must still be actionable.
  std::vector<WeightedQuery> workload = Workload(500.0, 1.0);
  StorageAdvisor advisor(&db_);
  Result<Recommendation> rec = advisor.RecommendOffline(workload);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->layouts.at("fact").encodings.size(), schema_.num_columns());
  ASSERT_EQ(rec->layouts.at("fact").encodings[3], Encoding::kDictionary);
  // Layout is unchanged but the codecs are not: DDL must still be emitted.
  ASSERT_FALSE(rec->ddl.empty());
  EXPECT_NE(rec->ddl[0].find("amount DICTIONARY"), std::string::npos);

  ASSERT_TRUE(advisor.Apply(*rec).ok());
  const LogicalTable* fact = db_.catalog().GetTable("fact");
  const auto& ct = static_cast<const ColumnTable&>(
      *fact->groups()[0].fragments[0].table);
  // The store now carries the searched codec, not the picker's (raw).
  EXPECT_EQ(ct.ColumnEncoding(3), Encoding::kDictionary);
  const TableStatistics* stats = db_.catalog().GetStatistics("fact");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->column(3).encoding, Encoding::kDictionary);

  // Convergence: re-recommending the same workload changes nothing, so no
  // DDL is emitted the second time.
  Result<Recommendation> again = advisor.RecommendOffline(workload);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ddl.empty());
}

TEST_F(EncodingSearchTest, AdvisorEmitsBudgetDdlWithCostDerivedEncodings) {
  // Start the same data in the row store so the OLAP workload pulls it to
  // the column store and the advisor emits layout-change DDL.
  Database rs_db;
  ASSERT_TRUE(rs_db.CreateTable("fact", schema_,
                                TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  LogicalTable* src = db_.catalog().GetTable("fact");
  LogicalTable* dst = rs_db.catalog().GetTable("fact");
  src->ForEachRow([&](const Row& row) {
    ASSERT_TRUE(dst->Insert(Row(row)).ok());
  });
  rs_db.catalog().UpdateAllStatistics();

  AggregationQuery olap;
  olap.tables = {"fact"};
  olap.aggregates = {{AggFn::kSum, {3, 0}}};
  olap.group_by = {{2, 0}};
  std::vector<Query> workload(50, Query(olap));

  AdvisorOptions options;
  options.encoding.memory_budget_bytes = 400'000.0;
  StorageAdvisor advisor(&rs_db, options);
  Result<Recommendation> rec = advisor.RecommendOffline(workload);
  ASSERT_TRUE(rec.ok());

  ASSERT_TRUE(rec->memory_budget_bytes.has_value());
  EXPECT_TRUE(rec->encoding_budget_feasible);
  EXPECT_LE(rec->encoding_footprint_bytes, 400'000.0 + 1e-6);
  // The chosen encodings ride in the layouts and the DDL carries both the
  // ENCODING clause and the budget the assignment was solved under.
  EXPECT_EQ(rec->layouts.at("fact").encodings.size(),
            schema_.num_columns());
  ASSERT_FALSE(rec->ddl.empty());
  bool saw_encoding = false;
  bool saw_budget = false;
  for (const std::string& ddl : rec->ddl) {
    if (ddl.find("ENCODING (") != std::string::npos) saw_encoding = true;
    if (ddl.find("WITH (MEMORY_BUDGET 400000)") != std::string::npos) {
      saw_budget = true;
    }
  }
  EXPECT_TRUE(saw_encoding);
  EXPECT_TRUE(saw_budget);

  // Unconstrained advisor: the search may not lose to the picker.
  StorageAdvisor unconstrained(&rs_db);
  Result<Recommendation> free_rec = unconstrained.RecommendOffline(workload);
  ASSERT_TRUE(free_rec.ok());
  EXPECT_LE(free_rec->estimated_cost_ms,
            free_rec->table_level_cost_ms + 1e-9);
}

}  // namespace
}  // namespace hsdb
