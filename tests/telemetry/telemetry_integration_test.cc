// End-to-end telemetry: Database + executor instrument sites + registry +
// cost feedback, exercised through real query execution.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "executor/database.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace hsdb {
namespace {

class TelemetryIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.name = "t";
    db_ = std::make_unique<Database>(&registry_);
    ASSERT_TRUE(db_->CreateTable("t", spec_.MakeSchema(),
                                 TableLayout::SingleStore(StoreType::kColumn))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_->catalog().GetTable("t"), spec_, 2000).ok());
    ASSERT_TRUE(db_->catalog().UpdateStatistics("t").ok());
    gen_ = std::make_unique<SyntheticWorkloadGenerator>(spec_, 2000,
                                                        WorkloadOptions{});
  }

  /// An isolated registry per test: no cross-talk with other tests (or the
  /// process-global registry).
  telemetry::MetricsRegistry registry_;
  SyntheticTableSpec spec_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<SyntheticWorkloadGenerator> gen_;
};

TEST_F(TelemetryIntegrationTest, ExecuteStampsSpanTree) {
  Result<QueryResult> result = db_->Execute(gen_->MakePointSelect());
  ASSERT_TRUE(result.ok());
  if (!telemetry::kCompiledIn) {
    EXPECT_EQ(result->trace, nullptr);
    return;
  }
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->name, "query");
  EXPECT_NE(result->trace->Find("execute"), nullptr);
  // Executing a select walks the scan instrument site.
  EXPECT_NE(result->trace->Find("scan"), nullptr);
  EXPECT_GE(result->trace->elapsed_ms, 0.0);
}

TEST_F(TelemetryIntegrationTest, AggregationTraceShowsPhases) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  Result<QueryResult> result = db_->Execute(gen_->MakeAggregation(
      /*num_aggregates=*/2, /*group_by=*/false, /*filter=*/true));
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  const telemetry::TraceSpan* execute = result->trace->Find("execute");
  ASSERT_NE(execute, nullptr);
  EXPECT_GE(execute->TreeSize(), 2u);  // at least one phase under execute
}

TEST_F(TelemetryIntegrationTest, QueriesCountByKind) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  ASSERT_TRUE(db_->Execute(gen_->MakePointSelect()).ok());
  ASSERT_TRUE(db_->Execute(gen_->MakePointSelect()).ok());
  ASSERT_TRUE(db_->Execute(gen_->MakeInsert()).ok());
  EXPECT_EQ(
      registry_.GetCounter("hsdb_queries_total", "", {{"kind", "SELECT"}})
          .value(),
      2u);
  EXPECT_EQ(
      registry_.GetCounter("hsdb_queries_total", "", {{"kind", "INSERT"}})
          .value(),
      1u);
}

TEST_F(TelemetryIntegrationTest, NoPredictorMeansNoResidual) {
  ASSERT_FALSE(db_->has_cost_predictor());
  Result<QueryResult> result = db_->Execute(gen_->MakePointSelect());
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->predicted_cost_ms, 0.0);
  EXPECT_EQ(db_->cost_feedback().samples(), 0u);
}

TEST_F(TelemetryIntegrationTest, InstalledPredictorFeedsCostFeedback) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  db_->set_cost_predictor([](const Query&) { return 0.05; });
  const size_t n = 5;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(db_->Execute(gen_->MakePointSelect()).ok());
  }
  EXPECT_EQ(db_->cost_feedback().samples(), n);
  telemetry::CostFeedback::Snapshot snap = db_->cost_feedback().snapshot();
  EXPECT_EQ(snap.global.samples, n);
  EXPECT_DOUBLE_EQ(snap.global.predicted_total_ms, 0.05 * n);
  ASSERT_EQ(snap.tables.count("t"), 1u);
  EXPECT_EQ(snap.tables.at("t").samples, n);
}

TEST_F(TelemetryIntegrationTest, AdvisorInstallsAndRemovesPredictor) {
  {
    StorageAdvisor advisor(db_.get());
    advisor.SetCostModelParams(CostModelParams::Default());
    EXPECT_TRUE(db_->has_cost_predictor());
    if (telemetry::kCompiledIn) {
      Result<QueryResult> result = db_->Execute(gen_->MakePointSelect());
      ASSERT_TRUE(result.ok());
      EXPECT_GE(result->predicted_cost_ms, 0.0);
      EXPECT_EQ(db_->cost_feedback().samples(), 1u);
    }
  }
  // The advisor detaches its predictor on destruction.
  EXPECT_FALSE(db_->has_cost_predictor());
}

TEST_F(TelemetryIntegrationTest, FailedQueriesInvokeObserverAndCount) {
  struct ErrorCounter : QueryObserver {
    void OnQuery(const Query&, const QueryResult&) override {}
    void OnQueryError(const Query&, const Status& status) override {
      ++errors;
      last = status;
    }
    int errors = 0;
    Status last;
  } observer;
  db_->set_observer(&observer);

  SelectQuery bad;
  bad.table = "no_such_table";
  Result<QueryResult> result = db_->Execute(Query(bad));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(observer.errors, 1);
  EXPECT_FALSE(observer.last.ok());
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(registry_
                  .GetCounter("hsdb_query_errors_total", "",
                              {{"kind", "SELECT"}})
                  .value(),
              1u);
  }
  db_->set_observer(nullptr);
}

TEST_F(TelemetryIntegrationTest, SnapshotAggregatesCounts) {
  if (!telemetry::kCompiledIn) {
    EXPECT_FALSE(db_->TelemetrySnapshot().enabled);
    return;
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Execute(gen_->Next()).ok());
  }
  SelectQuery bad;
  bad.table = "no_such_table";
  (void)db_->Execute(Query(bad));

  TelemetryReport report = db_->TelemetrySnapshot();
  EXPECT_TRUE(report.enabled);
  EXPECT_EQ(report.queries, 10u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_GE(report.p95_latency_ms, report.p50_latency_ms);
  EXPECT_FALSE(report.ToString().empty());
}

TEST_F(TelemetryIntegrationTest, RematerializationsCount) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  ASSERT_TRUE(
      db_->MigrateShadow("t", TableLayout::SingleStore(StoreType::kRow)).ok());
  EXPECT_EQ(registry_.GetCounter("hsdb_rematerializations_total").value(),
            1u);
  EXPECT_EQ(db_->layout_epoch(), 1u);
}

TEST_F(TelemetryIntegrationTest, DisabledRegistryMatchesEnabledResults) {
  // Same query stream against two databases, one with telemetry disabled:
  // identical row counts, and the disabled run leaves no trace, no metrics,
  // no residuals.
  telemetry::MetricsRegistry disabled_registry;
  disabled_registry.set_enabled(false);
  Database quiet(&disabled_registry);
  ASSERT_TRUE(quiet
                  .CreateTable("t", spec_.MakeSchema(),
                               TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  ASSERT_TRUE(
      PopulateSynthetic(quiet.catalog().GetTable("t"), spec_, 2000).ok());
  ASSERT_TRUE(quiet.catalog().UpdateStatistics("t").ok());
  quiet.set_cost_predictor([](const Query&) { return 1.0; });
  db_->set_cost_predictor([](const Query&) { return 1.0; });

  WorkloadOptions opts;
  opts.olap_fraction = 0.3;
  opts.seed = 99;
  const std::vector<Query> queries =
      SyntheticWorkloadGenerator(spec_, 2000, opts).Generate(50);
  for (const Query& q : queries) {
    Result<QueryResult> loud = db_->Execute(q);
    Result<QueryResult> silent = quiet.Execute(q);
    ASSERT_EQ(loud.ok(), silent.ok());
    if (!loud.ok()) continue;
    EXPECT_EQ(loud->rows.size(), silent->rows.size());
    EXPECT_EQ(silent->trace, nullptr);
    EXPECT_LT(silent->predicted_cost_ms, 0.0);
  }
  EXPECT_EQ(quiet.cost_feedback().samples(), 0u);
  EXPECT_FALSE(quiet.TelemetrySnapshot().enabled);
  // Nothing was counted while disabled.
  EXPECT_EQ(
      disabled_registry.GetCounter("hsdb_queries_total", "",
                                   {{"kind", "SELECT"}})
          .value(),
      0u);
}

}  // namespace
}  // namespace hsdb
