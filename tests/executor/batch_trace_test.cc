// Trace-span trees under BatchExecutor: queries executed on the shared-scan
// path must come back carrying the batch_group trace tree with a
// scan_shared child whose timing nests inside the root — this is the tree
// `explain analyze` renders and the slow-query log summarizes, so its shape
// is contract, not decoration. Shared members are also accounted like
// serial statements (prediction, cost feedback, counters, slow-query log).
// Runs at dop 1 and 4: the shared pass must produce the same span
// structure whether its morsels run inline or on pool workers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "executor/batch_executor.h"
#include "executor/database.h"
#include "telemetry/slowlog.h"
#include "telemetry/trace.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

class BatchTraceTest : public ::testing::TestWithParam<int> {
 protected:
  // > kMorselRows so scans span several morsels.
  static constexpr size_t kRows = 20'000;

  void SetUp() override {
    if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
    spec_.name = "events";
    spec_.num_keyfigures = 2;
    spec_.num_filters = 2;
    spec_.num_groups = 1;
    Database::Options options;
    options.num_threads = GetParam();
    db_ = std::make_unique<Database>(options);
    ASSERT_TRUE(db_->CreateTable("events", spec_.MakeSchema(),
                                 TableLayout::SingleStore(StoreType::kColumn))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_->catalog().GetTable("events"), spec_, kRows)
            .ok());
    db_->catalog().UpdateAllStatistics();
  }

  /// A batch of shareable same-table reads (forms one shared group).
  std::vector<Query> ShareableBatch() const {
    std::vector<Query> queries;
    AggregationQuery count;
    count.tables = {"events"};
    count.aggregates = {{AggFn::kCount, {}}};
    count.predicate = {{{spec_.filter(0), 0},
                        ValueRange::Less(Value(int32_t{100}))}};
    queries.emplace_back(count);
    AggregationQuery sum;
    sum.tables = {"events"};
    sum.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}}};
    sum.predicate = {{{spec_.filter(1), 0},
                      ValueRange::AtLeast(Value(int32_t{200}))}};
    queries.emplace_back(sum);
    SelectQuery select;
    select.table = "events";
    select.select_columns = {0, spec_.keyfigure(1)};
    select.predicate = {{{0, 0}, ValueRange::Less(Value(int64_t{50}))}};
    queries.emplace_back(select);
    return queries;
  }

  /// A point-PK lookup: delegated to the serial fast path, never shared.
  SelectQuery PointLookup(int64_t id) const {
    SelectQuery point;
    point.table = "events";
    point.select_columns = {0, spec_.keyfigure(0)};
    point.predicate = {{{0, 0}, ValueRange::Eq(Value(id))}};
    return point;
  }

  SyntheticTableSpec spec_;
  std::unique_ptr<Database> db_;
};

TEST_P(BatchTraceTest, SharedGroupCarriesBatchGroupTraceTree) {
  BatchExecutor batch(db_.get());
  const std::vector<Query> queries = ShareableBatch();
  // All three target the same table and are shareable — one shared group.
  for (const Query& q : queries) {
    ASSERT_NE(BatchExecutor::ShareableTable(q), nullptr) << QueryToString(q);
  }
  std::vector<Result<QueryResult>> results = batch.ExecuteBatch(queries);
  ASSERT_EQ(results.size(), queries.size());

  std::shared_ptr<const telemetry::TraceSpan> first_tree;
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "query " << i;
    const QueryResult& r = *results[i];
    ASSERT_NE(r.trace, nullptr) << "query " << i << " lost its trace";
    // Root is the batch group; the shared scan is a (transitive) child.
    EXPECT_EQ(r.trace->name, "batch_group");
    const telemetry::TraceSpan* shared = r.trace->Find("scan_shared");
    ASSERT_NE(shared, nullptr)
        << "query " << i << " tree:\n" << r.trace->ToString();
    // Child timing nests inside the root's window.
    EXPECT_GE(shared->start_ms, r.trace->start_ms - 1e-6);
    EXPECT_LE(shared->elapsed_ms, r.trace->elapsed_ms + 1e-6);
    EXPECT_GE(r.trace->elapsed_ms, 0.0);
    // Shared members report amortized elapsed, bounded by group wall time.
    EXPECT_LE(r.elapsed_ms, r.trace->elapsed_ms + 1e-6);
    // The whole group shares ONE tree — same object, not copies.
    if (first_tree == nullptr) {
      first_tree = r.trace;
    } else {
      EXPECT_EQ(r.trace.get(), first_tree.get());
    }
  }
}

TEST_P(BatchTraceTest, DelegatedQueriesKeepPerStatementTraces) {
  BatchExecutor batch(db_.get());
  // A lone point-PK lookup takes the serial fast path (a single-member run
  // gains nothing from sharing); its trace root is the per-statement tree,
  // not a batch group.
  std::vector<Query> queries;
  queries.emplace_back(PointLookup(17));
  std::vector<Result<QueryResult>> results = batch.ExecuteBatch(queries);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  const QueryResult& r = *results[0];
  if (r.trace != nullptr) {
    EXPECT_NE(r.trace->name, "batch_group") << r.trace->ToString();
    EXPECT_EQ(r.trace->Find("scan_shared"), nullptr) << r.trace->ToString();
  }
}

TEST_P(BatchTraceTest, MixedBatchSplitsTraceShapes) {
  BatchExecutor batch(db_.get());
  std::vector<Query> queries = ShareableBatch();
  queries.emplace_back(PointLookup(3));
  std::vector<Result<QueryResult>> results = batch.ExecuteBatch(queries);
  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    ASSERT_NE(results[i]->trace, nullptr) << i;
    EXPECT_EQ(results[i]->trace->name, "batch_group") << i;
  }
  ASSERT_TRUE(results[3].ok());
  if (results[3]->trace != nullptr) {
    EXPECT_NE(results[3]->trace->name, "batch_group");
  }
}

TEST_P(BatchTraceTest, SharedMembersAreAccountedLikeSerialStatements) {
  // Shared members go through the same accounting step as serial
  // statements: a prediction, a cost-feedback sample, the query counters
  // and the latency histogram — and slow-query records that carry the
  // group's width, share and summary.
  db_->set_cost_predictor([](const Query&) { return 0.5; });
  db_->slowlog().Configure({1e-9, 64, 1});
  telemetry::MetricsRegistry& metrics = db_->metrics();
  auto queries_total = [&] {
    uint64_t total = 0;
    for (int k = 0; k < kNumQueryKinds; ++k) {
      total += metrics
                   .GetCounter("hsdb_queries_total", "",
                               {{"kind", std::string(QueryKindName(
                                             static_cast<QueryKind>(k)))}})
                   .value();
    }
    return total;
  };
  auto latency_count = [&] {
    return metrics.GetHistogram("hsdb_query_latency_ms").count();
  };
  const std::vector<Query> queries = ShareableBatch();
  const uint64_t n = queries.size();

  // Serial execution of the same queries: the reference counts.
  uint64_t queries_before = queries_total();
  uint64_t latency_before = latency_count();
  for (const Query& q : queries) ASSERT_TRUE(db_->Execute(q).ok());
  const uint64_t serial_queries = queries_total() - queries_before;
  const uint64_t serial_latency = latency_count() - latency_before;
  EXPECT_EQ(serial_queries, n);

  db_->slowlog().Clear();
  queries_before = queries_total();
  latency_before = latency_count();
  const uint64_t samples_before = db_->cost_feedback().samples();
  BatchExecutor batch(db_.get());
  std::vector<Result<QueryResult>> results = batch.ExecuteBatch(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "query " << i;
    ASSERT_NE(results[i]->trace, nullptr);
    ASSERT_EQ(results[i]->trace->name, "batch_group") << "query " << i;
    EXPECT_GE(results[i]->predicted_cost_ms, 0.0) << "query " << i;
  }
  EXPECT_EQ(db_->cost_feedback().samples() - samples_before, n);
  EXPECT_EQ(queries_total() - queries_before, serial_queries);
  EXPECT_EQ(latency_count() - latency_before, serial_latency);

  const std::vector<telemetry::SlowlogRecord> records =
      db_->slowlog().Snapshot();
  ASSERT_EQ(records.size(), n);
  for (const telemetry::SlowlogRecord& record : records) {
    EXPECT_TRUE(record.shared);
    EXPECT_EQ(record.group_width, n);
    EXPECT_EQ(record.elapsed_ms, records.front().elapsed_ms);
    EXPECT_EQ(record.trace_summary, records.front().trace_summary);
    EXPECT_EQ(record.predicted_cost_ms, 0.5);
  }
  db_->set_cost_predictor(nullptr);
}

TEST_P(BatchTraceTest, LoneMembersRecordWidthOne) {
  // A read alone on its table runs per statement, inside a batch or not:
  // its record says width 1 and not shared. So does one that shares a
  // batch, but not a table, with a shared group.
  db_->slowlog().Configure({1e-9, 64, 1});
  const std::vector<Query> group = ShareableBatch();
  BatchExecutor batch(db_.get());

  ASSERT_TRUE(batch.ExecuteBatch({group.front()}).front().ok());
  ASSERT_TRUE(db_->Execute(group.front()).ok());
  std::vector<telemetry::SlowlogRecord> records = db_->slowlog().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  for (const telemetry::SlowlogRecord& record : records) {
    EXPECT_FALSE(record.shared);
    EXPECT_EQ(record.group_width, 1u);
    EXPECT_NE(record.ToJson().find("\"group_width\":1}"), std::string::npos)
        << record.ToJson();
  }

  ASSERT_TRUE(db_->CreateTable("other", spec_.MakeSchema(),
                               TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  ASSERT_TRUE(
      PopulateSynthetic(db_->catalog().GetTable("other"), spec_, 1'000).ok());
  AggregationQuery lone;
  lone.tables = {"other"};
  lone.aggregates = {{AggFn::kCount, {}}};
  std::vector<Query> mixed = group;
  mixed.emplace_back(lone);
  db_->slowlog().Clear();
  for (const Result<QueryResult>& r : batch.ExecuteBatch(mixed)) {
    ASSERT_TRUE(r.ok());
  }
  records = db_->slowlog().Snapshot();
  ASSERT_EQ(records.size(), mixed.size());
  size_t lone_records = 0;
  for (const telemetry::SlowlogRecord& record : records) {
    const bool is_lone = record.query.find("other") != std::string::npos;
    lone_records += is_lone ? 1 : 0;
    EXPECT_EQ(record.group_width, is_lone ? 1u : group.size())
        << record.query;
    EXPECT_EQ(record.shared, !is_lone) << record.query;
  }
  EXPECT_EQ(lone_records, 1u);
}

INSTANTIATE_TEST_SUITE_P(Dop, BatchTraceTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hsdb
