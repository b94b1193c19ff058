#include "executor/executor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "executor/database.h"

namespace hsdb {
namespace {

Schema SalesSchema() {
  return Schema::CreateOrDie({{"id", DataType::kInt64},
                              {"region", DataType::kInt32},
                              {"amount", DataType::kDouble},
                              {"qty", DataType::kInt32},
                              {"note", DataType::kVarchar}},
                             {0});
}

Row SaleRow(int64_t id) {
  return {id, int32_t(id % 4), static_cast<double>(id), int32_t(id % 10),
          "n" + std::to_string(id % 3)};
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("sales", SalesSchema(),
                                TableLayout::SingleStore(StoreType::kRow))
                    .ok());
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          db_.Execute(Query(InsertQuery{"sales", SaleRow(i)})).ok());
    }
  }

  Database db_;
};

TEST_F(ExecutorTest, UngroupedAggregates) {
  AggregationQuery q;
  q.tables = {"sales"};
  q.aggregates = {{AggFn::kSum, {2, 0}},
                  {AggFn::kAvg, {2, 0}},
                  {AggFn::kMin, {2, 0}},
                  {AggFn::kMax, {2, 0}},
                  {AggFn::kCount, {}}};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->aggregates.size(), 5u);
  EXPECT_DOUBLE_EQ(r->aggregates[0], 4950.0);
  EXPECT_DOUBLE_EQ(r->aggregates[1], 49.5);
  EXPECT_DOUBLE_EQ(r->aggregates[2], 0.0);
  EXPECT_DOUBLE_EQ(r->aggregates[3], 99.0);
  EXPECT_DOUBLE_EQ(r->aggregates[4], 100.0);
}

TEST_F(ExecutorTest, FilteredAggregate) {
  AggregationQuery q;
  q.tables = {"sales"};
  q.aggregates = {{AggFn::kSum, {2, 0}}};
  q.predicate = {{{0, 0}, ValueRange::Between(Value(int64_t{10}),
                                              Value(int64_t{19}))}};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->aggregates[0], 145.0);  // 10+...+19
}

TEST_F(ExecutorTest, GroupedAggregate) {
  AggregationQuery q;
  q.tables = {"sales"};
  q.aggregates = {{AggFn::kCount, {}}, {AggFn::kSum, {2, 0}}};
  q.group_by = {{1, 0}};  // region: 0..3, 25 rows each
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 4u);
  double total = 0;
  for (const Row& row : r->rows) {
    EXPECT_DOUBLE_EQ(row[1].as_double(), 25.0);  // count per region
    total += row[2].as_double();
  }
  EXPECT_DOUBLE_EQ(total, 4950.0);
}

TEST_F(ExecutorTest, GroupByVarchar) {
  AggregationQuery q;
  q.tables = {"sales"};
  q.aggregates = {{AggFn::kCount, {}}};
  q.group_by = {{4, 0}};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 3u);
}

TEST_F(ExecutorTest, SelectPointByPk) {
  SelectQuery q;
  q.table = "sales";
  q.select_columns = {0, 2, 4};
  q.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{42}))}};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_int64(), 42);
  EXPECT_DOUBLE_EQ(r->rows[0][1].as_double(), 42.0);
  EXPECT_EQ(r->rows[0][2].as_string(), "n0");
  // Missing key: empty result, OK status.
  q.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{4200}))}};
  r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(ExecutorTest, SelectRange) {
  SelectQuery q;
  q.table = "sales";
  q.select_columns = {0};
  q.predicate = {{{2, 0}, ValueRange::Between(Value(20.0), Value(29.0))}};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 10u);
}

TEST_F(ExecutorTest, SelectConjunction) {
  SelectQuery q;
  q.table = "sales";
  q.select_columns = {0};
  q.predicate = {{{2, 0}, ValueRange::Between(Value(20.0), Value(59.0))},
                 {{1, 0}, ValueRange::Eq(Value(int32_t{2}))}};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 10u);  // ids 22,26,...,58
  for (const Row& row : r->rows) {
    EXPECT_EQ(row[0].as_int64() % 4, 2);
  }
}

TEST_F(ExecutorTest, SelectWithLimit) {
  SelectQuery q;
  q.table = "sales";
  q.select_columns = {0};
  q.limit = 7;
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 7u);
}

TEST_F(ExecutorTest, UpdateByPointPredicate) {
  UpdateQuery q;
  q.table = "sales";
  q.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{10}))}};
  q.set_columns = {2};
  q.set_values = {Value(1234.5)};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 1u);
  SelectQuery s;
  s.table = "sales";
  s.select_columns = {2};
  s.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{10}))}};
  auto sr = db_.Execute(Query(s));
  EXPECT_DOUBLE_EQ(sr->rows[0][0].as_double(), 1234.5);
  // Missing key: zero affected rows.
  q.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{1000}))}};
  r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 0u);
}

TEST_F(ExecutorTest, UpdateByRangePredicate) {
  UpdateQuery q;
  q.table = "sales";
  q.predicate = {{{1, 0}, ValueRange::Eq(Value(int32_t{3}))}};  // 25 rows
  q.set_columns = {3};
  q.set_values = {Value(int32_t{77})};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 25u);
  AggregationQuery check;
  check.tables = {"sales"};
  check.aggregates = {{AggFn::kCount, {}}};
  check.predicate = {{{3, 0}, ValueRange::Eq(Value(int32_t{77}))}};
  auto cr = db_.Execute(Query(check));
  EXPECT_DOUBLE_EQ(cr->aggregates[0], 25.0);
}

TEST_F(ExecutorTest, DeleteByPredicate) {
  DeleteQuery q;
  q.table = "sales";
  q.predicate = {{{0, 0}, ValueRange::AtLeast(Value(int64_t{90}))}};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 10u);
  AggregationQuery count;
  count.tables = {"sales"};
  count.aggregates = {{AggFn::kCount, {}}};
  auto cr = db_.Execute(Query(count));
  EXPECT_DOUBLE_EQ(cr->aggregates[0], 90.0);
}

TEST_F(ExecutorTest, InsertDuplicateKeyFails) {
  auto r = db_.Execute(Query(InsertQuery{"sales", SaleRow(5)}));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(ExecutorTest, ValidationErrors) {
  // Unknown table.
  SelectQuery q;
  q.table = "missing";
  q.select_columns = {0};
  EXPECT_EQ(db_.Execute(Query(q)).status().code(), StatusCode::kNotFound);
  // Column out of range.
  SelectQuery q2;
  q2.table = "sales";
  q2.select_columns = {99};
  EXPECT_EQ(db_.Execute(Query(q2)).status().code(),
            StatusCode::kInvalidArgument);
  // Aggregation without aggregates.
  AggregationQuery a;
  a.tables = {"sales"};
  EXPECT_EQ(db_.Execute(Query(a)).status().code(),
            StatusCode::kInvalidArgument);
  // Aggregate over varchar.
  AggregationQuery a2;
  a2.tables = {"sales"};
  a2.aggregates = {{AggFn::kSum, {4, 0}}};
  EXPECT_EQ(db_.Execute(Query(a2)).status().code(),
            StatusCode::kInvalidArgument);
  // An unbounded predicate term is rejected by every single-table
  // statement kind, aggregations included (they used to count every row).
  const PredicateTerm unbounded{{1, 0}, ValueRange{}};
  SelectQuery s;
  s.table = "sales";
  s.select_columns = {0};
  s.predicate = {unbounded};
  EXPECT_EQ(db_.Execute(Query(s)).status().code(),
            StatusCode::kInvalidArgument);
  AggregationQuery count;
  count.tables = {"sales"};
  count.aggregates = {{AggFn::kCount, {}}};
  count.predicate = {unbounded};
  EXPECT_EQ(db_.Execute(Query(count)).status().code(),
            StatusCode::kInvalidArgument);
  // Update arity mismatch.
  UpdateQuery u;
  u.table = "sales";
  u.set_columns = {1, 2};
  u.set_values = {Value(int32_t{1})};
  EXPECT_EQ(db_.Execute(Query(u)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, ObserverSeesQueries) {
  class CountingObserver : public QueryObserver {
   public:
    void OnQuery(const Query& query, const QueryResult&) override {
      ++count;
      last_kind = KindOf(query);
    }
    int count = 0;
    QueryKind last_kind = QueryKind::kSelect;
  };
  CountingObserver obs;
  db_.set_observer(&obs);
  ASSERT_TRUE(db_.Execute(Query(InsertQuery{"sales", SaleRow(500)})).ok());
  AggregationQuery a;
  a.tables = {"sales"};
  a.aggregates = {{AggFn::kCount, {}}};
  ASSERT_TRUE(db_.Execute(Query(a)).ok());
  EXPECT_EQ(obs.count, 2);
  EXPECT_EQ(obs.last_kind, QueryKind::kAggregation);
  db_.set_observer(nullptr);
}

TEST_F(ExecutorTest, CreateTableRequiresPrimaryKey) {
  Schema keyless = Schema::CreateOrDie(
      {{"a", DataType::kInt64}, {"b", DataType::kInt32}}, {});
  for (StoreType store : {StoreType::kRow, StoreType::kColumn}) {
    Status created = db_.CreateTable("keyless", keyless,
                                     TableLayout::SingleStore(store));
    EXPECT_EQ(created.code(), StatusCode::kInvalidArgument)
        << created.ToString();
  }
  EXPECT_EQ(db_.catalog().GetTable("keyless"), nullptr);
}

TEST_F(ExecutorTest, MigrateShadowPreservesResults) {
  AggregationQuery a;
  a.tables = {"sales"};
  a.aggregates = {{AggFn::kSum, {2, 0}}};
  auto before = db_.Execute(Query(a));
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(
      db_.MigrateShadow("sales", TableLayout::SingleStore(StoreType::kColumn))
          .ok());
  auto after = db_.Execute(Query(a));
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(before->aggregates[0], after->aggregates[0]);
  // Statistics refreshed by the move.
  const TableStatistics* stats = db_.catalog().GetStatistics("sales");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, 100u);
}

TEST_F(ExecutorTest, MigrateShadowRefusesASecondLayoutChange) {
  // Stands in for a rebuild in flight: its op log is attached.
  TableOpLog log;
  db_.catalog().GetTable("sales")->AttachOpLog(&log);
  Result<ShadowMigrationStats> second = db_.MigrateShadow(
      "sales", TableLayout::SingleStore(StoreType::kColumn));
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition)
      << second.status().ToString();
  // The first migration keeps its log: later writes still reach it.
  LogicalTable* table = db_.catalog().GetTable("sales");
  ASSERT_TRUE(table->HasOpLog());
  ASSERT_TRUE(db_.Execute(Query(InsertQuery{"sales", SaleRow(100)})).ok());
  EXPECT_EQ(log.Drain().size(), 1u);
  EXPECT_EQ(table->layout().base_store, StoreType::kRow);
  EXPECT_EQ(db_.layout_epoch(), 0u);

  // Once it detaches, the next layout change goes through.
  table->DetachOpLog();
  Result<ShadowMigrationStats> retried = db_.MigrateShadow(
      "sales", TableLayout::SingleStore(StoreType::kColumn));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(retried->rematerialized);
  EXPECT_EQ(db_.catalog().GetTable("sales")->row_count(), 101u);
}

TEST_F(ExecutorTest, QueryToStringSmoke) {
  AggregationQuery a;
  a.tables = {"sales"};
  a.aggregates = {{AggFn::kSum, {2, 0}}};
  a.group_by = {{1, 0}};
  EXPECT_EQ(QueryToString(Query(a)),
            "SELECT SUM(t0.c2) FROM sales GROUP BY t0.c1");
  EXPECT_EQ(QueryToString(Query(InsertQuery{"t", {int64_t{1}}})),
            "INSERT INTO t VALUES (1)");
}

}  // namespace
}  // namespace hsdb
