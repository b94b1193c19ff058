// Shared-scan batches must be *bit-identical* to one-at-a-time execution:
// the BatchExecutor computes every member's selection bitmap in one
// MultiFilterRangeSlice pass per predicate column and then materializes
// through the same scan kernel, so even floating-point sums and group
// output order must match exactly at every thread count. The fixture reuses the
// shapes that stress the slice plumbing: both stores, all four codecs
// pinned across the columns, a tail that is neither morsel- nor
// word-aligned, live delta rows and delete tombstones; batches of widths
// 2, 8 and 16 run at HSDB_THREADS 1 and 4 (the test parameter).
//
// A batch executes reads only. Reads the shared pass does not take —
// point-PK lookups, unknown tables, a lone read — run per statement inside
// the batch and must match stand-alone execution; members are grouped by
// table, not by adjacency; and a DML member is refused without effect.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "executor/batch_executor.h"
#include "executor/database.h"
#include "telemetry/metrics.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

class BatchEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  // > kMorselRows (16384) so scans span several morsels; % 64 != 0 so the
  // last morsel ends mid-word; % 16384 != 0 so it is partial.
  static constexpr size_t kRows = 36'901;

  void SetUp() override {
    spec_.name = "t";
    spec_.num_keyfigures = 2;
    spec_.num_filters = 2;
    spec_.num_groups = 2;
  }

  std::unique_ptr<Database> MakeDb(StoreType store,
                                   telemetry::MetricsRegistry* metrics) {
    Database::Options options;
    options.num_threads = GetParam();
    options.metrics = metrics;
    auto db = std::make_unique<Database>(options);
    EXPECT_TRUE(db->CreateTable("t", spec_.MakeSchema(),
                                TableLayout::SingleStore(store))
                    .ok());
    EXPECT_TRUE(
        PopulateSynthetic(db->catalog().GetTable("t"), spec_, kRows).ok());
    if (store == StoreType::kColumn) {
      // Pin every codec somewhere: the per-column cycle covers dictionary,
      // RLE, frame-of-reference and raw across the seven columns.
      std::vector<Encoding> encodings;
      for (size_t c = 0; c < spec_.num_columns(); ++c) {
        encodings.push_back(static_cast<Encoding>(c % kNumEncodings));
      }
      EXPECT_TRUE(
          db->MigrateShadow("t", TableLayout::SingleStore(store), encodings)
              .ok());
    }
    // Fresh rows stay in the column store's delta; tombstones span the
    // 16384 morsel boundary and a word boundary.
    for (int64_t id = kRows; id < static_cast<int64_t>(kRows) + 200; ++id) {
      EXPECT_TRUE(db->Execute(InsertQuery{"t", SyntheticRow(spec_, id)}).ok());
    }
    DeleteQuery del;
    del.table = "t";
    del.predicate = {
        {{0, 0}, ValueRange::Between(Value(int64_t{16300}),
                                     Value(int64_t{16500}))}};
    EXPECT_TRUE(db->Execute(Query(del)).ok());
    return db;
  }

  /// Bit-identical comparison: same success/failure, same error status,
  /// same aggregates (exact, FP included), same rows in the same order.
  static void ExpectIdentical(const Result<QueryResult>& serial,
                              const Result<QueryResult>& batched,
                              const Query& q) {
    ASSERT_EQ(serial.ok(), batched.ok()) << QueryToString(q);
    if (!serial.ok()) {
      EXPECT_EQ(serial.status(), batched.status()) << QueryToString(q);
      return;
    }
    EXPECT_EQ(serial->affected_rows, batched->affected_rows)
        << QueryToString(q);
    ASSERT_EQ(serial->aggregates.size(), batched->aggregates.size())
        << QueryToString(q);
    for (size_t i = 0; i < serial->aggregates.size(); ++i) {
      EXPECT_EQ(serial->aggregates[i], batched->aggregates[i])
          << QueryToString(q) << " aggregate " << i;
    }
    ASSERT_EQ(serial->rows.size(), batched->rows.size()) << QueryToString(q);
    for (size_t i = 0; i < serial->rows.size(); ++i) {
      EXPECT_EQ(RowToString(serial->rows[i]), RowToString(batched->rows[i]))
          << QueryToString(q) << " row " << i;
    }
  }

  /// Runs `queries` one at a time on `serial` and as one batch on
  /// `batched` (twin databases in identical state), comparing result i
  /// with result i.
  void ExpectBatchEquivalent(const std::vector<Query>& queries,
                             Database& serial, Database& batched) {
    BatchExecutor exec(&batched);
    std::vector<Result<QueryResult>> batch_results =
        exec.ExecuteBatch(queries);
    ASSERT_EQ(batch_results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      Result<QueryResult> serial_result = serial.Execute(queries[i]);
      ExpectIdentical(serial_result, batch_results[i], queries[i]);
    }
  }

  SelectQuery RangeSelect(int64_t lo, int64_t hi) const {
    SelectQuery sel;
    sel.table = "t";
    sel.select_columns = {0, spec_.keyfigure(0), spec_.filter(1)};
    sel.predicate = {
        {{0, 0}, ValueRange::Between(Value(lo), Value(hi))}};
    return sel;
  }

  static AggregationQuery CountAll(const std::string& table) {
    AggregationQuery count;
    count.tables = {table};
    count.aggregates = {{AggFn::kCount, {}}};
    return count;
  }

  std::vector<Query> Width8Battery() const {
    std::vector<Query> queries;
    // Two overlapping range selects, one with a limit.
    queries.push_back(RangeSelect(8000, 33000));
    SelectQuery limited = RangeSelect(100, 36000);
    limited.limit = 777;
    queries.push_back(limited);
    // Select on an INT32 filter column (dictionary/RLE/FOR slice paths).
    SelectQuery fsel;
    fsel.table = "t";
    fsel.select_columns = {0, spec_.filter(0)};
    fsel.predicate = {{{spec_.filter(0), 0},
                       ValueRange::Between(Value(int32_t{100}),
                                           Value(int32_t{400}))}};
    queries.push_back(fsel);
    // Unfiltered covering select (live-bitmap path).
    SelectQuery all;
    all.table = "t";
    all.select_columns = {0};
    all.limit = 1000;
    queries.push_back(all);
    // Aggregates: order-independent, FP sums, grouped.
    AggregationQuery exact_agg;
    exact_agg.tables = {"t"};
    exact_agg.aggregates = {{AggFn::kCount, {}},
                            {AggFn::kMin, {spec_.keyfigure(0), 0}},
                            {AggFn::kMax, {spec_.keyfigure(1), 0}},
                            {AggFn::kSum, {spec_.filter(0), 0}}};
    queries.push_back(exact_agg);
    exact_agg.predicate = {{{spec_.filter(1), 0},
                            ValueRange::Between(Value(int32_t{0}),
                                                Value(int32_t{700}))}};
    queries.push_back(exact_agg);
    AggregationQuery fp_agg;
    fp_agg.tables = {"t"};
    fp_agg.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}},
                         {AggFn::kAvg, {spec_.keyfigure(1), 0}}};
    fp_agg.predicate = {{{0, 0}, ValueRange::AtLeast(Value(int64_t{500}))}};
    queries.push_back(fp_agg);
    AggregationQuery grouped;
    grouped.tables = {"t"};
    grouped.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}},
                          {AggFn::kCount, {}}};
    grouped.group_by = {{spec_.group(0), 0}, {spec_.group(1), 0}};
    queries.push_back(grouped);
    return queries;
  }

  void RunWidths(StoreType store) {
    telemetry::MetricsRegistry metrics;
    std::unique_ptr<Database> serial = MakeDb(store, nullptr);
    std::unique_ptr<Database> batched = MakeDb(store, &metrics);

    // Width 2: the smallest shared group.
    ExpectBatchEquivalent(
        {Query(RangeSelect(8000, 33000)), Query(RangeSelect(0, 17000))},
        *serial, *batched);

    // Width 8: the full read battery as one group.
    ExpectBatchEquivalent(Width8Battery(), *serial, *batched);

    // Width 16: two batteries back to back in one batch.
    std::vector<Query> w16 = Width8Battery();
    std::vector<Query> again = Width8Battery();
    w16.insert(w16.end(), again.begin(), again.end());
    ASSERT_EQ(w16.size(), 16u);
    ExpectBatchEquivalent(w16, *serial, *batched);

    if (telemetry::kCompiledIn) {
      // The batches above must have used the shared path, not fallen back
      // to per-statement execution.
      EXPECT_GT(metrics.GetCounter("hsdb_batch_groups_total").value(), 0u);
      EXPECT_GT(metrics.GetCounter("hsdb_batch_shared_queries_total").value(),
                0u);
    }
  }

  SyntheticTableSpec spec_;
};

TEST_P(BatchEquivalenceTest, RowStoreMatchesSerial) {
  RunWidths(StoreType::kRow);
}

TEST_P(BatchEquivalenceTest, ColumnStoreMatchesSerial) {
  RunWidths(StoreType::kColumn);
}

TEST_P(BatchEquivalenceTest, MixedBatchDelegatesInOrder) {
  for (StoreType store : {StoreType::kRow, StoreType::kColumn}) {
    std::unique_ptr<Database> serial = MakeDb(store, nullptr);
    std::unique_ptr<Database> batched = MakeDb(store, nullptr);

    std::vector<Query> queries;
    // Shareable reads ...
    queries.push_back(Query(RangeSelect(8000, 33000)));
    queries.push_back(Query(CountAll("t")));
    // ... a point-PK lookup (the per-statement fast path) among them ...
    SelectQuery point;
    point.table = "t";
    point.select_columns = {0, spec_.keyfigure(0)};
    point.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{36'950}))}};
    queries.push_back(Query(point));
    queries.push_back(Query(RangeSelect(0, 500)));
    // ... errors must surface identically per member ...
    SelectQuery missing;
    missing.table = "nope";
    missing.select_columns = {0};
    queries.push_back(Query(missing));
    queries.push_back(Query(missing));
    // ... and the batch tail still shares.
    queries.push_back(Query(RangeSelect(100, 36'000)));
    queries.push_back(Query(RangeSelect(16'000, 17'000)));
    ExpectBatchEquivalent(queries, *serial, *batched);

    // A lone read gains nothing from sharing and runs per statement.
    ExpectBatchEquivalent({Query(RangeSelect(8000, 33000))}, *serial,
                          *batched);
  }
}

TEST_P(BatchEquivalenceTest, InterleavedTablesFormOneGroupEach) {
  telemetry::MetricsRegistry metrics;
  std::unique_ptr<Database> serial = MakeDb(StoreType::kColumn, nullptr);
  std::unique_ptr<Database> batched = MakeDb(StoreType::kColumn, &metrics);
  for (Database* db : {serial.get(), batched.get()}) {
    ASSERT_TRUE(db->CreateTable("u", spec_.MakeSchema(),
                                TableLayout::SingleStore(StoreType::kColumn))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db->catalog().GetTable("u"), spec_, 5'000).ok());
  }
  SelectQuery u_range = RangeSelect(1000, 2000);
  u_range.table = "u";
  const std::vector<Query> queries = {
      Query(RangeSelect(8000, 33000)), Query(CountAll("u")),
      Query(CountAll("t")), Query(u_range)};
  telemetry::Counter& groups = metrics.GetCounter("hsdb_batch_groups_total");
  telemetry::LogHistogram& width = metrics.GetHistogram("hsdb_batch_width");
  const uint64_t groups_before = groups.value();
  const uint64_t widths_before = width.count();
  const double width_sum_before = width.sum();
  ExpectBatchEquivalent(queries, *serial, *batched);
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(groups.value() - groups_before, 2u);
    EXPECT_EQ(width.count() - widths_before, 2u);
    EXPECT_EQ(width.sum() - width_sum_before, 4.0);  // widths 2 and 2
  }
}

TEST_P(BatchEquivalenceTest, DmlMemberIsRefusedWithoutEffect) {
  std::unique_ptr<Database> serial = MakeDb(StoreType::kColumn, nullptr);
  std::unique_ptr<Database> batched = MakeDb(StoreType::kColumn, nullptr);
  UpdateQuery upd;
  upd.table = "t";
  upd.predicate = {{{0, 0}, ValueRange::Between(Value(int64_t{10}),
                                                Value(int64_t{20}))}};
  upd.set_columns = {spec_.filter(0)};
  upd.set_values = {Value(int32_t{123})};
  DeleteQuery del;
  del.table = "t";
  del.predicate = {{{0, 0}, ValueRange::Between(Value(int64_t{0}),
                                                Value(int64_t{999}))}};
  const std::vector<Query> queries = {
      Query(InsertQuery{"t", SyntheticRow(spec_, 90'000)}),
      Query(CountAll("t")), Query(upd), Query(del),
      Query(RangeSelect(0, 500))};
  std::vector<Result<QueryResult>> results =
      BatchExecutor(batched.get()).ExecuteBatch(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
    ASSERT_FALSE(results[i].ok()) << QueryToString(queries[i]);
    EXPECT_EQ(results[i].status().code(), StatusCode::kInvalidArgument);
  }
  // The reads still ran, and neither they nor any later read sees a write.
  ExpectIdentical(serial->Execute(queries[1]), results[1], queries[1]);
  ExpectIdentical(serial->Execute(queries[4]), results[4], queries[4]);
  for (const Query& q : Width8Battery()) {
    ExpectIdentical(serial->Execute(q), batched->Execute(q), q);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, BatchEquivalenceTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace hsdb
