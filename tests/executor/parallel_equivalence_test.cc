// Every degree of parallelism runs the same morsel kernel, so a scan must
// return the same bits at every thread count: same rows in the same order
// for selects, and aggregates — floating-point SUM/AVG included — equal
// down to the bit pattern, grouped rows in the same order. The fixture
// builds DOP-1 and DOP-d twins of the same table for both stores, with the
// table sized past one morsel and ending in a tail that is neither morsel-
// nor word-aligned, the column store pinned across all four codecs, and
// live deltas plus delete tombstones in place — the shapes the slice
// plumbing (FilterRangeSlice / ForEachNumericRange) has to get right at the
// boundaries.
#include <gtest/gtest.h>

#include <bit>

#include "executor/batch_executor.h"
#include "executor/database.h"
#include "storage/column_table.h"
#include "telemetry/metrics.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  // > kMorselRows (16384) so the scan spans several morsels; % 64 != 0 so
  // the last morsel ends mid-word; % 16384 != 0 so it is a partial morsel.
  static constexpr size_t kRows = 36'901;

  void SetUp() override {
    spec_.name = "t";
    spec_.num_keyfigures = 2;
    spec_.num_filters = 2;
    spec_.num_groups = 2;
    serial_rs_ = MakeDb(StoreType::kRow, /*threads=*/1, nullptr);
    serial_cs_ = MakeDb(StoreType::kColumn, /*threads=*/1, nullptr);
    parallel_rs_ = MakeDb(StoreType::kRow, GetParam(), &metrics_);
    parallel_cs_ = MakeDb(StoreType::kColumn, GetParam(), &metrics_);
  }

  std::unique_ptr<Database> MakeDb(StoreType store, int threads,
                                   telemetry::MetricsRegistry* metrics) {
    Database::Options options;
    options.num_threads = threads;
    options.metrics = metrics;
    auto db = std::make_unique<Database>(options);
    EXPECT_TRUE(db->CreateTable("t", spec_.MakeSchema(),
                                TableLayout::SingleStore(store))
                    .ok());
    EXPECT_TRUE(
        PopulateSynthetic(db->catalog().GetTable("t"), spec_, kRows).ok());
    if (store == StoreType::kColumn) {
      // Pin every codec somewhere: the per-column cycle covers dictionary,
      // RLE, frame-of-reference and raw across the seven columns
      // (inapplicable picks fall back to dictionary inside the engine).
      std::vector<Encoding> encodings;
      for (size_t c = 0; c < spec_.num_columns(); ++c) {
        encodings.push_back(static_cast<Encoding>(c % kNumEncodings));
      }
      EXPECT_TRUE(
          db->MigrateShadow("t", TableLayout::SingleStore(store), encodings)
              .ok());
    }
    // Fresh rows stay in the column store's delta (below the merge
    // threshold), so scans straddle the encoded main and the plain delta.
    for (int64_t id = kRows; id < static_cast<int64_t>(kRows) + 200; ++id) {
      EXPECT_TRUE(db->Execute(InsertQuery{"t", SyntheticRow(spec_, id)}).ok());
    }
    // Tombstones spanning a morsel boundary (16384) and a word boundary.
    DeleteQuery del;
    del.table = "t";
    del.predicate = {
        {{0, 0}, ValueRange::Between(Value(int64_t{16300}),
                                     Value(int64_t{16500}))}};
    EXPECT_TRUE(db->Execute(Query(del)).ok());
    return db;
  }

  /// Runs `q` on the DOP-1 and DOP-d twin of one store; rows must match
  /// in order and aggregates bit for bit.
  void ExpectEquivalent(const Query& q, Database& serial, Database& parallel) {
    Result<QueryResult> a = serial.Execute(q);
    Result<QueryResult> b = parallel.Execute(q);
    ASSERT_EQ(a.ok(), b.ok()) << QueryToString(q);
    if (!a.ok()) return;
    ASSERT_EQ(a->aggregates.size(), b->aggregates.size()) << QueryToString(q);
    for (size_t i = 0; i < a->aggregates.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a->aggregates[i]),
                std::bit_cast<uint64_t>(b->aggregates[i]))
          << QueryToString(q) << ": " << a->aggregates[i] << " vs "
          << b->aggregates[i];
    }
    ASSERT_EQ(a->rows.size(), b->rows.size()) << QueryToString(q);
    std::vector<std::string> ra, rb;
    ra.reserve(a->rows.size());
    rb.reserve(b->rows.size());
    for (const Row& r : a->rows) ra.push_back(RowToString(r));
    for (const Row& r : b->rows) rb.push_back(RowToString(r));
    EXPECT_EQ(ra, rb) << QueryToString(q);
  }

  void RunBattery(Database& serial, Database& parallel) {
    // Range select over the id column: crosses both boundaries and the
    // tombstone window. Bit-identical, in rid order.
    SelectQuery sel;
    sel.table = "t";
    sel.select_columns = {0, spec_.keyfigure(0), spec_.filter(1)};
    sel.predicate = {{{0, 0}, ValueRange::Between(Value(int64_t{8000}),
                                                  Value(int64_t{33000}))}};
    ExpectEquivalent(Query(sel), serial, parallel);

    // The same select with a limit: the first N rows in rid order at every
    // thread count.
    sel.limit = 777;
    ExpectEquivalent(Query(sel), serial, parallel);
    sel.limit.reset();

    // Select on an INT32 filter column (dictionary/RLE/FOR slice paths).
    SelectQuery fsel;
    fsel.table = "t";
    fsel.select_columns = {0, spec_.filter(0)};
    fsel.predicate = {{{spec_.filter(0), 0},
                       ValueRange::Between(Value(int32_t{100}),
                                           Value(int32_t{400}))}};
    ExpectEquivalent(Query(fsel), serial, parallel);

    // Order-independent aggregates.
    AggregationQuery exact_agg;
    exact_agg.tables = {"t"};
    exact_agg.aggregates = {{AggFn::kCount, {}},
                            {AggFn::kMin, {spec_.keyfigure(0), 0}},
                            {AggFn::kMax, {spec_.keyfigure(1), 0}},
                            // Integer-valued sum: exact in a double.
                            {AggFn::kSum, {spec_.filter(0), 0}}};
    ExpectEquivalent(Query(exact_agg), serial, parallel);
    exact_agg.predicate = {{{spec_.filter(1), 0},
                            ValueRange::Between(Value(int32_t{0}),
                                                Value(int32_t{700}))}};
    ExpectEquivalent(Query(exact_agg), serial, parallel);

    // DOUBLE sums: every thread count folds each morsel alone and merges
    // the partials in morsel order, so these are bit-identical too.
    AggregationQuery fp_agg;
    fp_agg.tables = {"t"};
    fp_agg.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}},
                         {AggFn::kAvg, {spec_.keyfigure(1), 0}}};
    ExpectEquivalent(Query(fp_agg), serial, parallel);

    // Grouped aggregation: same groups, same values, same row order.
    AggregationQuery grouped;
    grouped.tables = {"t"};
    grouped.aggregates = {{AggFn::kSum, {spec_.filter(0), 0}},
                          {AggFn::kCount, {}},
                          {AggFn::kMax, {spec_.keyfigure(0), 0}}};
    grouped.group_by = {{spec_.group(0), 0}};
    ExpectEquivalent(Query(grouped), serial, parallel);
    grouped.group_by.push_back({spec_.group(1), 0});
    ExpectEquivalent(Query(grouped), serial, parallel);
  }

  SyntheticTableSpec spec_;
  telemetry::MetricsRegistry metrics_;
  std::unique_ptr<Database> serial_rs_;
  std::unique_ptr<Database> serial_cs_;
  std::unique_ptr<Database> parallel_rs_;
  std::unique_ptr<Database> parallel_cs_;
};

TEST_P(ParallelEquivalenceTest, RowStoreMatchesSerial) {
  RunBattery(*serial_rs_, *parallel_rs_);
}

TEST_P(ParallelEquivalenceTest, ColumnStoreMatchesSerial) {
  RunBattery(*serial_cs_, *parallel_cs_);
}

TEST_P(ParallelEquivalenceTest, ParallelPathActuallyEngaged) {
  RunBattery(*serial_rs_, *parallel_rs_);
  RunBattery(*serial_cs_, *parallel_cs_);
  if (telemetry::kCompiledIn) {
    // The batteries above must have dispatched morsels.
    EXPECT_GT(metrics_.GetCounter("hsdb_scan_morsels_total").value(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalenceTest,
                         ::testing::Values(2, 8));

// Code-keyed grouping (dictionary ids and FOR deltas combined into a flat
// slot table) must be invisible: grouped aggregations over group-by columns
// pinned to each codec return the same rows, in the same order, with
// bit-identical aggregates as the raw-encoded twin at DOP 1, whose grouping
// takes the generic Value-keyed path — at every degree of parallelism, so
// the raw table at the parameter's DOP is one more input. Two 128-code
// columns fill the flat table exactly (128 x 128 = 16384 slots); a 129-code
// column paired with a 128-code one falls back. Delta rows share the last
// morsel with main rows and tombstones straddle the first morsel boundary.
class CodeGroupingEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  // Main rows: the last morsel is partial and also holds the delta rows.
  static constexpr size_t kRows = 40'000;
  static constexpr ColumnId kA = 1;  // INT32, 128 codes
  static constexpr ColumnId kB = 2;  // INT64, 128 codes from -64
  static constexpr ColumnId kC = 3;  // INT32, 129 codes
  static constexpr ColumnId kS = 4;  // VARCHAR, 7 values
  static constexpr ColumnId kV = 5;  // DOUBLE key figure
  static constexpr ColumnId kW = 6;  // INT64 key figure

  static Row MakeRow(int64_t id) {
    return {Value(id), Value(static_cast<int32_t>((id * 37) % 128)),
            Value((id / 128) * 11 % 128 - 64),
            Value(static_cast<int32_t>((id * 7) % 129)),
            Value("ship" + std::to_string(id * 5 % 7)),
            Value(static_cast<double>(id) * 0.1 + 1.0 / 3.0),
            Value(id % 1000)};
  }

  /// The table with its group-by columns pinned to `group_encoding` and the
  /// rest to the dictionary, at `threads` degree of parallelism.
  static std::unique_ptr<Database> MakeDb(Encoding group_encoding,
                                          int threads) {
    Database::Options options;
    options.num_threads = threads;
    auto db = std::make_unique<Database>(options);
    Schema schema = Schema::CreateOrDie({{"id", DataType::kInt64},
                                         {"a", DataType::kInt32},
                                         {"b", DataType::kInt64},
                                         {"c", DataType::kInt32},
                                         {"s", DataType::kVarchar},
                                         {"v", DataType::kDouble},
                                         {"w", DataType::kInt64}},
                                        {0});
    const TableLayout layout = TableLayout::SingleStore(StoreType::kColumn);
    EXPECT_TRUE(db->CreateTable("g", schema, layout).ok());
    LogicalTable* table = db->catalog().GetTable("g");
    for (int64_t id = 0; id < static_cast<int64_t>(kRows); ++id) {
      EXPECT_TRUE(table->Insert(MakeRow(id)).ok());
    }
    std::vector<Encoding> encodings(schema.num_columns(),
                                    Encoding::kDictionary);
    for (ColumnId col : {kA, kB, kC, kS}) encodings[col] = group_encoding;
    EXPECT_TRUE(db->MigrateShadow("g", layout, encodings).ok());
    for (int64_t id = kRows; id < static_cast<int64_t>(kRows) + 300; ++id) {
      EXPECT_TRUE(db->Execute(InsertQuery{"g", MakeRow(id)}).ok());
    }
    DeleteQuery del;
    del.table = "g";
    del.predicate = {{{0, 0}, ValueRange::Between(Value(int64_t{16300}),
                                                  Value(int64_t{16500}))}};
    EXPECT_TRUE(db->Execute(Query(del)).ok());
    return db;
  }

  static const ColumnTable& Table(Database& db) {
    const PhysicalTable& table =
        *db.catalog().GetTable("g")->groups()[0].fragments[0].table;
    EXPECT_EQ(table.store(), StoreType::kColumn);
    return static_cast<const ColumnTable&>(table);
  }

  static std::vector<Query> Battery() {
    AggregationQuery q;
    q.tables = {"g"};
    q.aggregates = {{AggFn::kSum, {kV, 0}}, {AggFn::kCount, {}},
                    {AggFn::kAvg, {kV, 0}}, {AggFn::kMin, {kW, 0}},
                    {AggFn::kMax, {kV, 0}}};
    std::vector<Query> queries;
    auto add = [&](std::vector<ColumnId> group_by, Predicate predicate) {
      q.group_by.clear();
      for (ColumnId col : group_by) q.group_by.push_back({col, 0});
      q.predicate = std::move(predicate);
      queries.push_back(q);
    };
    const Predicate across_boundary = {
        {{0, 0}, ValueRange::Between(Value(int64_t{9000}),
                                     Value(int64_t{40'200}))}};
    add({kA}, {});
    add({kA, kB}, {});  // 128 x 128: the flat table exactly
    add({kB, kC}, {});  // 128 x 129: falls back
    add({kC}, {});
    add({kS, kA}, across_boundary);
    add({kB, kA}, across_boundary);
    add({kC, kB},
        {{{kW, 0}, ValueRange::Between(Value(int64_t{100}),
                                       Value(int64_t{500}))}});
    return queries;
  }

  /// Bit-identical: same shape, same row order, equal keys, and aggregates
  /// equal down to the bit pattern.
  static void ExpectIdentical(const Result<QueryResult>& want,
                              const Result<QueryResult>& got,
                              const std::string& what) {
    ASSERT_TRUE(want.ok()) << what;
    ASSERT_TRUE(got.ok()) << what;
    ASSERT_EQ(want->rows.size(), got->rows.size()) << what;
    for (size_t r = 0; r < want->rows.size(); ++r) {
      const Row& a = want->rows[r];
      const Row& b = got->rows[r];
      ASSERT_EQ(a.size(), b.size()) << what;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].type(), b[i].type()) << what << " row " << r;
        if (a[i].type() == DataType::kDouble) {
          EXPECT_EQ(std::bit_cast<uint64_t>(a[i].as_double()),
                    std::bit_cast<uint64_t>(b[i].as_double()))
              << what << " row " << r << ": " << RowToString(a) << " vs "
              << RowToString(b);
        } else {
          EXPECT_TRUE(a[i] == b[i]) << what << " row " << r << ": "
                                    << RowToString(a) << " vs "
                                    << RowToString(b);
        }
      }
    }
  }
};

TEST_P(CodeGroupingEquivalenceTest, EveryCodecMatchesTheRawTwin) {
  const int threads = GetParam();
  std::unique_ptr<Database> raw = MakeDb(Encoding::kRaw, /*threads=*/1);
  EXPECT_EQ(Table(*raw).MainCodes(kA).packed, nullptr);
  const std::vector<Query> queries = Battery();
  std::vector<Result<QueryResult>> want;
  for (const Query& q : queries) want.push_back(raw->Execute(q));

  for (Encoding e : {Encoding::kDictionary, Encoding::kFrameOfReference,
                     Encoding::kRle, Encoding::kRaw}) {
    std::unique_ptr<Database> db = MakeDb(e, threads);
    const ColumnTable& table = Table(*db);
    ASSERT_EQ(table.ColumnEncoding(kA), e);
    ASSERT_GT(table.delta_rows(), 0u);
    if (e == Encoding::kDictionary || e == Encoding::kFrameOfReference) {
      // The code spaces the flat-table rule sees.
      EXPECT_EQ(table.MainCodes(kA).space, 128u);
      EXPECT_EQ(table.MainCodes(kB).space, 128u);
      EXPECT_EQ(table.MainCodes(kC).space, 129u);
    }
    const std::string name(EncodingName(e));
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectIdentical(want[i], db->Execute(queries[i]),
                      name + " " + QueryToString(queries[i]));
    }
    std::vector<Result<QueryResult>> batch =
        BatchExecutor(db.get()).ExecuteBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectIdentical(want[i], batch[i],
                      name + " batch " + QueryToString(queries[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, CodeGroupingEquivalenceTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace hsdb
