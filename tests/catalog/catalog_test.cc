#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "storage/column_table.h"

namespace hsdb {
namespace {

Schema SimpleSchema() {
  return Schema::CreateOrDie({{"id", DataType::kInt64},
                              {"grp", DataType::kInt32},
                              {"val", DataType::kDouble},
                              {"tag", DataType::kVarchar}},
                             {0});
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("t1", SimpleSchema(),
                               TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  EXPECT_EQ(catalog.table_count(), 1u);
  EXPECT_NE(catalog.GetTable("t1"), nullptr);
  EXPECT_EQ(catalog.GetTable("t2"), nullptr);
  EXPECT_TRUE(catalog.Find("t1").ok());
  EXPECT_EQ(catalog.Find("t2").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog
                .CreateTable("t1", SimpleSchema(),
                             TableLayout::SingleStore(StoreType::kRow))
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.DropTable("t1").ok());
  EXPECT_EQ(catalog.DropTable("t1").code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.table_count(), 0u);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  for (const char* name : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(catalog
                    .CreateTable(name, SimpleSchema(),
                                 TableLayout::SingleStore(StoreType::kRow))
                    .ok());
  }
  EXPECT_EQ(catalog.TableNames(),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(CatalogTest, StatisticsLifecycle) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("t", SimpleSchema(),
                               TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  EXPECT_EQ(catalog.GetStatistics("t"), nullptr);
  LogicalTable* t = catalog.GetTable("t");
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t->Insert({i, int32_t(i % 4), i * 0.5, "s" + std::to_string(i % 3)})
            .ok());
  }
  ASSERT_TRUE(catalog.UpdateStatistics("t").ok());
  const TableStatistics* stats = catalog.GetStatistics("t");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, 100u);
  EXPECT_EQ(catalog.UpdateStatistics("missing").code(),
            StatusCode::kNotFound);
}

TEST(StatisticsTest, PerColumnStats) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("t", SimpleSchema(),
                               TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  LogicalTable* t = catalog.GetTable("t");
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        t->Insert({i, int32_t(i % 4), 100.0 + (i % 50), "s" + std::to_string(i % 3)})
            .ok());
  }
  t->ForceMerge();
  TableStatistics stats = Analyze(*t);
  EXPECT_EQ(stats.row_count, 1000u);
  EXPECT_EQ(stats.column(0).distinct_count, 1000u);
  EXPECT_EQ(stats.column(1).distinct_count, 4u);
  EXPECT_EQ(stats.column(2).distinct_count, 50u);
  EXPECT_EQ(stats.column(3).distinct_count, 3u);
  EXPECT_DOUBLE_EQ(*stats.column(0).min, 0.0);
  EXPECT_DOUBLE_EQ(*stats.column(0).max, 999.0);
  EXPECT_DOUBLE_EQ(*stats.column(2).min, 100.0);
  EXPECT_DOUBLE_EQ(*stats.column(2).max, 149.0);
  EXPECT_FALSE(stats.column(3).min.has_value());  // varchar: no numeric range
  // Low-cardinality columns compress well in the column store.
  EXPECT_LT(stats.column(1).compression_rate, 0.5);
  EXPECT_GT(stats.table_compression_rate, 0.0);
}

TEST(StatisticsTest, SameRowsSameStatisticsOnEveryStore) {
  // The same rows in a row store and in a column store whose merged main
  // has deleted rows and whose delta is non-empty: Analyze walks each
  // store's live rows in physical order, so the statistics must agree.
  auto rs = LogicalTable::Create("rs", SimpleSchema(),
                                 TableLayout::SingleStore(StoreType::kRow));
  auto cs = LogicalTable::Create("cs", SimpleSchema(),
                                 TableLayout::SingleStore(StoreType::kColumn));
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(cs.ok());
  auto row_of = [](int64_t i) -> Row {
    return {i, int32_t(i / 7 % 5), (i % 13) * 0.25,
            "s" + std::to_string(i / 11 % 4)};
  };
  for (LogicalTable* t : {rs->get(), cs->get()}) {
    for (int64_t i = 0; i < 600; ++i) ASSERT_TRUE(t->Insert(row_of(i)).ok());
    t->ForceMerge();
    // Deletes in the merged main, including both ends and a whole run.
    for (int64_t i : {0, 1, 2, 3, 4, 5, 6, 300, 417, 599}) {
      ASSERT_TRUE(t->DeleteByPk(PrimaryKey::Of(Value(i))).ok());
    }
    for (int64_t i = 600; i < 750; ++i) {
      ASSERT_TRUE(t->Insert(row_of(i)).ok());
    }
    ASSERT_TRUE(t->DeleteByPk(PrimaryKey::Of(Value(int64_t{700}))).ok());
  }
  const auto& ct = static_cast<const ColumnTable&>(
      *(*cs)->groups().front().fragments.front().table);
  ASSERT_GT(ct.main_rows(), 0u);
  ASSERT_GT(ct.delta_rows(), 0u);
  ASSERT_LT(ct.live_count(), ct.slot_count());

  const TableStatistics row_stats = Analyze(**rs);
  const TableStatistics col_stats = Analyze(**cs);
  EXPECT_EQ(row_stats.row_count, 739u);
  EXPECT_EQ(col_stats.row_count, row_stats.row_count);
  ASSERT_EQ(col_stats.columns.size(), row_stats.columns.size());
  for (ColumnId c = 0; c < row_stats.columns.size(); ++c) {
    const ColumnStatistics& r = row_stats.column(c);
    const ColumnStatistics& k = col_stats.column(c);
    EXPECT_EQ(k.min, r.min) << "column " << c;
    EXPECT_EQ(k.max, r.max) << "column " << c;
    EXPECT_DOUBLE_EQ(k.avg_run_length, r.avg_run_length) << "column " << c;
    EXPECT_EQ(k.distinct_count, r.distinct_count) << "column " << c;
  }
  EXPECT_DOUBLE_EQ(*col_stats.column(0).min, 7.0);
  EXPECT_DOUBLE_EQ(*col_stats.column(0).max, 749.0);
  EXPECT_EQ(col_stats.column(1).distinct_count, 5u);
}

TEST(StatisticsTest, NegativeZeroCountsOnceOnEveryStore) {
  // -0.0 == 0.0: the column store's dictionary keeps one entry for both,
  // and Analyze must count one distinct value on either store.
  const Schema schema = Schema::CreateOrDie(
      {{"id", DataType::kInt64}, {"val", DataType::kDouble}}, {0});
  for (StoreType store : {StoreType::kRow, StoreType::kColumn}) {
    auto t = LogicalTable::Create("t", schema, TableLayout::SingleStore(store));
    ASSERT_TRUE(t.ok());
    const double values[] = {0.0, -0.0, 1.0, -0.0, 0.0};
    for (int64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*t)->Insert({i, values[i]}).ok());
    }
    (*t)->ForceMerge();
    const TableStatistics stats = Analyze(**t);
    EXPECT_EQ(stats.column(1).distinct_count, 2u) << StoreTypeName(store);
    if (store == StoreType::kColumn) {
      const auto& ct = static_cast<const ColumnTable&>(
          *(*t)->groups().front().fragments.front().table);
      EXPECT_EQ(ct.DictionarySize(1), 2u);
    }
  }
}

/// Naive statistics of one column: every live value of the fragment holding
/// the column, read cell by cell in physical order (runs restart at each row
/// group), distinct values through an ordered set.
ColumnStatistics ReferenceColumnStatistics(const LogicalTable& table,
                                           ColumnId col) {
  ColumnStatistics ref;
  ref.type = table.schema().column(col).type;
  const bool numeric = IsNumeric(ref.type);
  std::set<Value> distinct;
  size_t rows = 0;
  size_t runs = 0;
  size_t payload = 0;
  for (const RowGroup& group : table.groups()) {
    for (const Fragment& frag : group.fragments) {
      if (!frag.Contains(col)) continue;
      std::optional<Value> prev;
      frag.table->live_bitmap().ForEachSet([&](size_t rid) {
        Value v = frag.table->GetValue(rid, frag.FragColumn(col));
        if (!prev.has_value() || !(v == *prev)) ++runs;
        ++rows;
        if (numeric) {
          const double x = v.AsNumeric();
          ref.min = std::min(ref.min.value_or(x), x);
          ref.max = std::max(ref.max.value_or(x), x);
        } else {
          payload += v.as_string().size();
        }
        distinct.insert(v);
        prev = std::move(v);
      });
      break;
    }
  }
  ref.distinct_count = distinct.size();
  if (runs > 0) ref.avg_run_length = static_cast<double>(rows) / runs;
  ref.avg_plain_bytes =
      numeric ? FixedWidth(ref.type)
              : sizeof(std::string) +
                    (rows > 0 ? static_cast<double>(payload) / rows : 0.0);
  return ref;
}

TEST(StatisticsTest, AnalyzeMatchesNaiveReferenceOnEveryLayout) {
  const Schema schema =
      Schema::CreateOrDie({{"id", DataType::kInt64},
                           {"zero", DataType::kInt64},
                           {"neg", DataType::kInt64},
                           {"grp", DataType::kInt32},
                           {"val", DataType::kDouble},
                           {"day", DataType::kDate},
                           {"tag", DataType::kVarchar},
                           {"note", DataType::kVarchar}},
                          {0});
  // Covers the set's empty-slot key (a column of zeros, and 0.0 next to
  // -0.0), negative integers, the empty string and strings past the
  // small-string buffer, with runs in physical order.
  auto row_of = [](int64_t i) -> Row {
    const int64_t r = i % 17;
    return {i,
            int64_t{0},
            -(i % 9) * 1'000'000'007 - 1,
            int32_t(i / 6 % 5),
            r == 0 ? (i % 2 == 0 ? 0.0 : -0.0) : r * -0.5,
            Date{int32_t(9000 + i / 40)},
            i % 7 == 0 ? std::string() : "t" + std::to_string(i / 3 % 4),
            "a note longer than fifteen bytes #" + std::to_string(i % 23)};
  };
  TableLayout horizontal;
  horizontal.base_store = StoreType::kColumn;
  horizontal.horizontal = HorizontalSpec{0, 300.0, StoreType::kRow};
  TableLayout vertical;  // `note` sits in the second (column-store) fragment
  vertical.base_store = StoreType::kColumn;
  vertical.vertical = VerticalSpec{{1, 3, 6}};
  const std::pair<const char*, TableLayout> layouts[] = {
      {"row store", TableLayout::SingleStore(StoreType::kRow)},
      {"column store", TableLayout::SingleStore(StoreType::kColumn)},
      {"horizontal split", horizontal},
      {"vertical split", vertical}};
  for (const auto& [name, layout] : layouts) {
    SCOPED_TRACE(name);
    auto t = LogicalTable::Create("t", schema, layout);
    ASSERT_TRUE(t.ok());
    LogicalTable& table = **t;
    for (int64_t i = 0; i < 600; ++i) ASSERT_TRUE(table.Insert(row_of(i)).ok());
    table.ForceMerge();
    for (int64_t i : {0, 1, 2, 250, 299, 300, 417, 599}) {
      ASSERT_TRUE(table.DeleteByPk(PrimaryKey::Of(Value(i))).ok());
    }
    for (int64_t i = 600; i < 750; ++i) {
      ASSERT_TRUE(table.Insert(row_of(i)).ok());
    }
    ASSERT_TRUE(table.DeleteByPk(PrimaryKey::Of(Value(int64_t{700}))).ok());
    if (layout == TableLayout::SingleStore(StoreType::kColumn)) {
      const auto& ct = static_cast<const ColumnTable&>(
          *table.groups().front().fragments.front().table);
      ASSERT_GT(ct.main_rows(), 0u);
      ASSERT_GT(ct.delta_rows(), 0u);
      ASSERT_LT(ct.live_count(), ct.slot_count());
    }

    const TableStatistics stats = Analyze(table);
    ASSERT_EQ(stats.row_count, 741u);
    for (ColumnId c = 0; c < schema.num_columns(); ++c) {
      SCOPED_TRACE(schema.column(c).name);
      const ColumnStatistics ref = ReferenceColumnStatistics(table, c);
      const ColumnStatistics& got = stats.column(c);
      EXPECT_EQ(got.distinct_count, ref.distinct_count);
      EXPECT_EQ(got.min, ref.min);
      EXPECT_EQ(got.max, ref.max);
      EXPECT_DOUBLE_EQ(got.avg_run_length, ref.avg_run_length);
      EXPECT_DOUBLE_EQ(got.avg_plain_bytes, ref.avg_plain_bytes);
    }
  }
}

TEST(StatisticsTest, RowStoreGetsAnalyticCompressionEstimate) {
  // Same data in both stores: the RS table's hypothetical CS compression
  // estimate should be in the ballpark of the CS table's measured one.
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("rs", SimpleSchema(),
                               TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(catalog
                  .CreateTable("cs", SimpleSchema(),
                               TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  for (int64_t i = 0; i < 2000; ++i) {
    Row row = {i, int32_t(i % 8), static_cast<double>(i % 100), "x"};
    ASSERT_TRUE(catalog.GetTable("rs")->Insert(row).ok());
    ASSERT_TRUE(catalog.GetTable("cs")->Insert(row).ok());
  }
  catalog.GetTable("cs")->ForceMerge();
  TableStatistics rs_stats = Analyze(*catalog.GetTable("rs"));
  TableStatistics cs_stats = Analyze(*catalog.GetTable("cs"));
  // grp column: 8 distinct over 2000 rows -> strong compression either way.
  EXPECT_LT(rs_stats.column(1).compression_rate, 0.3);
  EXPECT_LT(cs_stats.column(1).compression_rate, 0.3);
}

TEST(StatisticsTest, SelectivityEstimates) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("t", SimpleSchema(),
                               TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  LogicalTable* t = catalog.GetTable("t");
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t->Insert({i, int32_t(i % 10), static_cast<double>(i), "s"})
                    .ok());
  }
  TableStatistics stats = Analyze(*t);
  // Point on id: 1/distinct.
  EXPECT_NEAR(stats.EstimateSelectivity(
                  0, ValueRange::Eq(Value(int64_t{5}))),
              0.001, 1e-6);
  // Range covering 10% of the domain.
  EXPECT_NEAR(stats.EstimateSelectivity(
                  0, ValueRange::Between(Value(int64_t{0}),
                                         Value(int64_t{100}))),
              0.1, 0.01);
  // Range covering everything.
  EXPECT_NEAR(stats.EstimateSelectivity(
                  0, ValueRange::Between(Value(int64_t{-10}),
                                         Value(int64_t{2000}))),
              1.0, 1e-6);
  // Disjoint range.
  EXPECT_NEAR(stats.EstimateSelectivity(
                  0, ValueRange::AtLeast(Value(int64_t{5000}))),
              0.0, 1e-6);
  // Half-open range.
  EXPECT_NEAR(stats.EstimateSelectivity(
                  0, ValueRange::AtMost(Value(499.5))),
              0.5, 0.01);
}

TEST(StatisticsTest, SampledDistinctOnLargeTable) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("t", SimpleSchema(),
                               TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  LogicalTable* t = catalog.GetTable("t");
  for (int64_t i = 0; i < 20'000; ++i) {
    ASSERT_TRUE(t->Insert({i, int32_t(i % 4), static_cast<double>(i), "s"})
                    .ok());
  }
  t->ForceMerge();
  // Force sampling with a small exact limit.
  TableStatistics stats = Analyze(*t, /*exact_distinct_limit=*/1000);
  // Unique column: estimate within 2x of the truth.
  EXPECT_GT(stats.column(0).distinct_count, 10'000u);
  EXPECT_LE(stats.column(0).distinct_count, 20'000u);
  // Low-cardinality column: exact despite sampling.
  EXPECT_EQ(stats.column(1).distinct_count, 4u);
}

TEST(CatalogTest, StatisticsRefreshMemoizedOnDataVersion) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("t", SimpleSchema(),
                               TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  LogicalTable* t = catalog.GetTable("t");
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t->Insert({i, int32_t(i % 4), static_cast<double>(i), "s"}).ok());
  }
  ASSERT_TRUE(catalog.UpdateStatistics("t").ok());
  const TableStatistics* first = catalog.GetStatistics("t");
  ASSERT_NE(first, nullptr);

  // Nothing mutated: the refresh is a no-op (no re-profiling), observable
  // as the same statistics object being kept.
  ASSERT_TRUE(catalog.UpdateStatistics("t").ok());
  EXPECT_EQ(catalog.GetStatistics("t"), first);
  catalog.UpdateAllStatistics();
  EXPECT_EQ(catalog.GetStatistics("t"), first);

  // Any mutation moves the data version and invalidates the memo ...
  ASSERT_TRUE(t->Insert({int64_t{1000}, int32_t{0}, 0.5, "x"}).ok());
  ASSERT_TRUE(catalog.UpdateStatistics("t").ok());
  const TableStatistics* second = catalog.GetStatistics("t");
  EXPECT_NE(second, first);
  EXPECT_EQ(second->row_count, 101u);

  // ... and so does a delta merge, which can change column encodings even
  // though the values stayed put.
  uint64_t before = t->data_version();
  t->ForceMerge();
  EXPECT_GT(t->data_version(), before);
  ASSERT_TRUE(catalog.UpdateStatistics("t").ok());
  EXPECT_NE(catalog.GetStatistics("t"), second);
}

TEST(CatalogTest, ReplaceTableValidatesSchema) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("t", SimpleSchema(),
                               TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  auto other = LogicalTable::Create(
      "t", Schema::CreateOrDie({{"x", DataType::kInt32}}, {0}),
      TableLayout::SingleStore(StoreType::kRow));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(catalog.ReplaceTable("t", std::move(other).value()).code(),
            StatusCode::kInvalidArgument);
  auto same = LogicalTable::Create(
      "t", SimpleSchema(), TableLayout::SingleStore(StoreType::kColumn));
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(catalog.ReplaceTable("t", std::move(same).value()).ok());
  EXPECT_EQ(catalog.GetTable("t")->layout().base_store, StoreType::kColumn);
}

}  // namespace
}  // namespace hsdb
