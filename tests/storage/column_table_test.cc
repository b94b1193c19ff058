#include "storage/column_table.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace hsdb {
namespace {

Schema TestSchema() {
  return Schema::CreateOrDie({{"id", DataType::kInt64},
                              {"qty", DataType::kInt32},
                              {"price", DataType::kDouble},
                              {"name", DataType::kVarchar}},
                             {0});
}

Row MakeTestRow(int64_t id) {
  return {id, int32_t(id % 10), id * 1.5, "name_" + std::to_string(id % 7)};
}

ColumnTable::Options NoAutoMerge() {
  ColumnTable::Options opts;
  opts.auto_merge = false;
  return opts;
}

TEST(ColumnTableTest, InsertGoesToDelta) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  const RowId rid = t->Insert(MakeTestRow(1));
  EXPECT_EQ(t->main_rows(), 0u);
  EXPECT_EQ(t->delta_rows(), 1u);
  EXPECT_EQ(t->GetValue(rid, 0).as_int64(), 1);
  EXPECT_EQ(t->GetValue(rid, 3).as_string(), "name_1");
}

TEST(ColumnTableTest, MergeMovesDeltaToMain) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 100; ++i) t->Insert(MakeTestRow(i));
  t->MergeDelta();
  EXPECT_EQ(t->main_rows(), 100u);
  EXPECT_EQ(t->delta_rows(), 0u);
  EXPECT_EQ(t->merge_count(), 1u);
  // Values survive the merge; reads hit the dictionary-encoded main.
  for (int64_t i = 0; i < 100; ++i) {
    auto rid = t->FindByPk(PrimaryKey::Of(Value(i)));
    ASSERT_TRUE(rid.has_value()) << i;
    EXPECT_EQ(t->GetValue(*rid, 0).as_int64(), i);
    EXPECT_DOUBLE_EQ(t->GetValue(*rid, 2).as_double(), i * 1.5);
    EXPECT_EQ(t->GetValue(*rid, 3).as_string(),
              "name_" + std::to_string(i % 7));
  }
}

TEST(ColumnTableTest, DictionaryDeduplicates) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 1000; ++i) {
    t->Insert(MakeTestRow(i));
  }
  t->MergeDelta();
  EXPECT_EQ(t->DictionarySize(0), 1000u);  // unique ids
  EXPECT_EQ(t->DictionarySize(1), 10u);    // qty has 10 distinct values
  EXPECT_EQ(t->DictionarySize(3), 7u);     // 7 distinct names
}

TEST(ColumnTableTest, CompressionImprovesWithRepetition) {
  auto low_card = ColumnTable::Create(
      Schema::CreateOrDie({{"id", DataType::kInt64},
                           {"v", DataType::kInt64}},
                          {0}),
      NoAutoMerge());
  for (int64_t i = 0; i < 10'000; ++i) {
    low_card->Insert({i, i % 4});
  }
  low_card->MergeDelta();
  // v column: dictionary of 4 entries + 2-bit ids, far below 8 bytes/row.
  EXPECT_LT(low_card->CompressionRate(1), 0.1);
  // id column: all unique, compression rate should be worse than v's.
  EXPECT_GT(low_card->CompressionRate(0), low_card->CompressionRate(1));
  double table_rate = low_card->TableCompressionRate();
  EXPECT_GT(table_rate, 0.0);
  EXPECT_LT(table_rate, 1.5);
}

// LogicalTable probes the key before it calls a store
// (LogicalTableTest.InsertRejectsDuplicateKey covers main and delta); a
// duplicate that still reaches the store is an engine bug and aborts.
TEST(ColumnTableTest, DuplicatePkRejectedAcrossMainAndDelta) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  t->Insert(MakeTestRow(1));
  t->MergeDelta();
  EXPECT_DEATH(t->Insert(MakeTestRow(1)), "duplicate primary key");
  t->Insert(MakeTestRow(2));
  EXPECT_DEATH(t->Insert(MakeTestRow(2)), "duplicate primary key");
}

// LogicalTable rejects key-column updates with NotSupported
// (LogicalTableTest.UpdateRejectsPkColumn); one that still reaches the store
// is an engine bug and aborts, for a row in main and in the delta.
TEST(ColumnTableTest, UpdateRejectsPkColumn) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  RowId in_main = t->Insert(MakeTestRow(1));
  t->MergeDelta();
  RowId in_delta = t->Insert(MakeTestRow(2));
  EXPECT_DEATH(t->UpdateRow(in_main, {0}, {int64_t{3}}),
               "primary-key column update");
  EXPECT_DEATH(t->UpdateRow(in_delta, {0}, {int64_t{3}}),
               "primary-key column update");
  EXPECT_EQ(t->GetRow(in_main), MakeTestRow(1));
  EXPECT_EQ(t->GetRow(in_delta), MakeTestRow(2));
}

TEST(ColumnTableTest, UpdateIsTombstonePlusReinsert) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 10; ++i) t->Insert(MakeTestRow(i));
  t->MergeDelta();
  auto rid = t->FindByPk(PrimaryKey::Of(Value(int64_t{5})));
  ASSERT_TRUE(rid.has_value());
  t->UpdateRow(*rid, {2}, {Value(999.0)});
  // Old slot dead, new delta slot live.
  EXPECT_FALSE(t->IsLive(*rid));
  EXPECT_EQ(t->delta_rows(), 1u);
  EXPECT_EQ(t->live_count(), 10u);
  auto new_rid = t->FindByPk(PrimaryKey::Of(Value(int64_t{5})));
  ASSERT_TRUE(new_rid.has_value());
  EXPECT_NE(*new_rid, *rid);
  EXPECT_DOUBLE_EQ(t->GetValue(*new_rid, 2).as_double(), 999.0);
  // Unmodified columns preserved by reconstruction.
  EXPECT_EQ(t->GetValue(*new_rid, 1).as_int32(), 5);
  EXPECT_EQ(t->GetValue(*new_rid, 3).as_string(), "name_5");
}

TEST(ColumnTableTest, DeleteAndMergeCompacts) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 100; ++i) t->Insert(MakeTestRow(i));
  t->MergeDelta();
  for (int64_t i = 0; i < 50; ++i) {
    auto rid = t->FindByPk(PrimaryKey::Of(Value(i)));
    t->DeleteRow(*rid);
  }
  EXPECT_EQ(t->live_count(), 50u);
  EXPECT_EQ(t->slot_count(), 100u);
  t->MergeDelta();  // compaction
  EXPECT_EQ(t->live_count(), 50u);
  EXPECT_EQ(t->slot_count(), 50u);
  EXPECT_EQ(t->main_rows(), 50u);
  // Survivors intact, deleted keys gone.
  EXPECT_FALSE(t->FindByPk(PrimaryKey::Of(Value(int64_t{0}))).has_value());
  auto rid = t->FindByPk(PrimaryKey::Of(Value(int64_t{75})));
  ASSERT_TRUE(rid.has_value());
  EXPECT_DOUBLE_EQ(t->GetValue(*rid, 2).as_double(), 75 * 1.5);
  // Dictionary shrank to surviving values.
  EXPECT_EQ(t->DictionarySize(0), 50u);
}

TEST(ColumnTableTest, AutoMergeAtStatementBoundary) {
  ColumnTable::Options opts;
  opts.min_merge_rows = 10;
  opts.merge_fraction = 0.5;
  auto t = ColumnTable::Create(TestSchema(), opts);
  for (int64_t i = 0; i < 11; ++i) {
    t->Insert(MakeTestRow(i));
    // No merge may happen mid-statement.
    EXPECT_EQ(t->merge_count(), 0u);
  }
  EXPECT_TRUE(t->NeedsMerge());
  t->AfterStatement();
  EXPECT_EQ(t->merge_count(), 1u);
  EXPECT_EQ(t->main_rows(), 11u);
  // Below threshold: no merge.
  t->Insert(MakeTestRow(100));
  t->AfterStatement();
  EXPECT_EQ(t->merge_count(), 1u);
}

TEST(ColumnTableTest, FilterRangeAcrossMainAndDelta) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 50; ++i) t->Insert(MakeTestRow(i));
  t->MergeDelta();
  for (int64_t i = 50; i < 100; ++i) {
    t->Insert(MakeTestRow(i));
  }
  // Range straddles the main/delta boundary.
  Bitmap bm = t->live_bitmap();
  t->FilterRangeSlice(
      0, ValueRange::Between(Value(int64_t{40}), Value(int64_t{59})), 0,
      t->slot_count(), &bm);
  EXPECT_EQ(bm.Count(), 20u);
  // Conjunction with an equality on qty.
  t->FilterRangeSlice(1, ValueRange::Eq(Value(int32_t{5})), 0,
                      t->slot_count(), &bm);
  EXPECT_EQ(bm.Count(), 2u);  // ids 45 and 55
}

// A morsel slice that ends inside the main segment while delta rows exist
// has an empty delta part; the slice filters must narrow only [0, end) and
// the slice reader must visit only [0, end).
TEST(ColumnTableTest, SlicesEndingInMainSkipTheDelta) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 200; ++i) {
    t->Insert(MakeTestRow(i));
  }
  t->MergeDelta();
  for (int64_t i = 200; i < 250; ++i) {
    t->Insert(MakeTestRow(i));
  }
  ASSERT_EQ(t->main_rows(), 200u);
  ASSERT_GT(t->delta_rows(), 0u);
  constexpr size_t kEnd = 128;  // 64-aligned, before main_rows()
  const ValueRange qty = ValueRange::Eq(Value(int32_t{5}));
  const ValueRange name = ValueRange::Eq(Value("name_2"));
  const ValueRange low_id =
      ValueRange::Between(Value(int64_t{0}), Value(int64_t{99}));
  // Rows outside the slice keep their live bit; inside, the predicate holds.
  const auto expect_slice = [&](const Bitmap& bm, auto keep) {
    for (size_t rid = 0; rid < bm.size(); ++rid) {
      const bool want = rid >= kEnd || keep(static_cast<int64_t>(rid));
      EXPECT_EQ(bm.Test(rid), want) << "row " << rid;
    }
  };
  const auto qty_keep = [](int64_t id) { return id % 10 == 5; };
  const auto name_keep = [](int64_t id) { return id % 7 == 2; };

  Bitmap by_qty = t->live_bitmap();
  t->FilterRangeSlice(1, qty, 0, kEnd, &by_qty);
  expect_slice(by_qty, qty_keep);
  Bitmap by_name = t->live_bitmap();
  t->FilterRangeSlice(3, name, 0, kEnd, &by_name);
  expect_slice(by_name, name_keep);

  // One target takes the single-predicate path, two the shared one.
  Bitmap one = t->live_bitmap();
  RangeScanTarget single{&qty, &one};
  t->MultiFilterRangeSlice(1, &single, 1, 0, kEnd);
  expect_slice(one, qty_keep);
  Bitmap a = t->live_bitmap();
  Bitmap b = t->live_bitmap();
  const RangeScanTarget pair[] = {{&qty, &a}, {&qty, &b}};
  t->MultiFilterRangeSlice(1, pair, 2, 0, kEnd);
  expect_slice(a, qty_keep);
  expect_slice(b, qty_keep);
  Bitmap c = t->live_bitmap();
  Bitmap d = t->live_bitmap();
  const RangeScanTarget strings[] = {{&name, &c}, {&name, &d}};
  t->MultiFilterRangeSlice(3, strings, 2, 0, kEnd);
  expect_slice(c, name_keep);
  expect_slice(d, name_keep);
  Bitmap e = t->live_bitmap();
  Bitmap f = t->live_bitmap();
  const RangeScanTarget ids[] = {{&low_id, &e}, {&low_id, &f}};
  t->MultiFilterRangeSlice(0, ids, 2, 0, kEnd);
  expect_slice(e, [](int64_t id) { return id <= 99; });
  expect_slice(f, [](int64_t id) { return id <= 99; });

  size_t visited = 0;
  t->ForEachNumericRange(1, t->live_bitmap(), 0, kEnd,
                         [&](size_t rid, double v) {
                           EXPECT_LT(rid, kEnd);
                           EXPECT_EQ(v, static_cast<double>(rid % 10));
                           ++visited;
                         });
  EXPECT_EQ(visited, kEnd);
}

TEST(ColumnTableTest, FilterRangeVarcharViaDictionary) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 70; ++i) t->Insert(MakeTestRow(i));
  t->MergeDelta();
  Bitmap bm = t->live_bitmap();
  t->FilterRangeSlice(3, ValueRange::Eq(Value("name_2")), 0,
                      t->slot_count(), &bm);
  EXPECT_EQ(bm.Count(), 10u);  // i % 7 == 2 for 70 rows
  // Range over strings.
  Bitmap bm2 = t->live_bitmap();
  t->FilterRangeSlice(3,
                      ValueRange::Between(Value("name_0"), Value("name_1")),
                      0, t->slot_count(), &bm2);
  EXPECT_EQ(bm2.Count(), 20u);
}

TEST(ColumnTableTest, FilterRangeExclusiveBounds) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 10; ++i) t->Insert(MakeTestRow(i));
  t->MergeDelta();
  Bitmap bm = t->live_bitmap();
  ValueRange r;
  r.lo = Value(int64_t{2});
  r.lo_inclusive = false;
  r.hi = Value(int64_t{5});
  r.hi_inclusive = false;
  t->FilterRangeSlice(0, r, 0, t->slot_count(), &bm);
  EXPECT_EQ(bm.Count(), 2u);
}

TEST(ColumnTableTest, ForEachNumericSpansMainAndDelta) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 10; ++i) t->Insert(MakeTestRow(i));
  t->MergeDelta();
  for (int64_t i = 10; i < 20; ++i) {
    t->Insert(MakeTestRow(i));
  }
  double sum = 0;
  t->ForEachNumericRange(0, t->live_bitmap(), 0, t->slot_count(),
                         [&](RowId, double v) { sum += v; });
  EXPECT_DOUBLE_EQ(sum, 190.0);  // 0+..+19
}

TEST(ColumnTableTest, ForEachStringSpansMainAndDelta) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 10; ++i) t->Insert(MakeTestRow(i));
  t->MergeDelta();
  for (int64_t i = 10; i < 20; ++i) t->Insert(MakeTestRow(i));
  t->DeleteRow(12);
  // A range that starts inside the main part and ends inside the delta.
  std::vector<RowId> rids;
  t->ForEachStringRange(3, t->live_bitmap(), 5, 15,
                        [&](RowId rid, std::string_view v) {
                          EXPECT_EQ(v, "name_" + std::to_string(rid % 7));
                          rids.push_back(rid);
                        });
  EXPECT_EQ(rids, (std::vector<RowId>{5, 6, 7, 8, 9, 10, 11, 13, 14}));
}

TEST(ColumnTableTest, MergePreservesPkIndex) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 500; ++i) t->Insert(MakeTestRow(i));
  t->MergeDelta();
  for (int64_t i = 0; i < 500; ++i) {
    auto rid = t->FindByPk(PrimaryKey::Of(Value(i)));
    ASSERT_TRUE(rid.has_value()) << i;
    ASSERT_EQ(t->GetValue(*rid, 0).as_int64(), i);
  }
}

TEST(ColumnTableTest, PkIndexSurvivesMergesWithTombstones) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  for (int64_t i = 0; i < 300; ++i) t->Insert(MakeTestRow(i));
  t->MergeDelta();
  for (int64_t i = 300; i < 400; ++i) {
    t->Insert(MakeTestRow(i));
  }
  auto pk = [](int64_t id) { return PrimaryKey::Of(Value(id)); };
  std::set<int64_t> deleted;
  std::set<int64_t> updated;
  auto remove = [&](int64_t id) {
    auto rid = t->FindByPk(pk(id));
    ASSERT_TRUE(rid.has_value()) << id;
    t->DeleteRow(*rid);
    deleted.insert(id);
  };
  auto update = [&](int64_t id) {
    auto rid = t->FindByPk(pk(id));
    ASSERT_TRUE(rid.has_value()) << id;
    t->UpdateRow(*rid, {1}, {Value(int32_t{-1})});
    updated.insert(id);
  };
  auto expect_index = [&](const std::string& when) {
    EXPECT_EQ(t->live_count(), 400 - deleted.size()) << when;
    for (int64_t id = 0; id < 400; ++id) {
      auto rid = t->FindByPk(pk(id));
      if (deleted.count(id) > 0) {
        EXPECT_FALSE(rid.has_value()) << when << " id " << id;
        continue;
      }
      ASSERT_TRUE(rid.has_value()) << when << " id " << id;
      ASSERT_TRUE(t->IsLive(*rid)) << when << " id " << id;
      EXPECT_EQ(t->GetValue(*rid, 0).as_int64(), id) << when;
      EXPECT_EQ(t->GetValue(*rid, 1).as_int32(),
                updated.count(id) > 0 ? -1 : int32_t(id % 10))
          << when << " id " << id;
    }
  };
  // Tombstones in the main (0, 150, 299) and in the delta (300, 350, 399);
  // updates tombstone main (1, 200) and delta (320) rows and re-insert them.
  for (int64_t id : {0, 150, 299, 300, 350, 399}) remove(id);
  for (int64_t id : {1, 200, 320}) update(id);
  expect_index("before merges");
  t->MergeDelta();
  expect_index("after the first merge");
  remove(2);
  update(250);
  t->MergeDelta();
  expect_index("after the second merge");
  // A deleted key can come back; the live keys a duplicate insert would
  // hit (151 in the main, 250 re-inserted by its update) stay indexed.
  t->Insert(MakeTestRow(150));
  deleted.erase(150);
  EXPECT_TRUE(t->FindByPk(pk(151)).has_value());
  EXPECT_TRUE(t->FindByPk(pk(250)).has_value());
  t->MergeDelta();  // no tombstones: the index is kept as it is
  expect_index("after a merge without tombstones");
}

TEST(ColumnTableTest, EmptyMergeIsNoop) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  t->MergeDelta();
  EXPECT_EQ(t->merge_count(), 0u);
  EXPECT_EQ(t->live_count(), 0u);
}

TEST(ColumnTableTest, GetRowReconstructsTuple) {
  auto t = ColumnTable::Create(TestSchema(), NoAutoMerge());
  t->Insert(MakeTestRow(3));
  t->MergeDelta();
  Row row = t->GetRow(0);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0].as_int64(), 3);
  EXPECT_EQ(row[1].as_int32(), 3);
  EXPECT_DOUBLE_EQ(row[2].as_double(), 4.5);
  EXPECT_EQ(row[3].as_string(), "name_3");
}

TEST(ColumnTableTest, DateColumnsRoundTrip) {
  auto t = ColumnTable::Create(
      Schema::CreateOrDie(
          {{"id", DataType::kInt64}, {"d", DataType::kDate}}, {0}),
      NoAutoMerge());
  t->Insert({int64_t{1}, Date{1000}});
  t->MergeDelta();
  Value v = t->GetValue(0, 1);
  EXPECT_EQ(v.type(), DataType::kDate);
  EXPECT_EQ(v.as_date().days, 1000);
}

}  // namespace
}  // namespace hsdb
