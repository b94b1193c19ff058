#include "storage/row_table.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <string_view>
#include <utility>
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

TEST(RowTableTest, InsertAndGet) {
  auto t = RowTable::Create(TestSchema());
  const RowId rid = t->Insert(MakeTestRow(1));
  EXPECT_EQ(t->live_count(), 1u);
  EXPECT_EQ(t->GetValue(rid, 0).as_int64(), 1);
  EXPECT_EQ(t->GetValue(rid, 1).as_int32(), 1);
  EXPECT_DOUBLE_EQ(t->GetValue(rid, 2).as_double(), 1.5);
  EXPECT_EQ(t->GetValue(rid, 3).as_string(), "name_1");
  Row row = t->GetRow(rid);
  EXPECT_EQ(row.size(), 4u);
  EXPECT_EQ(row[3].as_string(), "name_1");
}

// LogicalTable probes the key before it calls a store
// (LogicalTableTest.InsertRejectsDuplicateKey); a duplicate that still
// reaches the store is an engine bug and aborts.
TEST(RowTableTest, DuplicatePkRejected) {
  auto t = RowTable::Create(TestSchema());
  t->Insert(MakeTestRow(1));
  EXPECT_DEATH(t->Insert(MakeTestRow(1)), "duplicate primary key");
}

// LogicalTable rejects key-column updates with NotSupported
// (LogicalTableTest.UpdateRejectsPkColumn); one that still reaches the store
// would desynchronize its key index, so it aborts.
TEST(RowTableTest, UpdateRejectsPkColumn) {
  auto t = RowTable::Create(TestSchema());
  RowId rid = t->Insert(MakeTestRow(1));
  EXPECT_DEATH(t->UpdateRow(rid, {0}, {int64_t{2}}),
               "primary-key column update");
  EXPECT_EQ(t->GetRow(rid), MakeTestRow(1));
}

TEST(RowTableTest, FindByPk) {
  auto t = RowTable::Create(TestSchema());
  for (int64_t i = 0; i < 100; ++i) t->Insert(MakeTestRow(i));
  auto rid = t->FindByPk(PrimaryKey::Of(Value(int64_t{42})));
  ASSERT_TRUE(rid.has_value());
  EXPECT_EQ(t->GetValue(*rid, 0).as_int64(), 42);
  EXPECT_FALSE(t->FindByPk(PrimaryKey::Of(Value(int64_t{1000}))).has_value());
}

TEST(RowTableTest, UpdateInPlace) {
  auto t = RowTable::Create(TestSchema());
  const RowId rid = t->Insert(MakeTestRow(1));
  t->UpdateRow(rid, {1, 2}, {int32_t{99}, 123.25});
  EXPECT_EQ(t->GetValue(rid, 1).as_int32(), 99);
  EXPECT_DOUBLE_EQ(t->GetValue(rid, 2).as_double(), 123.25);
  // Update of a varchar cell.
  t->UpdateRow(rid, {3}, {Value("renamed")});
  EXPECT_EQ(t->GetValue(rid, 3).as_string(), "renamed");
  EXPECT_EQ(t->live_count(), 1u);
  EXPECT_EQ(t->slot_count(), 1u);  // in place: no new slot
}

TEST(RowTableTest, DeleteTombstones) {
  auto t = RowTable::Create(TestSchema());
  const RowId r1 = t->Insert(MakeTestRow(1));
  const RowId r2 = t->Insert(MakeTestRow(2));
  t->DeleteRow(r1);
  EXPECT_FALSE(t->IsLive(r1));
  EXPECT_TRUE(t->IsLive(r2));
  EXPECT_EQ(t->live_count(), 1u);
  EXPECT_EQ(t->slot_count(), 2u);
  // Deleted PK is gone and may be reinserted.
  EXPECT_FALSE(t->FindByPk(PrimaryKey::Of(Value(int64_t{1}))).has_value());
  t->Insert(MakeTestRow(1));
  EXPECT_TRUE(t->FindByPk(PrimaryKey::Of(Value(int64_t{1}))).has_value());
}

TEST(RowTableTest, FilterRangeNumeric) {
  auto t = RowTable::Create(TestSchema());
  for (int64_t i = 0; i < 100; ++i) t->Insert(MakeTestRow(i));
  Bitmap bm = t->live_bitmap();
  t->FilterRangeSlice(
      0, ValueRange::Between(Value(int64_t{10}), Value(int64_t{19})), 0,
      t->slot_count(), &bm);
  EXPECT_EQ(bm.Count(), 10u);
  // Conjunction with a second predicate: qty == 5 (ids 15 only among 10..19).
  t->FilterRangeSlice(1, ValueRange::Eq(Value(int32_t{5})), 0,
                      t->slot_count(), &bm);
  EXPECT_EQ(bm.Count(), 1u);
  EXPECT_TRUE(bm.Test(15));
}

TEST(RowTableTest, FilterRangeExclusiveBounds) {
  auto t = RowTable::Create(TestSchema());
  for (int64_t i = 0; i < 10; ++i) t->Insert(MakeTestRow(i));
  Bitmap bm = t->live_bitmap();
  ValueRange r;
  r.lo = Value(int64_t{2});
  r.lo_inclusive = false;
  r.hi = Value(int64_t{5});
  r.hi_inclusive = false;
  t->FilterRangeSlice(0, r, 0, t->slot_count(), &bm);
  EXPECT_EQ(bm.Count(), 2u);  // 3, 4
  EXPECT_TRUE(bm.Test(3));
  EXPECT_TRUE(bm.Test(4));
}

TEST(RowTableTest, FilterRangeVarchar) {
  auto t = RowTable::Create(TestSchema());
  for (int64_t i = 0; i < 21; ++i) t->Insert(MakeTestRow(i));
  Bitmap bm = t->live_bitmap();
  t->FilterRangeSlice(3, ValueRange::Eq(Value("name_3")), 0,
                      t->slot_count(), &bm);
  EXPECT_EQ(bm.Count(), 3u);  // ids 3, 10, 17
  EXPECT_TRUE(bm.Test(3));
  EXPECT_TRUE(bm.Test(10));
  EXPECT_TRUE(bm.Test(17));

  // An exclusive lower bound with an open upper bound, and an inclusive
  // Between: each row survives exactly when its inserted name is inside.
  const std::pair<ValueRange, std::function<bool(const std::string&)>>
      cases[] = {
          {ValueRange::Greater(Value("name_4")),
           [](const std::string& s) { return s > "name_4"; }},
          {ValueRange::Between(Value("name_2"), Value("name_4")),
           [](const std::string& s) {
             return s >= "name_2" && s <= "name_4";
           }},
      };
  for (const auto& [range, inside] : cases) {
    Bitmap sel = t->live_bitmap();
    t->FilterRangeSlice(3, range, 0, t->slot_count(), &sel);
    size_t expected = 0;
    for (int64_t i = 0; i < 21; ++i) {
      const bool in = inside(MakeTestRow(i)[3].as_string());
      expected += in;
      EXPECT_EQ(sel.Test(static_cast<size_t>(i)), in)
          << range.ToString() << " row " << i;
    }
    EXPECT_EQ(sel.Count(), expected) << range.ToString();
    EXPECT_GT(expected, 0u);
  }
  // A non-string bound on a VARCHAR column is an engine bug and aborts.
  EXPECT_DEATH(t->FilterRangeSlice(3, ValueRange::AtLeast(Value(int64_t{1})),
                                   0, t->slot_count(), &bm),
               "Value type mismatch");
}

TEST(RowTableTest, FilterSkipsDeletedRows) {
  auto t = RowTable::Create(TestSchema());
  for (int64_t i = 0; i < 10; ++i) t->Insert(MakeTestRow(i));
  t->DeleteRow(3);
  Bitmap bm = t->live_bitmap();
  t->FilterRangeSlice(
      0, ValueRange::Between(Value(int64_t{0}), Value(int64_t{9})), 0,
      t->slot_count(), &bm);
  EXPECT_EQ(bm.Count(), 9u);
  EXPECT_FALSE(bm.Test(3));
}

TEST(RowTableTest, SortedIndexFilter) {
  auto t = RowTable::Create(TestSchema());
  for (int64_t i = 0; i < 1000; ++i) {
    t->Insert(MakeTestRow(i));
  }
  EXPECT_FALSE(t->HasSortedIndex(2));
  EXPECT_FALSE(t->IndexFilter(2, ValueRange::AtLeast(Value(0.0))).ok());
  ASSERT_TRUE(t->CreateSortedIndex(2).ok());
  EXPECT_TRUE(t->HasSortedIndex(2));
  // price = id * 1.5; range [150, 300] covers ids 100..200.
  auto bm = t->IndexFilter(2, ValueRange::Between(Value(150.0), Value(300.0)));
  ASSERT_TRUE(bm.ok());
  EXPECT_EQ(bm->Count(), 101u);
  // Index stays consistent under updates and deletes.
  t->UpdateRow(100, {2}, {Value(1e9)});
  t->DeleteRow(101);
  bm = t->IndexFilter(2, ValueRange::Between(Value(150.0), Value(300.0)));
  ASSERT_TRUE(bm.ok());
  EXPECT_EQ(bm->Count(), 99u);
  auto high = t->IndexFilter(2, ValueRange::AtLeast(Value(9e8)));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high->Count(), 1u);
  EXPECT_TRUE(high->Test(100));
}

TEST(RowTableTest, SortedIndexRejectsVarchar) {
  auto t = RowTable::Create(TestSchema());
  EXPECT_EQ(t->CreateSortedIndex(3).code(), StatusCode::kNotSupported);
  EXPECT_EQ(t->CreateSortedIndex(2).code(), StatusCode::kOk);
  EXPECT_EQ(t->CreateSortedIndex(2).code(), StatusCode::kOk);  // no-op
  EXPECT_TRUE(t->HasSortedIndex(2));
}

TEST(RowTableTest, ForEachNumericVisitsLiveRows) {
  auto t = RowTable::Create(TestSchema());
  for (int64_t i = 0; i < 10; ++i) t->Insert(MakeTestRow(i));
  t->DeleteRow(0);
  double sum = 0;
  t->ForEachNumericRange(2, t->live_bitmap(), 0, t->slot_count(),
                         [&](RowId, double v) { sum += v; });
  EXPECT_DOUBLE_EQ(sum, 1.5 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9));
}

TEST(RowTableTest, ForEachStringVisitsLiveRows) {
  auto t = RowTable::Create(TestSchema());
  for (int64_t i = 0; i < 10; ++i) t->Insert(MakeTestRow(i));
  t->DeleteRow(4);
  std::vector<RowId> rids;
  t->ForEachStringRange(3, t->live_bitmap(), 2, 8,
                        [&](RowId rid, std::string_view v) {
                          EXPECT_EQ(v, "name_" + std::to_string(rid % 7));
                          rids.push_back(rid);
                        });
  EXPECT_EQ(rids, (std::vector<RowId>{2, 3, 5, 6, 7}));
}

TEST(RowTableTest, CompressionRateIsOne) {
  auto t = RowTable::Create(TestSchema());
  EXPECT_DOUBLE_EQ(t->CompressionRate(0), 1.0);
}

TEST(RowTableTest, MemoryGrowsWithRows) {
  auto t = RowTable::Create(TestSchema());
  size_t before = t->memory_bytes();
  for (int64_t i = 0; i < 10'000; ++i) {
    t->Insert(MakeTestRow(i));
  }
  EXPECT_GT(t->memory_bytes(), before);
}

}  // namespace
}  // namespace hsdb
