#include "storage/logical_table.h"

#include <gtest/gtest.h>

#include "executor/database.h"

namespace hsdb {
namespace {

Schema OrdersSchema() {
  return Schema::CreateOrDie({{"id", DataType::kInt64},
                              {"status", DataType::kInt32},
                              {"amount", DataType::kDouble},
                              {"region", DataType::kVarchar}},
                             {0});
}

Row OrderRow(int64_t id) {
  return {id, int32_t(id % 3), id * 2.0, "r" + std::to_string(id % 5)};
}

std::unique_ptr<LogicalTable> Make(TableLayout layout) {
  auto r = LogicalTable::Create("orders", OrdersSchema(), layout);
  HSDB_CHECK(r.ok());
  return std::move(r).value();
}

// The layouts every DML-boundary test runs over: both single stores and a
// vertical split (status in a row-store piece, the rest in a column store).
std::vector<TableLayout> DmlLayouts() {
  TableLayout split = TableLayout::SingleStore(StoreType::kColumn);
  split.vertical = VerticalSpec{{1}};
  return {TableLayout::SingleStore(StoreType::kRow),
          TableLayout::SingleStore(StoreType::kColumn), split};
}

PrimaryKey Pk(int64_t id) { return PrimaryKey::Of(Value(id)); }

TEST(LogicalTableTest, UnpartitionedSingleFragment) {
  auto t = Make(TableLayout::SingleStore(StoreType::kRow));
  ASSERT_EQ(t->groups().size(), 1u);
  ASSERT_EQ(t->groups()[0].fragments.size(), 1u);
  EXPECT_EQ(t->groups()[0].fragments[0].table->store(), StoreType::kRow);
  EXPECT_FALSE(t->groups()[0].hot);
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(t->Insert(OrderRow(i)).ok());
  EXPECT_EQ(t->row_count(), 10u);
}

TEST(LogicalTableTest, RejectsInvalidLayout) {
  TableLayout bad;
  bad.vertical = VerticalSpec{{0}};  // PK column listed
  EXPECT_FALSE(LogicalTable::Create("t", OrdersSchema(), bad).ok());
  TableLayout bad2;
  bad2.horizontal = HorizontalSpec{3, 0.0, StoreType::kRow};  // varchar col
  EXPECT_FALSE(LogicalTable::Create("t", OrdersSchema(), bad2).ok());
}

TEST(LogicalTableTest, HorizontalRouting) {
  TableLayout layout;
  layout.base_store = StoreType::kColumn;
  layout.horizontal = HorizontalSpec{0, 100.0, StoreType::kRow};
  auto t = Make(layout);
  ASSERT_EQ(t->groups().size(), 2u);
  EXPECT_TRUE(t->groups()[0].hot);
  EXPECT_EQ(t->groups()[0].fragments[0].table->store(), StoreType::kRow);
  EXPECT_EQ(t->groups()[1].fragments[0].table->store(), StoreType::kColumn);

  for (int64_t i = 90; i < 110; ++i) ASSERT_TRUE(t->Insert(OrderRow(i)).ok());
  // Rows with id >= 100 land in the hot row-store group.
  EXPECT_EQ(t->groups()[0].fragments[0].table->live_count(), 10u);
  EXPECT_EQ(t->groups()[1].fragments[0].table->live_count(), 10u);
  EXPECT_EQ(t->row_count(), 20u);

  // Point access works across groups.
  for (int64_t i : {90, 99, 100, 109}) {
    auto row = t->GetByPk(PrimaryKey::Of(Value(i)));
    ASSERT_TRUE(row.ok()) << i;
    EXPECT_EQ((*row)[0].as_int64(), i);
    EXPECT_DOUBLE_EQ((*row)[2].as_double(), i * 2.0);
  }
}

TEST(LogicalTableTest, VerticalSplitReplicatesPk) {
  TableLayout layout;
  layout.base_store = StoreType::kColumn;
  layout.vertical = VerticalSpec{{1}};  // status -> row store
  auto t = Make(layout);
  ASSERT_EQ(t->groups().size(), 1u);
  const auto& frags = t->groups()[0].fragments;
  ASSERT_EQ(frags.size(), 2u);
  // RS piece: pk + status; CS piece: pk + amount + region.
  EXPECT_EQ(frags[0].table->store(), StoreType::kRow);
  EXPECT_EQ(frags[0].columns, (std::vector<ColumnId>{0, 1}));
  EXPECT_EQ(frags[1].table->store(), StoreType::kColumn);
  EXPECT_EQ(frags[1].columns, (std::vector<ColumnId>{0, 2, 3}));
  EXPECT_TRUE(frags[0].Covers({0, 1}));
  EXPECT_FALSE(frags[0].Covers({0, 2}));

  for (int64_t i = 0; i < 20; ++i) ASSERT_TRUE(t->Insert(OrderRow(i)).ok());
  EXPECT_EQ(t->row_count(), 20u);
  auto row = t->GetByPk(PrimaryKey::Of(Value(int64_t{7})));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].as_int32(), 1);
  EXPECT_DOUBLE_EQ((*row)[2].as_double(), 14.0);
  EXPECT_EQ((*row)[3].as_string(), "r2");
}

TEST(LogicalTableTest, CombinedHorizontalAndVertical) {
  TableLayout layout;
  layout.base_store = StoreType::kColumn;
  layout.horizontal = HorizontalSpec{0, 50.0, StoreType::kRow};
  layout.vertical = VerticalSpec{{1}};
  auto t = Make(layout);
  ASSERT_EQ(t->groups().size(), 2u);
  EXPECT_EQ(t->groups()[0].fragments.size(), 1u);  // hot: full width RS
  EXPECT_EQ(t->groups()[1].fragments.size(), 2u);  // cold: vertical split
  for (int64_t i = 0; i < 100; ++i) ASSERT_TRUE(t->Insert(OrderRow(i)).ok());
  EXPECT_EQ(t->row_count(), 100u);
  EXPECT_EQ(t->groups()[0].fragments[0].table->live_count(), 50u);
  for (int64_t i : {0, 49, 50, 99}) {
    auto row = t->GetByPk(PrimaryKey::Of(Value(i)));
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[3].as_string(), "r" + std::to_string(i % 5));
  }
}

TEST(LogicalTableTest, PkUniqueAcrossGroups) {
  TableLayout layout;
  layout.horizontal = HorizontalSpec{0, 100.0, StoreType::kRow};
  auto t = Make(layout);
  ASSERT_TRUE(t->Insert(OrderRow(150)).ok());
  // Same pk again: rejected even though it would route to the same group.
  EXPECT_EQ(t->Insert(OrderRow(150)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t->row_count(), 1u);
}

TEST(LogicalTableTest, UpdateRoutesToFragments) {
  TableLayout layout;
  layout.base_store = StoreType::kColumn;
  layout.vertical = VerticalSpec{{1}};
  auto t = Make(layout);
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(t->Insert(OrderRow(i)).ok());
  // status lives in the RS piece, amount in the CS piece.
  ASSERT_TRUE(t->UpdateByPk(PrimaryKey::Of(Value(int64_t{3})), {1, 2},
                            {int32_t{9}, 77.0})
                  .ok());
  auto row = t->GetByPk(PrimaryKey::Of(Value(int64_t{3})));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].as_int32(), 9);
  EXPECT_DOUBLE_EQ((*row)[2].as_double(), 77.0);
  // Unknown pk.
  EXPECT_EQ(t->UpdateByPk(PrimaryKey::Of(Value(int64_t{99})), {1},
                          {int32_t{1}})
                .code(),
            StatusCode::kNotFound);
}

TEST(LogicalTableTest, UpdatePartitionColumnRejected) {
  TableLayout layout;
  layout.horizontal = HorizontalSpec{0, 100.0, StoreType::kRow};
  auto t = Make(layout);
  ASSERT_TRUE(t->Insert(OrderRow(5)).ok());
  EXPECT_EQ(t->UpdateByPk(PrimaryKey::Of(Value(int64_t{5})), {0},
                          {int64_t{200}})
                .code(),
            StatusCode::kNotSupported);
}

TEST(LogicalTableTest, DeleteRemovesFromAllFragments) {
  for (const TableLayout& layout : DmlLayouts()) {
    SCOPED_TRACE(layout.ToString());
    auto t = Make(layout);
    for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(t->Insert(OrderRow(i)).ok());
    const PrimaryKey pk = PrimaryKey::Of(Value(int64_t{4}));
    ASSERT_TRUE(t->DeleteByPk(pk).ok());
    EXPECT_EQ(t->row_count(), 9u);
    EXPECT_FALSE(t->GetByPk(pk).ok());
    EXPECT_EQ(t->DeleteByPk(pk).code(), StatusCode::kNotFound);
    // The deleted key can come back.
    ASSERT_TRUE(t->Insert(OrderRow(4)).ok());
    EXPECT_EQ(*t->GetByPk(pk), OrderRow(4));
  }
}

TEST(LogicalTableTest, ForEachRowStitchesAcrossFragments) {
  TableLayout layout;
  layout.base_store = StoreType::kColumn;
  layout.horizontal = HorizontalSpec{0, 5.0, StoreType::kRow};
  layout.vertical = VerticalSpec{{1}};
  auto t = Make(layout);
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(t->Insert(OrderRow(i)).ok());
  double amount_sum = 0;
  size_t rows = 0;
  t->ForEachRow([&](const Row& row) {
    amount_sum += row[2].as_double();
    ++rows;
  });
  EXPECT_EQ(rows, 10u);
  EXPECT_DOUBLE_EQ(amount_sum, 2.0 * 45);
}

TEST(LogicalTableTest, InsertValidatesArityAndTypes) {
  for (const TableLayout& layout : DmlLayouts()) {
    SCOPED_TRACE(layout.ToString());
    auto t = Make(layout);
    EXPECT_EQ(t->Insert({int64_t{1}}).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(t->Insert({int64_t{1}, "x", 1.0, "y"}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(t->Insert({int64_t{1}, Value(), 1.0, "y"}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(t->row_count(), 0u);
    // int32 literals coerce to the INT64 id and DOUBLE amount columns.
    ASSERT_TRUE(t->Insert({int32_t{2}, int32_t{1}, int32_t{3}, "y"}).ok());
    Result<Row> row = t->GetByPk(PrimaryKey::Of(Value(int64_t{2})));
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(*row, (Row{int64_t{2}, int32_t{1}, 3.0, "y"}));
  }
}

TEST(LogicalTableTest, InsertRejectsDuplicateKey) {
  for (const TableLayout& layout : DmlLayouts()) {
    SCOPED_TRACE(layout.ToString());
    auto t = Make(layout);
    ASSERT_TRUE(t->Insert(OrderRow(1)).ok());
    t->ForceMerge();
    // 1 is in the main part of column pieces now; 2 stays in the delta.
    EXPECT_EQ(t->Insert(OrderRow(1)).code(), StatusCode::kAlreadyExists);
    ASSERT_TRUE(t->Insert(OrderRow(2)).ok());
    EXPECT_EQ(t->Insert(OrderRow(2)).code(), StatusCode::kAlreadyExists);
    EXPECT_EQ(t->row_count(), 2u);
  }
}

TEST(LogicalTableTest, UpdateRejectsBadInput) {
  for (const TableLayout& layout : DmlLayouts()) {
    SCOPED_TRACE(layout.ToString());
    auto t = Make(layout);
    ASSERT_TRUE(t->Insert(OrderRow(1)).ok());
    EXPECT_EQ(t->UpdateByPk(Pk(1), {1}, {}).code(),
              StatusCode::kInvalidArgument);  // arity
    EXPECT_EQ(t->UpdateByPk(Pk(1), {1}, {Value("x")}).code(),
              StatusCode::kInvalidArgument);  // type
    EXPECT_EQ(t->UpdateByPk(Pk(1), {2}, {Value()}).code(),
              StatusCode::kInvalidArgument);  // invalid value
    EXPECT_EQ(t->UpdateByPk(Pk(1), {9}, {Value(1.0)}).code(),
              StatusCode::kInvalidArgument);  // column range
    EXPECT_EQ(t->UpdateByPk(Pk(99), {1}, {int32_t{5}}).code(),
              StatusCode::kNotFound);  // unknown key
    EXPECT_EQ(*t->GetByPk(Pk(1)), OrderRow(1));
    // A lossless literal coerces to the column type before any store sees it.
    ASSERT_TRUE(t->UpdateByPk(Pk(1), {2}, {int32_t{5}}).ok());
    const Value amount = (*t->GetByPk(Pk(1)))[2];
    EXPECT_EQ(amount.type(), DataType::kDouble);
    EXPECT_DOUBLE_EQ(amount.as_double(), 5.0);
  }
}

TEST(LogicalTableTest, UpdateRejectsPkColumn) {
  for (const TableLayout& layout : DmlLayouts()) {
    SCOPED_TRACE(layout.ToString());
    auto t = Make(layout);
    ASSERT_TRUE(t->Insert(OrderRow(1)).ok());
    EXPECT_EQ(t->UpdateByPk(Pk(1), {0}, {int64_t{2}}).code(),
              StatusCode::kNotSupported);
    EXPECT_EQ(*t->GetByPk(Pk(1)), OrderRow(1));
  }
}

// A vertical split writes its fragments one after the other: a value the
// second fragment cannot take must be rejected before the first is written,
// with or without a shadow rebuild's op log attached.
TEST(LogicalTableTest, RejectedUpdateLeavesEveryFragmentUnchanged) {
  for (bool logged : {false, true}) {
    SCOPED_TRACE(logged ? "op log attached" : "no op log");
    auto t = Make(DmlLayouts()[2]);
    ASSERT_TRUE(t->Insert(OrderRow(1)).ok());
    TableOpLog log;
    if (logged) t->AttachOpLog(&log);
    EXPECT_EQ(
        t->UpdateByPk(Pk(1), {1, 2}, {int32_t{42}, "not-a-number"}).code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(*t->GetByPk(Pk(1)), OrderRow(1));
    EXPECT_EQ(log.pending(), 0u);
    t->DetachOpLog();
  }
}

// Builds a database holding "orders" (row store, ids 0..n-1) with id 10
// deleted.
void FillOrders(Database& db, int64_t n) {
  ASSERT_TRUE(db.CreateTable("orders", OrdersSchema(),
                             TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  LogicalTable* t = db.catalog().GetTable("orders");
  for (int64_t i = 0; i < n; ++i) ASSERT_TRUE(t->Insert(OrderRow(i)).ok());
  ASSERT_TRUE(t->DeleteByPk(PrimaryKey::Of(Value(int64_t{10}))).ok());
}

// Every row but the deleted one survives a move, field for field.
void ExpectEveryRowButTen(const Database& db, int64_t n) {
  const LogicalTable* t = db.catalog().GetTable("orders");
  EXPECT_EQ(t->row_count(), static_cast<size_t>(n - 1));
  for (int64_t i = 0; i < n; ++i) {
    Result<Row> row = t->GetByPk(PrimaryKey::Of(Value(i)));
    ASSERT_EQ(row.ok(), i != 10) << i;
    if (row.ok()) {
      EXPECT_EQ(*row, OrderRow(i)) << i;
    }
  }
}

TEST(LogicalTableTest, RematerializeChangesLayout) {
  Database db;
  FillOrders(db, 200);

  TableLayout column;
  column.base_store = StoreType::kColumn;
  column.horizontal = HorizontalSpec{0, 150.0, StoreType::kRow};
  column.vertical = VerticalSpec{{1}};
  Result<ShadowMigrationStats> moved = db.MigrateShadow("orders", column);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_TRUE(moved->rematerialized);
  EXPECT_EQ(moved->rows_copied, 199u);
  const LogicalTable* t = db.catalog().GetTable("orders");
  EXPECT_EQ(t->layout().ToString(), column.ToString());
  // Hot group got the top 50 keys.
  EXPECT_EQ(t->groups()[0].fragments[0].table->live_count(), 50u);
  // Cold CS piece is merged (compact main, empty delta).
  auto* cs =
      dynamic_cast<ColumnTable*>(t->groups()[1].fragments[1].table.get());
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->delta_rows(), 0u);
  ExpectEveryRowButTen(db, 200);
}

TEST(LogicalTableTest, ConvertStoreRoundTrip) {
  Database db;
  FillOrders(db, 100);

  const TableLayout column = TableLayout::SingleStore(StoreType::kColumn);
  ASSERT_TRUE(db.MigrateShadow("orders", column).ok());
  const LogicalTable* t = db.catalog().GetTable("orders");
  EXPECT_EQ(t->layout().ToString(), column.ToString());
  ASSERT_EQ(t->groups().size(), 1u);
  EXPECT_EQ(t->groups()[0].fragments[0].table->store(), StoreType::kColumn);
  EXPECT_EQ(t->groups()[0].fragments[0].table->live_count(), 99u);
  ExpectEveryRowButTen(db, 100);

  const TableLayout row = TableLayout::SingleStore(StoreType::kRow);
  ASSERT_TRUE(db.MigrateShadow("orders", row).ok());
  t = db.catalog().GetTable("orders");
  EXPECT_EQ(t->layout().ToString(), row.ToString());
  ASSERT_EQ(t->groups().size(), 1u);
  EXPECT_EQ(t->groups()[0].fragments[0].table->store(), StoreType::kRow);
  EXPECT_EQ(t->groups()[0].fragments[0].table->live_count(), 99u);
  ExpectEveryRowButTen(db, 100);
}

TEST(LogicalTableTest, CreateSortedIndexOnRowPieces) {
  TableLayout layout;
  layout.base_store = StoreType::kColumn;
  layout.vertical = VerticalSpec{{1}};
  auto t = Make(layout);
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(t->Insert(OrderRow(i)).ok());
  // status (col 1) is in the RS piece.
  ASSERT_TRUE(t->CreateSortedIndex(1).ok());
  auto* rs = dynamic_cast<RowTable*>(
      t->mutable_groups()[0].fragments[0].table.get());
  ASSERT_NE(rs, nullptr);
  EXPECT_TRUE(rs->HasSortedIndex(1));
  // amount (col 2) lives in the CS piece only: no-op, still OK.
  EXPECT_TRUE(t->CreateSortedIndex(2).ok());
}

TEST(LogicalTableTest, AfterStatementMergesColumnPieces) {
  PhysicalOptions opts;
  opts.column.min_merge_rows = 5;
  TableLayout layout = TableLayout::SingleStore(StoreType::kColumn);
  auto r = LogicalTable::Create("t", OrdersSchema(), layout, opts);
  ASSERT_TRUE(r.ok());
  auto t = std::move(r).value();
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(t->Insert(OrderRow(i)).ok());
  t->AfterStatement();
  auto* cs = dynamic_cast<ColumnTable*>(
      t->mutable_groups()[0].fragments[0].table.get());
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->merge_count(), 1u);
}

}  // namespace
}  // namespace hsdb
