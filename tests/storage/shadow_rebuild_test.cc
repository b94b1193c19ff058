// Storage-level tests of the shadow-rebuild building blocks: the op log
// LogicalTable maintains while one is attached, the chunked row-range scan,
// and the idempotent replay that reconciles a shadow copy with writes that
// raced it. Database::MigrateShadow composes exactly these pieces under its
// locking protocol; here they are exercised deterministically, interleaved
// by hand instead of by threads.
#include "storage/shadow_rebuild.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "storage/logical_table.h"
#include "storage/table_version.h"

namespace hsdb {
namespace {

Schema TwoColumnSchema() {
  return Schema::CreateOrDie({{"id", DataType::kInt64},
                              {"v", DataType::kInt32}},
                             {0});
}

Row MakeRow(int64_t id, int32_t v) {
  Row row;
  row.push_back(Value(id));
  row.push_back(Value(v));
  return row;
}

class ShadowRebuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<std::unique_ptr<LogicalTable>> made = LogicalTable::Create(
        "t", TwoColumnSchema(), TableLayout::SingleStore(StoreType::kRow));
    ASSERT_TRUE(made.ok());
    table_ = std::move(made).value();
    for (int64_t id = 0; id < 100; ++id) {
      ASSERT_TRUE(table_->Insert(MakeRow(id, static_cast<int32_t>(id))).ok());
    }
  }

  /// Full unchunked copy of the source into a fresh shadow (bound frozen
  /// up front, like MigrateShadow's first chunk).
  std::unique_ptr<LogicalTable> CopyAll() {
    Result<std::unique_ptr<LogicalTable>> made = LogicalTable::Create(
        "t", TwoColumnSchema(), TableLayout::SingleStore(StoreType::kColumn));
    HSDB_CHECK(made.ok());
    std::unique_ptr<LogicalTable> shadow = std::move(made).value();
    for (size_t g = 0; g < table_->groups().size(); ++g) {
      table_->ForEachRowInGroupRange(
          g, 0, table_->GroupSlotCount(g),
          [&](Row row) { HSDB_CHECK(shadow->Insert(std::move(row)).ok()); });
    }
    return shadow;
  }

  std::unique_ptr<LogicalTable> table_;
};

TEST_F(ShadowRebuildTest, ForEachRowInGroupRangeHonorsTheRidWindow) {
  std::vector<int64_t> ids;
  table_->ForEachRowInGroupRange(
      0, 10, 20, [&](const Row& row) { ids.push_back(row[0].as_int64()); });
  // Nothing deleted yet: the window is exactly the rows in slots 10..19.
  std::vector<int64_t> expected;
  for (int64_t id = 10; id < 20; ++id) expected.push_back(id);
  EXPECT_EQ(ids, expected);
}

TEST_F(ShadowRebuildTest, ForEachRowInGroupRangeSkipsDeletedSlots) {
  ASSERT_TRUE(table_->DeleteByPk(PrimaryKey::Of(Value(int64_t{15}))).ok());
  size_t rows = 0;
  table_->ForEachRowInGroupRange(0, 10, 20, [&](const Row&) { ++rows; });
  EXPECT_EQ(rows, 9u);
}

TEST_F(ShadowRebuildTest, AttachedLogRecordsPostImagesOfEveryDml) {
  TableOpLog log;
  table_->AttachOpLog(&log);
  ASSERT_TRUE(table_->Insert(MakeRow(200, 200)).ok());
  ASSERT_TRUE(table_
                  ->UpdateByPk(PrimaryKey::Of(Value(int64_t{5})), {1},
                               {Value(int32_t{555})})
                  .ok());
  ASSERT_TRUE(table_->DeleteByPk(PrimaryKey::Of(Value(int64_t{7}))).ok());
  // Failed DML must not log: duplicate insert, missing-key update/delete.
  ASSERT_FALSE(table_->Insert(MakeRow(200, 0)).ok());
  ASSERT_FALSE(table_->DeleteByPk(PrimaryKey::Of(Value(int64_t{999}))).ok());
  table_->DetachOpLog();
  // Post-detach DML is no longer recorded.
  ASSERT_TRUE(table_->Insert(MakeRow(201, 201)).ok());

  std::vector<TableOp> ops = log.Drain();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, TableOp::Kind::kUpsert);
  EXPECT_EQ(ops[0].row[0], Value(int64_t{200}));
  EXPECT_EQ(ops[1].kind, TableOp::Kind::kUpsert);
  // Updates log the full post-image row, not the delta: replay onto a
  // shadow that never saw the pre-image must still produce the final row.
  EXPECT_EQ(ops[1].row[1], Value(int32_t{555}));
  EXPECT_EQ(ops[2].kind, TableOp::Kind::kDelete);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_EQ(log.appended_total(), 3u);
}

TEST_F(ShadowRebuildTest, ReplayConvergesWhenCopyAlreadySawTheWrites) {
  // The hand-made interleaving MigrateShadow must survive: DML lands both
  // in the table (so the copy sees it) AND in the log (so replay re-applies
  // it). Idempotent replay converges on the same contents regardless.
  TableOpLog log;
  table_->AttachOpLog(&log);
  ASSERT_TRUE(table_->Insert(MakeRow(300, 300)).ok());
  ASSERT_TRUE(table_
                  ->UpdateByPk(PrimaryKey::Of(Value(int64_t{10})), {1},
                               {Value(int32_t{1010})})
                  .ok());
  ASSERT_TRUE(table_->DeleteByPk(PrimaryKey::Of(Value(int64_t{20}))).ok());

  std::unique_ptr<LogicalTable> shadow = CopyAll();  // copy sees all of it
  ASSERT_EQ(shadow->row_count(), table_->row_count());

  std::vector<TableOp> ops = log.Drain();
  uint64_t applied = 0;
  ASSERT_TRUE(ReplayOps(shadow.get(), ops, &applied).ok());
  EXPECT_EQ(applied, ops.size());
  // Replaying the identical tail again (a retry) is also harmless.
  ASSERT_TRUE(ReplayOps(shadow.get(), ops, &applied).ok());
  table_->DetachOpLog();

  EXPECT_EQ(shadow->row_count(), table_->row_count());
  Result<Row> updated = shadow->GetByPk(PrimaryKey::Of(Value(int64_t{10})));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated.value()[1], Value(int32_t{1010}));
  EXPECT_FALSE(shadow->GetByPk(PrimaryKey::Of(Value(int64_t{20}))).ok());
  EXPECT_TRUE(shadow->GetByPk(PrimaryKey::Of(Value(int64_t{300}))).ok());
}

TEST_F(ShadowRebuildTest, ReplayAppliesWritesTheCopyMissed) {
  // The real phase-2 shape: the copy's bound was frozen first, then writes
  // arrived. The shadow never saw them; the log is the only carrier.
  std::unique_ptr<LogicalTable> shadow = CopyAll();
  TableOpLog log;
  table_->AttachOpLog(&log);
  ASSERT_TRUE(table_->Insert(MakeRow(400, 400)).ok());
  ASSERT_TRUE(table_->DeleteByPk(PrimaryKey::Of(Value(int64_t{0}))).ok());
  table_->DetachOpLog();

  ASSERT_TRUE(ReplayOps(shadow.get(), log.Drain()).ok());
  EXPECT_EQ(shadow->row_count(), table_->row_count());
  EXPECT_TRUE(shadow->GetByPk(PrimaryKey::Of(Value(int64_t{400}))).ok());
  EXPECT_FALSE(shadow->GetByPk(PrimaryKey::Of(Value(int64_t{0}))).ok());
}

}  // namespace
}  // namespace hsdb
