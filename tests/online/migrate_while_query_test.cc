// Migrate-while-query stress suite: Database::MigrateShadow runs on a
// migration thread while client threads keep executing — the end-to-end
// claim of the non-blocking online migration design (docs/CONCURRENCY.md).
//
// Two properties are pinned:
//   - Bit-identical reads: queries over rows no writer touches return
//     exactly the answers a serial reference database gives, before,
//     during and after any number of layout swaps.
//   - Zero lost writes: every insert/update/delete acknowledged while
//     rebuilds and cut-overs raced it is present (or absent) in the final
//     table — the op-log replay may not drop or duplicate anything.
//   - One layout change at a time: of two migrators racing on one table,
//     a call that finds the other's rebuild in flight fails with
//     FailedPrecondition instead of hijacking its op log.
//
// Labeled "stress": CI repeats it under ThreadSanitizer until-fail.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "executor/database.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

class MigrateWhileQueryTest : public ::testing::Test {
 protected:
  /// Writers only ever touch ids >= kBaseRows, so any query constrained to
  /// id < kBaseRows has one correct answer for the whole test.
  static constexpr int64_t kBaseRows = 12'000;

  void SetUp() override {
    spec_.name = "t";
    spec_.num_keyfigures = 2;
    spec_.num_filters = 2;
    spec_.num_groups = 1;
    Database::Options options;
    options.migration_chunk_rows = 1024;  // many chunks: long build window
    db_ = std::make_unique<Database>(options);
    reference_ = std::make_unique<Database>();
    for (Database* db : {db_.get(), reference_.get()}) {
      ASSERT_TRUE(db->CreateTable("t", spec_.MakeSchema(),
                                  TableLayout::SingleStore(StoreType::kRow))
                      .ok());
      ASSERT_TRUE(
          PopulateSynthetic(db->catalog().GetTable("t"), spec_, kBaseRows)
              .ok());
    }
  }

  /// Read-only mix over the immutable id range; integer-valued or
  /// order-independent, so answers reproduce exactly.
  Query MakeQuery(int variant) const {
    const PredicateTerm base_ids = {
        {0, 0}, ValueRange::Between(Value(int64_t{0}),
                                    Value(int64_t{kBaseRows - 1}))};
    switch (variant % 3) {
      case 0: {
        AggregationQuery q;
        q.tables = {"t"};
        q.aggregates = {{AggFn::kCount, {}}, {AggFn::kSum, {spec_.filter(0), 0}}};
        q.predicate = {base_ids,
                       {{spec_.filter(1), 0},
                        ValueRange::Between(
                            Value(static_cast<int32_t>(40 * (variant % 6))),
                            Value(static_cast<int32_t>(700)))}};
        return q;
      }
      case 1: {
        AggregationQuery q;
        q.tables = {"t"};
        q.aggregates = {{AggFn::kMin, {spec_.keyfigure(0), 0}},
                        {AggFn::kMax, {spec_.keyfigure(1), 0}},
                        {AggFn::kCount, {}}};
        q.group_by = {{spec_.group(0), 0}};
        q.predicate = {base_ids};
        return q;
      }
      default: {
        SelectQuery q;
        q.table = "t";
        q.select_columns = {0, spec_.keyfigure(0)};
        int64_t lo = 500 * (variant % 16);
        q.predicate = {{{0, 0},
                        ValueRange::Between(Value(lo), Value(lo + 2500))}};
        return q;
      }
    }
  }

  static bool SameResult(const QueryResult& a, const QueryResult& b) {
    if (a.aggregates.size() != b.aggregates.size()) return false;
    for (size_t i = 0; i < a.aggregates.size(); ++i) {
      if (a.aggregates[i] != b.aggregates[i]) return false;
    }
    if (a.rows.size() != b.rows.size()) return false;
    std::vector<std::string> ra, rb;
    for (const Row& r : a.rows) ra.push_back(RowToString(r));
    for (const Row& r : b.rows) rb.push_back(RowToString(r));
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    return ra == rb;
  }

  /// Flips the table's base store `flips` times via MigrateShadow,
  /// asserting every flip rebuilt the table.
  void RunMigrations(int flips, std::atomic<int>* migration_errors,
                     uint64_t* replayed_total) {
    for (int i = 0; i < flips; ++i) {
      const StoreType next =
          i % 2 == 0 ? StoreType::kColumn : StoreType::kRow;
      Result<ShadowMigrationStats> migrated =
          db_->MigrateShadow("t", TableLayout::SingleStore(next));
      if (!migrated.ok() || !migrated.value().rematerialized ||
          migrated.value().rows_copied == 0) {
        migration_errors->fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (replayed_total != nullptr) {
        *replayed_total += migrated.value().replayed_ops;
      }
    }
  }

  SyntheticTableSpec spec_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Database> reference_;
};

TEST_F(MigrateWhileQueryTest, ReadsAreBitIdenticalAcrossSwaps) {
  constexpr int kClientThreads = 4;
  constexpr int kVariants = 24;
  constexpr int kFlips = 6;

  std::vector<QueryResult> expected;
  for (int v = 0; v < kVariants; ++v) {
    Result<QueryResult> r = reference_->Execute(MakeQuery(v));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(*r));
  }

  const uint64_t epoch_before = db_->layout_epoch();
  std::atomic<bool> migrating{true};
  std::atomic<int> migration_errors{0};
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      // Keep querying for as long as swaps are happening, staggered so
      // distinct variants overlap each swap.
      for (int i = 0; migrating.load(std::memory_order_acquire) ||
                      i < kVariants;
           ++i) {
        int v = (i + 5 * t) % kVariants;
        Result<QueryResult> r = db_->Execute(MakeQuery(v));
        if (!r.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else if (!SameResult(*r, expected[v])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread migrator([&] {
    RunMigrations(kFlips, &migration_errors, nullptr);
    migrating.store(false, std::memory_order_release);
  });
  migrator.join();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(migration_errors.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(db_->layout_epoch(), epoch_before + kFlips);
  // Ended on an even number of flips: back in the row store.
  EXPECT_EQ(db_->catalog().GetTable("t")->layout().base_store,
            StoreType::kRow);
}

TEST_F(MigrateWhileQueryTest, NoWriteIsLostAcrossCutovers) {
  constexpr int kWriterThreads = 2;
  constexpr int64_t kPerWriter = 600;
  constexpr int kFlips = 4;

  std::atomic<int> migration_errors{0};
  std::atomic<int> write_failures{0};
  uint64_t replayed_total = 0;

  // Writers append fresh ids, update every 5th and delete every 3rd —
  // racing chunked copies, catch-up replay and cut-over drains.
  std::vector<std::thread> writers;
  writers.reserve(kWriterThreads);
  for (int w = 0; w < kWriterThreads; ++w) {
    writers.emplace_back([&, w] {
      for (int64_t i = 0; i < kPerWriter; ++i) {
        const int64_t id = kBaseRows + w * kPerWriter + i;
        InsertQuery ins;
        ins.table = "t";
        ins.row = SyntheticRow(spec_, id);
        if (!db_->Execute(ins).ok()) {
          write_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (i % 5 == 0) {
          UpdateQuery upd;
          upd.table = "t";
          upd.predicate = {{{0, 0},
                            ValueRange::Between(Value(id), Value(id))}};
          upd.set_columns = {spec_.filter(0)};
          upd.set_values = {Value(int32_t{-7})};
          if (!db_->Execute(upd).ok()) {
            write_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (i % 3 == 0) {
          DeleteQuery del;
          del.table = "t";
          del.predicate = {{{0, 0},
                            ValueRange::Between(Value(id), Value(id))}};
          if (!db_->Execute(del).ok()) {
            write_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread migrator(
      [&] { RunMigrations(kFlips, &migration_errors, &replayed_total); });
  for (std::thread& t : writers) t.join();
  migrator.join();

  ASSERT_EQ(migration_errors.load(), 0);
  ASSERT_EQ(write_failures.load(), 0);

  // Every acknowledged write must be visible in the final version: ids
  // divisible by 3 were deleted, every other id is present exactly once,
  // with the update's value where one was applied.
  int64_t expected_live = 0;
  for (int w = 0; w < kWriterThreads; ++w) {
    for (int64_t i = 0; i < kPerWriter; ++i) {
      const int64_t id = kBaseRows + w * kPerWriter + i;
      SelectQuery point;
      point.table = "t";
      point.select_columns = {0, spec_.filter(0)};
      point.predicate = {{{0, 0},
                          ValueRange::Between(Value(id), Value(id))}};
      Result<QueryResult> r = db_->Execute(point);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (i % 3 == 0) {
        EXPECT_EQ(r->rows.size(), 0u) << "deleted id " << id << " came back";
      } else {
        ASSERT_EQ(r->rows.size(), 1u) << "lost write, id " << id;
        ++expected_live;
        if (i % 5 == 0) {
          EXPECT_EQ(r->rows[0][1], Value(int32_t{-7}))
              << "lost update, id " << id;
        }
      }
    }
  }
  EXPECT_EQ(db_->catalog().GetTable("t")->row_count(),
            static_cast<size_t>(kBaseRows + expected_live));
  // With four rebuilds racing 1200 inserts, at least some writes should
  // have landed in the op log and been replayed. Not a strict guarantee —
  // scheduling could serialize them — so only report, never fail.
  if (replayed_total == 0) {
    GTEST_LOG_(INFO) << "no write raced a rebuild this run";
  }
}

TEST_F(MigrateWhileQueryTest, RacingMigratorsNeverLoseAnInsert) {
  constexpr int kMigrators = 2;
  constexpr int kFlipsEach = 5;
  constexpr int64_t kInserts = 600;

  const uint64_t epoch_before = db_->layout_epoch();
  std::atomic<int> unexpected{0};
  std::atomic<int> rebuilt{0};
  std::atomic<int> write_failures{0};

  std::vector<std::thread> migrators;
  migrators.reserve(kMigrators);
  for (int m = 0; m < kMigrators; ++m) {
    migrators.emplace_back([&, m] {
      for (int i = 0; i < kFlipsEach; ++i) {
        const StoreType next =
            (i + m) % 2 == 0 ? StoreType::kColumn : StoreType::kRow;
        Result<ShadowMigrationStats> migrated =
            db_->MigrateShadow("t", TableLayout::SingleStore(next));
        if (migrated.ok()) {
          if (migrated.value().rematerialized) {
            rebuilt.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (migrated.status().code() !=
                   StatusCode::kFailedPrecondition) {
          unexpected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int64_t id = kBaseRows; id < kBaseRows + kInserts; ++id) {
      InsertQuery ins;
      ins.table = "t";
      ins.row = SyntheticRow(spec_, id);
      if (!db_->Execute(ins).ok()) {
        write_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (std::thread& t : migrators) t.join();
  writer.join();

  EXPECT_EQ(unexpected.load(), 0);
  ASSERT_EQ(write_failures.load(), 0);
  // Every successful rebuild published exactly one new version.
  EXPECT_EQ(db_->layout_epoch(),
            epoch_before + static_cast<uint64_t>(rebuilt.load()));
  const LogicalTable* table = db_->catalog().GetTable("t");
  EXPECT_FALSE(table->HasOpLog());
  EXPECT_EQ(table->row_count(), static_cast<size_t>(kBaseRows + kInserts));
  for (int64_t id = kBaseRows; id < kBaseRows + kInserts; ++id) {
    EXPECT_TRUE(table->GetByPk(PrimaryKey::Of(Value(id))).ok())
        << "lost insert, id " << id;
  }
}

}  // namespace
}  // namespace hsdb
