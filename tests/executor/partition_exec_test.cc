// Partition-aware execution: the same queries must return identical results
// on every layout (the executor's union/PK-join rewriting), and the
// covering-fragment logic must route queries to the right pieces.
#include <gtest/gtest.h>

#include <map>

#include "executor/database.h"
#include "executor/read_path.h"

namespace hsdb {
namespace {

Schema OrdersSchema() {
  return Schema::CreateOrDie({{"id", DataType::kInt64},
                              {"status", DataType::kInt32},
                              {"amount", DataType::kDouble},
                              {"qty", DataType::kInt32},
                              {"tag", DataType::kVarchar}},
                             {0});
}

Row OrderRow(int64_t id) {
  return {id, int32_t(id % 5), id * 1.25, int32_t(id % 13),
          "t" + std::to_string(id % 4)};
}

TableLayout CombinedLayout() {
  TableLayout l;
  l.base_store = StoreType::kColumn;
  l.horizontal = HorizontalSpec{0, 700.0, StoreType::kRow};
  l.vertical = VerticalSpec{{1, 3}};  // status, qty -> RS piece
  return l;
}

struct NamedLayout {
  const char* name;
  TableLayout layout;
};

class PartitionExecTest : public ::testing::TestWithParam<int> {
 protected:
  static std::vector<NamedLayout> Layouts() {
    TableLayout h;
    h.base_store = StoreType::kColumn;
    h.horizontal = HorizontalSpec{0, 700.0, StoreType::kRow};
    TableLayout v;
    v.base_store = StoreType::kColumn;
    v.vertical = VerticalSpec{{1, 3}};
    return {{"rs", TableLayout::SingleStore(StoreType::kRow)},
            {"cs", TableLayout::SingleStore(StoreType::kColumn)},
            {"h", h},
            {"v", v},
            {"hv", CombinedLayout()}};
  }
};

TEST_P(PartitionExecTest, QueriesAgreeAcrossLayouts) {
  // One database per layout, identical contents.
  std::vector<std::unique_ptr<Database>> dbs;
  for (const NamedLayout& nl : Layouts()) {
    Database::Options options;
    options.num_threads = GetParam();
    auto db = std::make_unique<Database>(options);
    ASSERT_TRUE(db->CreateTable("orders", OrdersSchema(), nl.layout).ok());
    for (int64_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(
          db->Execute(Query(InsertQuery{"orders", OrderRow(i)})).ok());
    }
    dbs.push_back(std::move(db));
  }

  auto run_all = [&](const Query& q) {
    std::vector<Result<QueryResult>> results;
    for (auto& db : dbs) results.push_back(db->Execute(q));
    return results;
  };
  auto expect_same_aggregates = [&](const Query& q, const char* what) {
    auto results = run_all(q);
    ASSERT_TRUE(results[0].ok()) << what;
    for (size_t i = 1; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << what << " layout " << Layouts()[i].name << ": "
          << results[i].status().ToString();
      ASSERT_EQ(results[i]->aggregates.size(),
                results[0]->aggregates.size());
      for (size_t a = 0; a < results[0]->aggregates.size(); ++a) {
        EXPECT_NEAR(results[i]->aggregates[a], results[0]->aggregates[a],
                    1e-6)
            << what << " layout " << Layouts()[i].name;
      }
    }
  };

  // Aggregate covered by the CS piece (amount) with a filter on the CS piece
  // (id is in every piece).
  AggregationQuery agg1;
  agg1.tables = {"orders"};
  agg1.aggregates = {{AggFn::kSum, {2, 0}}, {AggFn::kCount, {}}};
  expect_same_aggregates(Query(agg1), "sum(amount)");

  // Aggregate spanning the vertical split: sum(amount) filtered by status.
  AggregationQuery agg2;
  agg2.tables = {"orders"};
  agg2.aggregates = {{AggFn::kSum, {2, 0}}};
  agg2.predicate = {{{1, 0}, ValueRange::Eq(Value(int32_t{2}))}};
  expect_same_aggregates(Query(agg2), "sum(amount) where status=2");

  // Aggregate with filter straddling the horizontal boundary.
  AggregationQuery agg3;
  agg3.tables = {"orders"};
  agg3.aggregates = {{AggFn::kSum, {2, 0}}, {AggFn::kMin, {2, 0}},
                     {AggFn::kMax, {2, 0}}};
  agg3.predicate = {{{0, 0}, ValueRange::Between(Value(int64_t{650}),
                                                 Value(int64_t{749}))}};
  expect_same_aggregates(Query(agg3), "boundary range");

  // Grouped aggregate on a RS-piece column.
  AggregationQuery agg4;
  agg4.tables = {"orders"};
  agg4.aggregates = {{AggFn::kAvg, {2, 0}}};
  agg4.group_by = {{1, 0}};
  {
    auto results = run_all(Query(agg4));
    ASSERT_TRUE(results[0].ok());
    auto canon = [](const QueryResult& r) {
      std::map<int32_t, double> by_group;
      for (const Row& row : r.rows) {
        by_group[row[0].as_int32()] = row[1].as_double();
      }
      return by_group;
    };
    auto want = canon(*results[0]);
    EXPECT_EQ(want.size(), 5u);
    for (size_t i = 1; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << Layouts()[i].name;
      auto got = canon(*results[i]);
      ASSERT_EQ(got.size(), want.size()) << Layouts()[i].name;
      for (const auto& [k, v] : want) {
        EXPECT_NEAR(got[k], v, 1e-6) << Layouts()[i].name << " group " << k;
      }
    }
  }

  // Selects: point, range on a vertical-spanning projection.
  SelectQuery sel;
  sel.table = "orders";
  sel.select_columns = {0, 2, 4};  // spans both vertical pieces
  sel.predicate = {{{1, 0}, ValueRange::Eq(Value(int32_t{3}))},
                   {{0, 0}, ValueRange::Between(Value(int64_t{600}),
                                                Value(int64_t{799}))}};
  {
    auto results = run_all(Query(sel));
    ASSERT_TRUE(results[0].ok());
    auto canon = [](const QueryResult& r) {
      std::map<int64_t, std::pair<double, std::string>> m;
      for (const Row& row : r.rows) {
        m[row[0].as_int64()] = {row[1].as_double(), row[2].as_string()};
      }
      return m;
    };
    auto want = canon(*results[0]);
    EXPECT_EQ(want.size(), 40u);
    for (size_t i = 1; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << Layouts()[i].name;
      EXPECT_EQ(canon(*results[i]), want) << Layouts()[i].name;
    }
  }

  // A predicate spanning the vertical split (status in the RS piece,
  // amount in the CS piece) under a LIMIT: every layout returns the same
  // first rows in row order. The amount range keeps the matches below the
  // horizontal boundary (ids 400..699), so one row group holds them all.
  SelectQuery spanning;
  spanning.table = "orders";
  spanning.select_columns = {0, 4, 2};
  spanning.predicate = {{{1, 0}, ValueRange::Eq(Value(int32_t{3}))},
                        {{2, 0}, ValueRange::Between(Value(500.0),
                                                     Value(874.0))}};
  spanning.limit = 25;
  {
    auto results = run_all(Query(spanning));
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << Layouts()[i].name;
      const std::vector<Row>& rows = results[i]->rows;
      ASSERT_EQ(rows.size(), 25u) << Layouts()[i].name;
      for (size_t r = 0; r < rows.size(); ++r) {
        ASSERT_EQ(rows[r].size(), 3u);
        const int64_t id = rows[r][0].as_int64();
        // Rows were inserted in id order: the first 25 of the 60 matches.
        EXPECT_EQ(id, 403 + 5 * static_cast<int64_t>(r)) << Layouts()[i].name;
        EXPECT_EQ(rows[r][1].as_string(), "t" + std::to_string(id % 4));
        EXPECT_DOUBLE_EQ(rows[r][2].as_double(), id * 1.25);
      }
    }
  }

  // DML: update through the vertical split + horizontal boundary, then
  // verify equivalence again.
  for (auto& db : dbs) {
    UpdateQuery u;
    u.table = "orders";
    u.predicate = {{{3, 0}, ValueRange::Eq(Value(int32_t{7}))}};
    u.set_columns = {2};
    u.set_values = {Value(9999.0)};
    auto r = db->Execute(Query(u));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->affected_rows, 77u);  // 1000/13 rounded per residue
  }
  expect_same_aggregates(Query(agg1), "sum(amount) after update");

  for (auto& db : dbs) {
    DeleteQuery d;
    d.table = "orders";
    d.predicate = {{{0, 0}, ValueRange::AtLeast(Value(int64_t{950}))}};
    auto r = db->Execute(Query(d));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->affected_rows, 50u);
  }
  expect_same_aggregates(Query(agg1), "sum(amount) after delete");
}

// The parameter is the database's degree of parallelism (0 = its default).
INSTANTIATE_TEST_SUITE_P(Runs, PartitionExecTest, ::testing::Values(0, 1, 4));

TEST(PartitionRoutingTest, CoveringFragmentAvoidsStitching) {
  // A vertical split where the RS piece covers {id, status}: updates of
  // status must not touch the CS piece's delta.
  Database db;
  TableLayout v;
  v.base_store = StoreType::kColumn;
  v.vertical = VerticalSpec{{1}};
  ASSERT_TRUE(db.CreateTable("orders", OrdersSchema(), v).ok());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Execute(Query(InsertQuery{"orders", OrderRow(i)})).ok());
  }
  LogicalTable* t = db.catalog().GetTable("orders");
  auto* cs = dynamic_cast<ColumnTable*>(
      t->mutable_groups()[0].fragments[1].table.get());
  ASSERT_NE(cs, nullptr);
  cs->MergeDelta();
  ASSERT_EQ(cs->delta_rows(), 0u);

  UpdateQuery u;
  u.table = "orders";
  u.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{5}))}};
  u.set_columns = {1};
  u.set_values = {Value(int32_t{42})};
  ASSERT_TRUE(db.Execute(Query(u)).ok());
  // The CS fragment saw no write.
  EXPECT_EQ(cs->delta_rows(), 0u);
}

TEST(PartitionRoutingTest, HorizontalInsertGoesToHotPiece) {
  Database db;
  TableLayout h;
  h.base_store = StoreType::kColumn;
  h.horizontal = HorizontalSpec{0, 100.0, StoreType::kRow};
  ASSERT_TRUE(db.CreateTable("orders", OrdersSchema(), h).ok());
  ASSERT_TRUE(db.Execute(Query(InsertQuery{"orders", OrderRow(50)})).ok());
  ASSERT_TRUE(db.Execute(Query(InsertQuery{"orders", OrderRow(150)})).ok());
  LogicalTable* t = db.catalog().GetTable("orders");
  EXPECT_EQ(t->groups()[0].fragments[0].table->live_count(), 1u);  // hot
  EXPECT_EQ(t->groups()[1].fragments[0].table->live_count(), 1u);  // cold
}

// The layout description is what runs: LogicalTable builds one fragment per
// piece (store, columns, order), and the description's cover of a read is
// the fragment Bind serves it from, or none exactly where Bind stitches.
TEST(LayoutPiecesTest, DescriptionMatchesFragmentsAndBind) {
  TableLayout h;
  h.base_store = StoreType::kColumn;
  h.horizontal = HorizontalSpec{0, 700.0, StoreType::kRow};
  TableLayout v_rs;
  v_rs.base_store = StoreType::kRow;
  v_rs.vertical = VerticalSpec{{1, 3}};
  TableLayout v_cs = v_rs;
  v_cs.base_store = StoreType::kColumn;
  const std::vector<NamedLayout> layouts = {
      {"rs", TableLayout::SingleStore(StoreType::kRow)},
      {"cs", TableLayout::SingleStore(StoreType::kColumn)},
      {"h", h},
      {"v_rs", v_rs},
      {"v_cs", v_cs},
      {"hv", CombinedLayout()}};
  const std::vector<std::vector<ColumnId>> reads = {
      {0},        // key only
      {1, 3},     // the row-store side of the split
      {2, 4},     // the base side
      {1, 2, 4},  // spanning
  };
  for (const NamedLayout& nl : layouts) {
    SCOPED_TRACE(nl.name);
    Database db;
    ASSERT_TRUE(db.CreateTable("orders", OrdersSchema(), nl.layout).ok());
    for (int64_t id = 0; id < 1000; id += 7) {
      ASSERT_TRUE(
          db.Execute(Query(InsertQuery{"orders", OrderRow(id)})).ok());
    }
    const LogicalTable& table = *db.catalog().GetTable("orders");
    const LayoutPieces pieces(table.layout(), table.schema());
    ASSERT_EQ(pieces.num_groups(), table.groups().size());
    for (size_t g = 0; g < pieces.num_groups(); ++g) {
      const LayoutPieces::Group& group = pieces.begin()[g];
      const RowGroup& built = table.groups()[g];
      EXPECT_EQ(group.hot, built.hot);
      ASSERT_EQ(group.size, built.fragments.size());
      for (size_t p = 0; p < group.size; ++p) {
        std::vector<ColumnId> held;
        for (ColumnId c = 0; c < table.schema().num_columns(); ++c) {
          if (pieces.Holds(group.pieces[p], c)) held.push_back(c);
        }
        EXPECT_EQ(held, built.fragments[p].columns);
        EXPECT_EQ(group.pieces[p].store, built.fragments[p].table->store());
      }
    }
    for (const std::vector<ColumnId>& columns : reads) {
      SelectQuery q;
      q.table = "orders";
      q.select_columns = columns;
      Result<readpath::ReadPlan> plan =
          readpath::Bind(db.catalog(), Query(q));
      ASSERT_TRUE(plan.ok());
      ASSERT_EQ(plan->groups.size(), pieces.num_groups());
      for (size_t g = 0; g < pieces.num_groups(); ++g) {
        const LayoutPieces::Group& group = pieces.begin()[g];
        const LayoutPieces::Piece* cover = pieces.Cover(group, columns);
        const readpath::GroupPlan& bound = plan->groups[g];
        if (cover == nullptr) {
          EXPECT_EQ(bound.cover, nullptr);
          EXPECT_EQ(bound.path, readpath::AccessPath::kStitch);
        } else {
          EXPECT_EQ(bound.cover,
                    &table.groups()[g].fragments[cover - group.begin()]);
          EXPECT_NE(bound.path, readpath::AccessPath::kStitch);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hsdb
