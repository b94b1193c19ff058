// Star-join aggregation tests across store combinations, and a nested-loop
// reference check across table layouts and degrees of parallelism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>

#include "executor/aggregate.h"
#include "executor/database.h"
#include "executor/read_path.h"

namespace hsdb {
namespace {

Schema FactSchema() {
  return Schema::CreateOrDie({{"id", DataType::kInt64},
                              {"cust_id", DataType::kInt64},
                              {"part_id", DataType::kInt64},
                              {"amount", DataType::kDouble}},
                             {0});
}

Schema CustomerSchema() {
  return Schema::CreateOrDie({{"cust_id", DataType::kInt64},
                              {"segment", DataType::kInt32},
                              {"name", DataType::kVarchar}},
                             {0});
}

Schema PartSchema() {
  return Schema::CreateOrDie(
      {{"part_id", DataType::kInt64}, {"color", DataType::kVarchar}}, {0});
}

class JoinTest : public ::testing::TestWithParam<
                     std::tuple<StoreType, StoreType>> {
 protected:
  void SetUp() override {
    auto [fact_store, dim_store] = GetParam();
    ASSERT_TRUE(db_.CreateTable("fact", FactSchema(),
                                TableLayout::SingleStore(fact_store))
                    .ok());
    ASSERT_TRUE(db_.CreateTable("customer", CustomerSchema(),
                                TableLayout::SingleStore(dim_store))
                    .ok());
    ASSERT_TRUE(db_.CreateTable("part", PartSchema(),
                                TableLayout::SingleStore(dim_store))
                    .ok());
    // 10 customers in 2 segments, 5 parts in 2 colors.
    for (int64_t c = 0; c < 10; ++c) {
      ASSERT_TRUE(db_.Execute(Query(InsertQuery{
                                  "customer",
                                  {c, int32_t(c % 2),
                                   "cust" + std::to_string(c)}}))
                      .ok());
    }
    for (int64_t p = 0; p < 5; ++p) {
      ASSERT_TRUE(
          db_.Execute(Query(InsertQuery{
                          "part", {p, p < 3 ? "red" : "blue"}}))
              .ok());
    }
    // 200 fact rows; amount == id.
    for (int64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_.Execute(Query(InsertQuery{
                                  "fact",
                                  {i, i % 10, i % 5,
                                   static_cast<double>(i)}}))
                      .ok());
    }
  }

  Database db_;
};

TEST_P(JoinTest, UngroupedJoinAggregate) {
  AggregationQuery q;
  q.tables = {"fact", "customer"};
  q.joins = {{0, 1, 1, 0}};  // fact.cust_id = customer.cust_id
  q.aggregates = {{AggFn::kSum, {3, 0}}, {AggFn::kCount, {}}};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->aggregates[0], 19900.0);  // all rows join
  EXPECT_DOUBLE_EQ(r->aggregates[1], 200.0);
}

TEST_P(JoinTest, GroupByDimensionAttribute) {
  AggregationQuery q;
  q.tables = {"fact", "customer"};
  q.joins = {{0, 1, 1, 0}};
  q.aggregates = {{AggFn::kSum, {3, 0}}};
  q.group_by = {{1, 1}};  // customer.segment
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  double total = 0;
  for (const Row& row : r->rows) total += row[1].as_double();
  EXPECT_DOUBLE_EQ(total, 19900.0);
}

TEST_P(JoinTest, TwoDimensionStar) {
  AggregationQuery q;
  q.tables = {"fact", "customer", "part"};
  q.joins = {{0, 1, 1, 0}, {0, 2, 2, 0}};
  q.aggregates = {{AggFn::kCount, {}}};
  q.group_by = {{1, 1}, {1, 2}};  // segment x color
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 4u);  // 2 segments x 2 colors
  double total = 0;
  for (const Row& row : r->rows) total += row[2].as_double();
  EXPECT_DOUBLE_EQ(total, 200.0);
}

TEST_P(JoinTest, PredicateOnDimensionFiltersBuild) {
  AggregationQuery q;
  q.tables = {"fact", "customer"};
  q.joins = {{0, 1, 1, 0}};
  q.aggregates = {{AggFn::kCount, {}}};
  q.predicate = {{{1, 1}, ValueRange::Eq(Value(int32_t{0}))}};  // segment 0
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->aggregates[0], 100.0);  // even cust_ids
}

TEST_P(JoinTest, PredicateOnFactFiltersProbe) {
  AggregationQuery q;
  q.tables = {"fact", "customer"};
  q.joins = {{0, 1, 1, 0}};
  q.aggregates = {{AggFn::kSum, {3, 0}}};
  q.predicate = {{{0, 0}, ValueRange::Less(Value(int64_t{100}))}};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->aggregates[0], 4950.0);
}

TEST_P(JoinTest, JoinMissDropsRows) {
  // Delete customers 0..4: fact rows with cust_id < 5 no longer join.
  for (int64_t c = 0; c < 5; ++c) {
    DeleteQuery d;
    d.table = "customer";
    d.predicate = {{{0, 0}, ValueRange::Eq(Value(c))}};
    ASSERT_TRUE(db_.Execute(Query(d)).ok());
  }
  AggregationQuery q;
  q.tables = {"fact", "customer"};
  q.joins = {{0, 1, 1, 0}};
  q.aggregates = {{AggFn::kCount, {}}};
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->aggregates[0], 100.0);
}

TEST_P(JoinTest, AggregateOverDimensionColumn) {
  AggregationQuery q;
  q.tables = {"fact", "customer"};
  q.joins = {{0, 1, 1, 0}};
  q.aggregates = {{AggFn::kMax, {1, 1}}};  // max customer segment over facts
  auto r = db_.Execute(Query(q));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->aggregates[0], 1.0);
}

TEST_P(JoinTest, InvalidJoinShapesRejected) {
  // Non-star edge.
  AggregationQuery q;
  q.tables = {"fact", "customer", "part"};
  q.joins = {{0, 1, 1, 0}, {1, 1, 2, 0}};
  q.aggregates = {{AggFn::kCount, {}}};
  EXPECT_EQ(db_.Execute(Query(q)).status().code(),
            StatusCode::kNotSupported);
  // Wrong edge count.
  AggregationQuery q2;
  q2.tables = {"fact", "customer", "part"};
  q2.joins = {{0, 1, 1, 0}};
  q2.aggregates = {{AggFn::kCount, {}}};
  EXPECT_EQ(db_.Execute(Query(q2)).status().code(),
            StatusCode::kInvalidArgument);
  // Duplicate dimension edge.
  AggregationQuery q3;
  q3.tables = {"fact", "customer"};
  q3.joins = {{0, 1, 1, 0}, {0, 2, 1, 0}};
  q3.aggregates = {{AggFn::kCount, {}}};
  EXPECT_EQ(db_.Execute(Query(q3)).status().code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    StoreCombinations, JoinTest,
    ::testing::Combine(::testing::Values(StoreType::kRow, StoreType::kColumn),
                       ::testing::Values(StoreType::kRow,
                                         StoreType::kColumn)),
    [](const auto& info) {
      return std::string(StoreTypeName(std::get<0>(info.param))) + "fact_" +
             std::string(StoreTypeName(std::get<1>(info.param))) + "dim";
    });


// ---------------------------------------------------------------------------
// Nested-loop reference across layouts and DOPs.

/// How one table of the reference test is stored.
enum class Shape {
  kRs,
  kCs,
  kCsDelta,         // merged main plus unmerged delta rows
  kHorizontal,      // hot row-store group (first) + column-store group
  kVerticalShared,  // vertical split; the join's columns share a fragment
  kVerticalSplit,   // vertical split; the join's columns are split apart
};

std::string ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kRs:
      return "RS";
    case Shape::kCs:
      return "CS";
    case Shape::kCsDelta:
      return "CSdelta";
    case Shape::kHorizontal:
      return "H";
    case Shape::kVerticalShared:
      return "Vshared";
    case Shape::kVerticalSplit:
      return "Vsplit";
  }
  return "?";
}

constexpr Shape kShapes[] = {Shape::kRs,          Shape::kCs,
                             Shape::kCsDelta,     Shape::kHorizontal,
                             Shape::kVerticalShared, Shape::kVerticalSplit};

/// A table's contents and the column choices behind each shape.
struct TableSpec {
  std::string name;
  Schema schema;
  std::vector<Row> rows;
  double boundary;                  // kHorizontal: hot rows have id >= this
  std::vector<ColumnId> shared_rs;  // kVerticalShared row-store columns
  std::vector<ColumnId> split_rs;   // kVerticalSplit row-store columns
};

// Two fact morsels; the horizontal split's hot group holds ids >= 9000.
constexpr int64_t kRefFactRows = readpath::kMorselRows + 1000;
constexpr int64_t kRefFactBoundary = 9000;

TableSpec RefFact() {
  TableSpec t{"fact",
              Schema::CreateOrDie({{"id", DataType::kInt64},
                                   {"cust_id", DataType::kInt64},
                                   {"part_id", DataType::kInt64},
                                   {"amount", DataType::kDouble},
                                   {"qty", DataType::kInt32},
                                   {"note", DataType::kVarchar}},
                                  {0}),
              {},
              static_cast<double>(kRefFactBoundary),
              {5},      // note: cust_id, part_id, amount, qty stay together
              {1, 4}};  // cust_id, qty apart from part_id, amount
  for (int64_t i = 0; i < kRefFactRows; ++i) {
    // Customers 50..59 and parts 20..22 do not exist: join misses.
    t.rows.push_back({i, i % 60, i % 23, 0.25 * static_cast<double>(i) + 0.1,
                      int32_t(i % 7), "n" + std::to_string(i % 5)});
  }
  return t;
}

TableSpec RefCustomer() {
  TableSpec t{"customer",
              Schema::CreateOrDie({{"cust_id", DataType::kInt64},
                                   {"segment", DataType::kInt32},
                                   {"name", DataType::kVarchar},
                                   {"balance", DataType::kDouble},
                                   {"nation", DataType::kInt64}},
                                  {0}),
              {},
              25.0,
              {2},   // name
              {1}};  // segment apart from balance and nation
  for (int64_t c = 0; c < 50; ++c) {
    t.rows.push_back({c, int32_t(c % 3), "cust" + std::to_string(c),
                      1.5 * static_cast<double>(c), c % 7});
  }
  return t;
}

TableSpec RefPart() {
  TableSpec t{"part",
              Schema::CreateOrDie({{"part_id", DataType::kInt64},
                                   {"color", DataType::kVarchar},
                                   {"size", DataType::kInt32},
                                   {"weight", DataType::kDouble}},
                                  {0}),
              {},
              10.0,
              {3},   // weight
              {1}};  // color apart from size
  for (int64_t p = 0; p < 20; ++p) {
    t.rows.push_back({p, p % 3 == 0 ? "red" : "blue", int32_t(p % 9),
                      0.5 * static_cast<double>(p)});
  }
  return t;
}

void LoadTable(Database* db, const TableSpec& spec, Shape shape) {
  TableLayout layout = TableLayout::SingleStore(
      shape == Shape::kRs ? StoreType::kRow : StoreType::kColumn);
  if (shape == Shape::kHorizontal) {
    layout.horizontal = HorizontalSpec{0, spec.boundary, StoreType::kRow};
  } else if (shape == Shape::kVerticalShared) {
    layout.vertical = VerticalSpec{spec.shared_rs};
  } else if (shape == Shape::kVerticalSplit) {
    layout.vertical = VerticalSpec{spec.split_rs};
  }
  ASSERT_TRUE(db->CreateTable(spec.name, spec.schema, layout).ok());
  LogicalTable* table = db->catalog().GetTable(spec.name);
  // kCsDelta keeps its last fifth unmerged (below the merge threshold).
  const size_t merged = shape == Shape::kCsDelta ? spec.rows.size() * 4 / 5
                                                 : spec.rows.size();
  for (size_t i = 0; i < spec.rows.size(); ++i) {
    if (i == merged) table->ForceMerge();
    ASSERT_TRUE(table->Insert(spec.rows[i]).ok());
  }
  if (shape != Shape::kCsDelta) table->ForceMerge();
}

std::unique_ptr<Database> MakeStarDb(Shape fact, Shape dims, int threads) {
  Database::Options options;
  options.num_threads = threads;
  auto db = std::make_unique<Database>(options);
  LoadTable(db.get(), RefFact(), fact);
  LoadTable(db.get(), RefCustomer(), dims);
  LoadTable(db.get(), RefPart(), dims);
  return db;
}

/// The join answered by nested loops over ForEachRow of every table: each
/// fact row passing its terms meets every combination of dimension rows
/// that pass theirs and equal it on the edge columns.
struct Reference {
  std::vector<AggState> totals;
  std::map<Row, std::vector<AggState>> groups;
};

Reference NestedLoopReference(Database* db, const AggregationQuery& q) {
  auto passes = [&](const Row& row, int table_index) {
    for (const PredicateTerm& term : q.predicate) {
      if (term.column.table_index == table_index &&
          !term.range.Contains(row[term.column.column])) {
        return false;
      }
    }
    return true;
  };
  std::vector<std::vector<Row>> rows(q.tables.size());
  for (size_t t = 1; t < q.tables.size(); ++t) {
    db->catalog().GetTable(q.tables[t])->ForEachRow([&](const Row& row) {
      if (passes(row, static_cast<int>(t))) rows[t].push_back(row);
    });
  }
  Reference ref;
  ref.totals.resize(q.aggregates.size());
  std::vector<const Row*> match(q.tables.size());
  std::function<void(size_t)> join = [&](size_t e) {
    if (e < q.joins.size()) {
      const JoinEdge& edge = q.joins[e];
      for (const Row& dim : rows[edge.right_table]) {
        if (dim[edge.right_column] ==
            (*match[edge.left_table])[edge.left_column]) {
          match[edge.right_table] = &dim;
          join(e + 1);
        }
      }
      return;
    }
    std::vector<AggState>* states = &ref.totals;
    if (!q.group_by.empty()) {
      Row key;
      for (const ColumnRef& ref_col : q.group_by) {
        key.push_back((*match[ref_col.table_index])[ref_col.column]);
      }
      states = &ref.groups[key];
      states->resize(q.aggregates.size());
    }
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      const AggregateExpr& agg = q.aggregates[i];
      if (agg.fn == AggFn::kCount) {
        (*states)[i].AddCount(1.0);
      } else {
        (*states)[i].Add(
            (*match[agg.column.table_index])[agg.column.column].AsNumeric());
      }
    }
  };
  db->catalog().GetTable(q.tables[0])->ForEachRow([&](const Row& row) {
    if (!passes(row, 0)) return;
    match[0] = &row;
    join(0);
  });
  return ref;
}

/// Counts, min, max and group keys exactly; sums and averages to 1e-9
/// relative.
void ExpectAggregate(AggFn fn, double got, double want,
                     const std::string& what) {
  if (fn == AggFn::kSum || fn == AggFn::kAvg) {
    EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want))) << what;
  } else {
    EXPECT_EQ(got, want) << what;
  }
}

void ExpectMatchesReference(const AggregationQuery& q, const QueryResult& got,
                            const Reference& ref, const std::string& what) {
  if (q.group_by.empty()) {
    ASSERT_EQ(got.aggregates.size(), q.aggregates.size()) << what;
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      ExpectAggregate(q.aggregates[i].fn, got.aggregates[i],
                      ref.totals[i].Finalize(q.aggregates[i].fn),
                      what + " aggregate " + std::to_string(i));
    }
    return;
  }
  ASSERT_EQ(got.rows.size(), ref.groups.size()) << what;
  const size_t width = q.group_by.size();
  for (const Row& row : got.rows) {
    ASSERT_EQ(row.size(), width + q.aggregates.size()) << what;
    const Row key(row.begin(), row.begin() + width);
    auto it = ref.groups.find(key);
    ASSERT_NE(it, ref.groups.end()) << what << " group " << RowToString(key);
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      ExpectAggregate(q.aggregates[i].fn, row[width + i].as_double(),
                      it->second[i].Finalize(q.aggregates[i].fn),
                      what + " group " + RowToString(key) + " aggregate " +
                          std::to_string(i));
    }
  }
}

/// The group keys of a grouped result, in result order.
std::string GroupKeys(const AggregationQuery& q, const QueryResult& r) {
  std::string keys;
  for (const Row& row : r.rows) {
    keys += RowToString(Row(row.begin(), row.begin() + q.group_by.size()));
  }
  return keys;
}

struct NamedQuery {
  std::string name;
  AggregationQuery query;
};

// Column ids of the reference tables.
constexpr ColumnId kFId = 0, kFCust = 1, kFPart = 2, kFAmount = 3, kFQty = 4;
constexpr ColumnId kCSegment = 1, kCName = 2, kCBalance = 3, kCNation = 4;
constexpr ColumnId kPColor = 1, kPSize = 2, kPWeight = 3;

std::vector<NamedQuery> ReferenceQueries() {
  const JoinEdge to_customer{0, kFCust, 1, 0};
  const JoinEdge to_part{0, kFPart, 2, 0};
  std::vector<NamedQuery> qs;
  {
    AggregationQuery q;
    q.tables = {"fact", "customer"};
    q.joins = {to_customer};
    q.aggregates = {{AggFn::kSum, {kFAmount, 0}}, {AggFn::kCount, {}},
                    {AggFn::kMin, {kFQty, 0}},    {AggFn::kMax, {kFQty, 0}},
                    {AggFn::kAvg, {kFAmount, 0}}};
    qs.push_back({"ungrouped", q});
  }
  {
    AggregationQuery q;
    q.tables = {"fact", "customer"};
    q.joins = {to_customer};
    q.aggregates = {{AggFn::kSum, {kFAmount, 0}}, {AggFn::kCount, {}},
                    {AggFn::kAvg, {kFAmount, 0}}, {AggFn::kMax, {kFQty, 0}}};
    q.group_by = {{kFPart, 0}};
    q.predicate = {
        {{kFId, 0}, ValueRange::Less(Value(int64_t{12000}))},
        {{kFQty, 0},
         ValueRange::Between(Value(int32_t{2}), Value(int32_t{5}))}};
    qs.push_back({"fact_predicate", q});
  }
  {
    AggregationQuery q;
    q.tables = {"fact", "customer"};
    q.joins = {to_customer};
    q.aggregates = {{AggFn::kCount, {}}, {AggFn::kSum, {kFAmount, 0}}};
    q.group_by = {{kFQty, 0}};
    q.predicate = {
        {{kCSegment, 1}, ValueRange::Eq(Value(int32_t{1}))},
        {{kCBalance, 1}, ValueRange::AtLeast(Value(10.0))}};
    qs.push_back({"dim_predicate", q});
  }
  {
    AggregationQuery q;
    q.tables = {"fact", "customer"};
    q.joins = {to_customer};
    q.aggregates = {{AggFn::kSum, {kFAmount, 0}}, {AggFn::kCount, {}}};
    q.group_by = {{kCSegment, 1}, {kFQty, 0}};
    qs.push_back({"group_fact_and_dim", q});
  }
  {
    AggregationQuery q;
    q.tables = {"fact", "customer"};
    q.joins = {to_customer};
    q.aggregates = {{AggFn::kSum, {kCBalance, 1}},
                    {AggFn::kAvg, {kCBalance, 1}},
                    {AggFn::kMin, {kCNation, 1}},
                    {AggFn::kMax, {kCNation, 1}}};
    q.group_by = {{kFPart, 0}};
    qs.push_back({"dim_aggregates", q});
  }
  {
    AggregationQuery q;
    q.tables = {"fact", "customer"};
    q.joins = {to_customer};
    q.aggregates = {{AggFn::kSum, {kFAmount, 0}},
                    {AggFn::kMin, {kCBalance, 1}}};
    q.group_by = {{kCName, 1}};
    qs.push_back({"group_by_dim_string", q});
  }
  {
    AggregationQuery q;
    q.tables = {"fact", "customer", "part"};
    q.joins = {to_customer, to_part};
    q.aggregates = {{AggFn::kSum, {kFAmount, 0}},
                    {AggFn::kCount, {}},
                    {AggFn::kMax, {kPSize, 2}},
                    {AggFn::kSum, {kPWeight, 2}}};
    q.group_by = {{kPColor, 2}, {kCSegment, 1}};
    q.predicate = {{{kPSize, 2}, ValueRange::AtMost(Value(int32_t{6}))},
                   {{kFAmount, 0}, ValueRange::AtLeast(Value(100.0))}};
    qs.push_back({"two_dims", q});
  }
  return qs;
}

class JoinReferenceTest
    : public ::testing::TestWithParam<std::tuple<Shape, Shape>> {};

// Every query, before and after dimension deletes, matches the nested-loop
// reference at DOP 1 and 4, with its group rows in the same order at both.
// Groups come out in the order the scan first meets their keys, so the
// order also matches the all-row-store DOP-1 database's wherever the fact
// rows are scanned in insertion order: on every layout but the horizontal
// split, which scans its hot group first.
TEST_P(JoinReferenceTest, MatchesNestedLoopReference) {
  const auto [fact_shape, dim_shape] = GetParam();
  std::unique_ptr<Database> canonical =
      MakeStarDb(Shape::kRs, Shape::kRs, /*threads=*/1);
  std::vector<std::unique_ptr<Database>> dbs;
  for (int threads : {1, 4}) {
    dbs.push_back(MakeStarDb(fact_shape, dim_shape, threads));
  }
  for (const char* phase : {"initial", "after_dim_deletes"}) {
    if (std::string(phase) == "after_dim_deletes") {
      // Customers 10..19 and part 4 go away: their fact rows now miss.
      DeleteQuery del_customers{
          "customer",
          {{{0, 0}, ValueRange::Between(Value(int64_t{10}),
                                        Value(int64_t{19}))}}};
      DeleteQuery del_part{"part",
                           {{{0, 0}, ValueRange::Eq(Value(int64_t{4}))}}};
      for (Database* db : {canonical.get(), dbs[0].get(), dbs[1].get()}) {
        ASSERT_TRUE(db->Execute(Query(del_customers)).ok());
        ASSERT_TRUE(db->Execute(Query(del_part)).ok());
      }
    }
    for (const NamedQuery& nq : ReferenceQueries()) {
      const Reference ref = NestedLoopReference(canonical.get(), nq.query);
      Result<QueryResult> want = canonical->Execute(Query(nq.query));
      ASSERT_TRUE(want.ok()) << nq.name << ": " << want.status().ToString();
      std::string order;  // this layout's group order at DOP 1
      for (size_t d = 0; d < dbs.size(); ++d) {
        const std::string what = std::string(phase) + " " + nq.name +
                                 (d == 0 ? " DOP 1" : " DOP 4");
        Result<QueryResult> got = dbs[d]->Execute(Query(nq.query));
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        ExpectMatchesReference(nq.query, *got, ref, what);
        if (d == 0 && fact_shape != Shape::kHorizontal) {
          EXPECT_EQ(GroupKeys(nq.query, *got), GroupKeys(nq.query, *want))
              << what << ": group order differs from the row-store run";
        }
        if (d == 0) order = GroupKeys(nq.query, *got);
        EXPECT_EQ(GroupKeys(nq.query, *got), order)
            << what << ": group order differs from the DOP-1 run";
      }
    }
  }
}

// An edge to a dimension column that is not its primary key could match
// several dimension rows per fact row; the hash build keeps one row per key,
// so the executor refuses the edge instead of answering wrongly.
TEST(JoinEdgeTest, NonKeyJoinEdgeNotSupported) {
  for (Shape shape : {Shape::kRs, Shape::kCs}) {
    std::unique_ptr<Database> db = MakeStarDb(shape, shape, /*threads=*/1);
    AggregationQuery q;
    q.tables = {"fact", "customer"};
    q.joins = {{0, kFCust, 1, kCNation}};  // nation repeats across customers
    q.aggregates = {{AggFn::kSum, {kFAmount, 0}}, {AggFn::kCount, {}}};
    EXPECT_EQ(db->Execute(Query(q)).status().code(),
              StatusCode::kNotSupported)
        << ShapeName(shape);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, JoinReferenceTest,
    ::testing::Combine(::testing::ValuesIn(kShapes),
                       ::testing::ValuesIn(kShapes)),
    [](const auto& info) {
      return ShapeName(std::get<0>(info.param)) + "fact_" +
             ShapeName(std::get<1>(info.param)) + "dim";
    });

}  // namespace
}  // namespace hsdb
