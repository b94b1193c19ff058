// Wire-level `explain` / `explain analyze`: the introspection verbs answer
// on the reader thread with a rendered cost/path breakdown (explain) or an
// executed trace tree (explain analyze) — and explain analyze must agree
// with what actually executed: a count it reports matches the count the
// plain verb returns, and DML through explain analyze really mutates.
// Malformed explain requests get "err ..." and leave the connection usable.
// ExplainPathTest pins `explain`'s path line to the path that really runs,
// one fixture per access path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "executor/database.h"
#include "server/client.h"
#include "server/explain.h"
#include "server/server.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

class ExplainWireTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 10'000;

  void SetUp() override {
    spec_.name = "events";
    spec_.num_keyfigures = 2;
    spec_.num_filters = 2;
    spec_.num_groups = 1;
    Database::Options options;
    options.num_threads = 0;  // honor HSDB_THREADS (CI matrix)
    db_ = std::make_unique<Database>(options);
    ASSERT_TRUE(db_->CreateTable("events", spec_.MakeSchema(),
                                 TableLayout::SingleStore(StoreType::kColumn))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_->catalog().GetTable("events"), spec_, kRows)
            .ok());
    db_->catalog().UpdateAllStatistics();
    server_ = std::make_unique<server::SocketServer>(db_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  void TearDown() override { server_->Stop(); }

  /// One line of the reply containing `needle`, or "" when absent.
  static std::string LineWith(const std::vector<std::string>& lines,
                              const std::string& needle) {
    for (const std::string& line : lines) {
      if (line.find(needle) != std::string::npos) return line;
    }
    return std::string();
  }

  SyntheticTableSpec spec_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<server::SocketServer> server_;
  server::Client client_;
};

TEST_F(ExplainWireTest, ExplainRendersPlanWithoutExecuting) {
  Result<server::Reply> reply =
      client_.RoundTrip("explain count events where f0<100");
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok) << reply->error;
  const std::vector<std::string>& lines = reply->lines;
  EXPECT_FALSE(LineWith(lines, "query:").empty());
  EXPECT_FALSE(LineWith(lines, "kind: AGGREGATION").empty());
  EXPECT_FALSE(LineWith(lines, "path:").empty());
  EXPECT_FALSE(LineWith(lines, "batch_shareable: yes").empty())
      << "single-table count should be shareable";
  EXPECT_FALSE(LineWith(lines, "table events:").empty());
  // Per-column codec breakdown from the live statistics.
  EXPECT_FALSE(LineWith(lines, "codec=").empty());
  // explain does not execute: no observed time, no trace.
  EXPECT_TRUE(LineWith(lines, "observed_ms:").empty());
  EXPECT_TRUE(LineWith(lines, "trace").empty());
}

TEST_F(ExplainWireTest, ExplainReportsUnshareablePaths) {
  Result<server::Reply> reply =
      client_.RoundTrip("explain select events id,kf0 where id=17");
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok) << reply->error;
  // Point-PK lookups take the per-statement fast path.
  EXPECT_FALSE(LineWith(reply->lines, "point").empty());

  Result<server::Reply> dml =
      client_.RoundTrip("explain delete events where id=999999");
  ASSERT_TRUE(dml.ok());
  ASSERT_TRUE(dml->ok) << dml->error;
  EXPECT_FALSE(LineWith(dml->lines, "batch_shareable: no").empty());
  // explain of DML must NOT execute it.
  Result<server::Reply> count = client_.RoundTrip("count events");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->lines, std::vector<std::string>{std::to_string(kRows)});
}

TEST_F(ExplainWireTest, ExplainAnalyzeAgreesWithExecution) {
  Result<server::Reply> plain =
      client_.RoundTrip("count events where f0<250");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain->ok);
  ASSERT_EQ(plain->lines.size(), 1u);

  Result<server::Reply> analyzed =
      client_.RoundTrip("explain analyze count events where f0<250");
  ASSERT_TRUE(analyzed.ok());
  ASSERT_TRUE(analyzed->ok) << analyzed->error;
  const std::vector<std::string>& lines = analyzed->lines;
  // The aggregate value explain analyze reports is the executed result.
  const std::string result_line = LineWith(lines, "result:");
  ASSERT_FALSE(result_line.empty());
  EXPECT_NE(result_line.find(plain->lines[0]), std::string::npos)
      << result_line << " vs " << plain->lines[0];
  EXPECT_FALSE(LineWith(lines, "observed_ms:").empty());
  if (telemetry::kCompiledIn) {
    // The executed QueryResult's trace tree is rendered phase by phase.
    EXPECT_FALSE(LineWith(lines, "trace:").empty());
    // TraceSpan::ToString renders "name  <elapsed> ms" per line.
    EXPECT_FALSE(LineWith(lines, "query  ").empty())
        << "trace root span missing";
  }
}

TEST_F(ExplainWireTest, ExplainAnalyzeDmlReallyMutates) {
  std::string row = "777777,1.5,2.5,10,20,3";  // id, 2 kf, 2 f, 1 g
  Result<server::Reply> ins =
      client_.RoundTrip("explain analyze insert events " + row);
  ASSERT_TRUE(ins.ok());
  ASSERT_TRUE(ins->ok) << ins->error;
  EXPECT_FALSE(LineWith(ins->lines, "result: 1 row(s) affected").empty());

  Result<server::Reply> count = client_.RoundTrip("count events");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->lines,
            std::vector<std::string>{std::to_string(kRows + 1)});

  Result<server::Reply> del =
      client_.RoundTrip("explain analyze delete events where id=777777");
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE(del->ok) << del->error;
  Result<server::Reply> after = client_.RoundTrip("count events");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->lines, std::vector<std::string>{std::to_string(kRows)});
}

TEST_F(ExplainWireTest, MalformedExplainStaysConnectionLocal) {
  for (const char* bad :
       {"explain", "explain analyze", "explain bogus events",
        "explain analyze frobnicate", "explain count nosuchtable",
        "explain select"}) {
    Result<server::Reply> reply = client_.RoundTrip(bad);
    ASSERT_TRUE(reply.ok()) << bad;
    EXPECT_FALSE(reply->ok) << bad << " unexpectedly parsed";
  }
  // The connection survived all of it.
  Result<server::Reply> ping = client_.RoundTrip("ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping->ok);
  EXPECT_EQ(ping->lines, std::vector<std::string>{"pong"});
}

TEST_F(ExplainWireTest, ExplainPredictionLineWhenPredictorInstalled) {
  // Without a predictor the explain says so rather than inventing numbers.
  Result<server::Reply> reply =
      client_.RoundTrip("explain sum events kf0 where f1>=100");
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok) << reply->error;
  EXPECT_FALSE(LineWith(reply->lines, "predicted_cost").empty());
}

/// `explain` prints the binder's path and shareability; `explain analyze`
/// must then observe that path: morsels exactly on the covered scans (the
/// morsel kernel, plain or index-seeded, at any size), a stitch span
/// exactly on the stitch path.
TEST(ExplainPathTest, ExplainNamesThePathThatRuns) {
  SyntheticTableSpec spec;
  spec.num_keyfigures = 2;
  spec.num_filters = 2;
  spec.num_groups = 1;
  Database::Options options;
  options.num_threads = 2;
  Database db(options);
  TableLayout split;
  split.base_store = StoreType::kColumn;
  split.vertical = VerticalSpec{{spec.filter(0)}};
  struct Fixture {
    const char* name;
    TableLayout layout;
    size_t rows;
  };
  for (const Fixture& f :
       {Fixture{"big", TableLayout::SingleStore(StoreType::kColumn), 20'000},
        Fixture{"small", TableLayout::SingleStore(StoreType::kColumn), 100},
        Fixture{"indexed", TableLayout::SingleStore(StoreType::kRow), 20'000},
        Fixture{"split", split, 100}}) {
    spec.name = f.name;
    ASSERT_TRUE(db.CreateTable(f.name, spec.MakeSchema(), f.layout).ok());
    ASSERT_TRUE(
        PopulateSynthetic(db.catalog().GetTable(f.name), spec, f.rows).ok());
  }
  ASSERT_TRUE(
      db.catalog().GetTable("indexed")->CreateSortedIndex(spec.filter(0)).ok());

  const ValueRange below100 = ValueRange::Less(Value(int32_t{100}));
  AggregationQuery big_sum;  // column store above one morsel
  big_sum.tables = {"big"};
  big_sum.aggregates = {{AggFn::kSum, {spec.keyfigure(0), 0}}};
  big_sum.predicate = {{{spec.filter(1), 0}, below100}};
  SelectQuery small_select;  // a single morsel
  small_select.table = "small";
  small_select.select_columns = {0, spec.keyfigure(0)};
  small_select.predicate = {{{spec.filter(0), 0}, below100}};
  AggregationQuery indexed_count;  // sorted index seeds the kernel
  indexed_count.tables = {"indexed"};
  indexed_count.aggregates = {{AggFn::kCount, {}}};
  indexed_count.predicate = {{{spec.filter(0), 0}, below100}};
  SelectQuery split_select = small_select;  // columns span both pieces
  split_select.table = "split";
  SelectQuery point;  // PK point on the large table
  point.table = "big";
  point.select_columns = {0, spec.keyfigure(0)};
  point.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{17}))}};

  struct Case {
    Query query;
    std::string path;
    bool shareable;
  };
  const std::vector<Case> cases = {
      {big_sum, "morsel scan at DOP 2", true},
      {small_select, "morsel scan at DOP 2", true},
      {indexed_count, "index-seeded scan at DOP 2", false},
      {split_select, "stitch", false},
      {point, "point-PK lookup", false},
  };
  auto line_with = [](const std::vector<std::string>& lines,
                      const std::string& prefix) {
    for (const std::string& line : lines) {
      if (line.rfind(prefix, 0) == 0) return line;
    }
    return std::string();
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(QueryToString(c.query));
    const std::vector<std::string> plan = server::ExplainLines(&db, c.query);
    EXPECT_EQ(line_with(plan, "path:"), "path: " + c.path);
    EXPECT_FALSE(line_with(plan, c.shareable ? "batch_shareable: yes"
                                             : "batch_shareable: no")
                     .empty());

    Result<std::vector<std::string>> analyzed =
        server::ExplainAnalyzeLines(&db, c.query);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    if (!telemetry::kCompiledIn) continue;  // no counters, no trace
    const bool covered = c.path.find("scan at DOP") != std::string::npos;
    EXPECT_EQ(line_with(*analyzed, "morsels_dispatched:") !=
                  "morsels_dispatched: 0",
              covered);
    bool stitch_span = false;
    for (const std::string& line : *analyzed) {
      if (line.find(" stitch ") != std::string::npos) stitch_span = true;
    }
    EXPECT_EQ(stitch_span, c.path == "stitch");
  }
}

/// At DOP 1 the kernel's morsels run inline on the statement's thread, so
/// the trace attributes them: a column-store aggregation over several
/// morsels shows `predicate` and `decode` spans under `scan_parallel`.
TEST(ExplainPathTest, DopOneTracesTheMorselKernel) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  SyntheticTableSpec spec;
  spec.name = "t";
  Database::Options options;
  options.num_threads = 1;
  Database db(options);
  ASSERT_TRUE(db.CreateTable("t", spec.MakeSchema(),
                             TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  ASSERT_TRUE(
      PopulateSynthetic(db.catalog().GetTable("t"), spec, 40'000).ok());
  AggregationQuery sum;
  sum.tables = {"t"};
  sum.aggregates = {{AggFn::kSum, {spec.keyfigure(0), 0}}};
  sum.predicate = {
      {{spec.filter(0), 0}, ValueRange::Less(Value(int32_t{500}))}};
  const std::vector<std::string> plan = server::ExplainLines(&db, sum);
  EXPECT_NE(std::find(plan.begin(), plan.end(), "path: morsel scan at DOP 1"),
            plan.end());

  Result<QueryResult> result = db.Execute(sum);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  const telemetry::TraceSpan* scan = result->trace->Find("scan_parallel");
  ASSERT_NE(scan, nullptr) << result->trace->ToString();
  size_t predicate = 0, decode = 0;
  for (const telemetry::TraceSpan& child : scan->children) {
    predicate += child.name == "predicate";
    decode += child.name == "decode";
  }
  // 40,000 rows are three morsels, each filtered and then aggregated.
  EXPECT_EQ(predicate, 3u) << result->trace->ToString();
  EXPECT_EQ(decode, 3u) << result->trace->ToString();
}

/// A star join binds to a plan: `explain` prints the fact path at its DOP
/// and one line per dimension, and the traced run has exactly a
/// `join_build` and then a `probe` span under `execute`, the fact scan's
/// morsels under `probe`.
TEST(ExplainPathTest, StarJoinPlanAndSpans) {
  Database::Options options;
  options.num_threads = 2;
  Database db(options);
  const Schema sales = Schema::CreateOrDie({{"id", DataType::kInt64},
                                            {"cust", DataType::kInt64},
                                            {"amount", DataType::kDouble}},
                                           {0});
  ASSERT_TRUE(db.CreateTable("sales", sales,
                             TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  TableLayout split;  // segment apart from the key's other columns
  split.base_store = StoreType::kColumn;
  split.vertical = VerticalSpec{{1}};
  ASSERT_TRUE(db.CreateTable("cust",
                             Schema::CreateOrDie({{"cust_id", DataType::kInt64},
                                                  {"segment", DataType::kInt32},
                                                  {"name", DataType::kVarchar}},
                                                 {0}),
                             split)
                  .ok());
  for (int64_t c = 0; c < 10; ++c) {
    ASSERT_TRUE(db.catalog()
                    .GetTable("cust")
                    ->Insert({c, int32_t(c % 2), "c" + std::to_string(c)})
                    .ok());
  }
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db.catalog()
                    .GetTable("sales")
                    ->Insert({i, i % 12, static_cast<double>(i)})
                    .ok());
  }
  AggregationQuery q;
  q.tables = {"sales", "cust"};
  q.joins = {{0, 1, 1, 0}};
  q.aggregates = {{AggFn::kSum, {2, 0}}, {AggFn::kCount, {}}};
  q.group_by = {{1, 1}};  // cust.segment
  const std::vector<std::string> plan = server::ExplainLines(&db, q);
  for (const char* want :
       {"path: morsel scan at DOP 2",
        "join cust: cust = cust_id, build columns (segment), build access: "
        "covering-fragment scan",
        "batch_shareable: no (per-statement path)"}) {
    EXPECT_NE(std::find(plan.begin(), plan.end(), want), plan.end())
        << want;
  }
  q.group_by = {{2, 1}};  // cust.name, in the other piece than segment
  q.aggregates.push_back({AggFn::kMax, {1, 1}});
  const std::vector<std::string> stitched = server::ExplainLines(&db, q);
  EXPECT_NE(std::find(stitched.begin(), stitched.end(),
                      "join cust: cust = cust_id, build columns (name, "
                      "segment), build access: stitch"),
            stitched.end());

  if (!telemetry::kCompiledIn) return;
  Result<QueryResult> result = db.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  const telemetry::TraceSpan* execute = result->trace->Find("execute");
  ASSERT_NE(execute, nullptr) << result->trace->ToString();
  std::vector<std::string> children;
  for (const telemetry::TraceSpan& child : execute->children) {
    children.push_back(child.name);
  }
  EXPECT_EQ(children, (std::vector<std::string>{"join_build", "probe"}))
      << result->trace->ToString();
  const telemetry::TraceSpan* probe = execute->Find("probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_NE(probe->Find("scan_parallel"), nullptr)
      << result->trace->ToString();
  EXPECT_EQ(execute->Find("scan"), nullptr) << result->trace->ToString();
}

}  // namespace
}  // namespace hsdb
