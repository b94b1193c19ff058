// Budget sweep for the advisor's per-column encoding search: estimated
// workload cost as a function of the memory budget granted to the encoded
// column-store segments. Expected shape: flat at the unconstrained optimum
// while the budget is slack, a rising curve as the budget squeezes fast
// codecs back into small ones, and infeasible below the per-column footprint
// floor. The picker's heuristic assignment (per-column footprint minimum) is
// the horizontal baseline — at every feasible budget the search must match
// or beat it.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/encoding_search.h"
#include "executor/database.h"

namespace hsdb {
namespace {

void Run() {
  const size_t rows = bench::ScaledRows(2e6, 50'000);
  bench::PrintBanner(
      "encoding budget sweep",
      "sales fact table (dense id, run-structured date, low-card status, "
      "high-card amount), scan-heavy workload + inserts",
      "cost flat at slack budgets, rising once the budget binds; never "
      "above the picker baseline at feasible budgets");

  Schema schema = Schema::CreateOrDie({{"id", DataType::kInt64},
                                       {"day", DataType::kDate},
                                       {"status", DataType::kVarchar},
                                       {"amount", DataType::kDouble}},
                                      /*primary_key=*/{0});
  Database db;
  HSDB_CHECK(db.CreateTable("fact", schema,
                            TableLayout::SingleStore(StoreType::kColumn))
                 .ok());
  LogicalTable* fact = db.catalog().GetTable("fact");
  const char* statuses[] = {"OPEN", "PAID", "SHIPPED", "RETURNED"};
  Rng rng(20120831);
  for (size_t i = 0; i < rows; ++i) {
    HSDB_CHECK(fact
                   ->Insert(Row{Value(static_cast<int64_t>(i)),
                                Value(Date{static_cast<int32_t>(i / 400)}),
                                Value(std::string(statuses[rng.Index(4)])),
                                Value(rng.UniformDouble(0.0, 1e9))})
                   .ok());
  }
  fact->ForceMerge();
  db.catalog().UpdateAllStatistics();

  CostModel model(bench::CalibratedParams());
  // One candidate: the encoding search over the frozen column-store layout.
  std::map<std::string, std::vector<LayoutCandidate>> candidates;
  candidates["fact"] = {{LayoutContext::SingleStore(StoreType::kColumn), "CS"}};

  AggregationQuery olap;
  olap.tables = {"fact"};
  olap.aggregates = {{AggFn::kSum, {3, 0}}};
  olap.group_by = {{2, 0}};
  olap.predicate = {
      {{1, 0},
       ValueRange::Between(Value(Date{100}),
                           Value(Date{static_cast<int32_t>(rows / 800)}))}};
  InsertQuery insert{"fact",
                     Row{Value(static_cast<int64_t>(rows) + 1),
                         Value(Date{0}), Value(std::string("OPEN")),
                         Value(0.0)}};
  std::vector<WeightedQuery> workload = {
      WeightedQuery{Query(olap), 400.0},
      WeightedQuery{Query(insert), 40.0}};

  // Anchor the sweep on the unconstrained optimum and the feasibility floor.
  EncodingSearch unconstrained(&model, &db.catalog());
  EncodingDesign top = unconstrained.Search(workload, candidates);
  std::printf(
      "unconstrained: cost %.3f ms, footprint %.0f bytes "
      "(picker: %.3f ms, %.0f bytes; floor %.0f bytes)\n\n",
      top.cost_ms, top.footprint_bytes, top.picker_cost_ms,
      top.picker_footprint_bytes, top.min_footprint_bytes);
  std::printf("%8s  %12s  %12s  %10s  %s\n", "budget%", "budget_bytes",
              "cost_ms", "vs_picker", "feasible");
  bench::PrintRule();

  // Sweep from 120% of the unconstrained footprint down past the floor.
  for (int pct = 120; pct >= 40; pct -= 10) {
    EncodingSearchOptions options;
    options.memory_budget_bytes =
        top.footprint_bytes * static_cast<double>(pct) / 100.0;
    EncodingSearch search(&model, &db.catalog(), options);
    EncodingDesign r = search.Search(workload, candidates);
    std::printf("%7d%%  %12.0f  %12.3f  %9.3fx  %s\n", pct,
                *options.memory_budget_bytes, r.cost_ms,
                r.cost_ms / r.picker_cost_ms,
                r.feasible ? "yes" : "NO (floor)");
  }
}

}  // namespace
}  // namespace hsdb

int main() {
  hsdb::Run();
  return 0;
}
