// Microbenchmarks (google-benchmark) of the store asymmetries the advisor's
// cost model is built on: scans/aggregates, inserts, updates, point lookups
// per store. Run in Release mode for meaningful numbers.
#include <benchmark/benchmark.h>

#include "catalog/statistics.h"
#include "executor/database.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

constexpr size_t kRows = 100'000;

SyntheticTableSpec Spec() {
  SyntheticTableSpec spec;
  spec.name = "t";
  return spec;
}

std::unique_ptr<Database> MakeDb(StoreType store) {
  auto db = std::make_unique<Database>();
  SyntheticTableSpec spec = Spec();
  HSDB_CHECK(db->CreateTable("t", spec.MakeSchema(),
                             TableLayout::SingleStore(store))
                 .ok());
  HSDB_CHECK(PopulateSynthetic(db->catalog().GetTable("t"), spec, kRows).ok());
  return db;
}

void BM_Aggregate(benchmark::State& state) {
  auto db = MakeDb(static_cast<StoreType>(state.range(0)));
  SyntheticTableSpec spec = Spec();
  AggregationQuery q;
  q.tables = {"t"};
  q.aggregates = {{AggFn::kSum, {spec.keyfigure(0), 0}}};
  for (auto _ : state) {
    auto r = db->Execute(Query(q));
    benchmark::DoNotOptimize(r->aggregates[0]);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_Aggregate)->Arg(0)->Arg(1)->ArgName("store");

void BM_GroupedAggregate(benchmark::State& state) {
  auto db = MakeDb(static_cast<StoreType>(state.range(0)));
  SyntheticTableSpec spec = Spec();
  AggregationQuery q;
  q.tables = {"t"};
  q.aggregates = {{AggFn::kSum, {spec.keyfigure(0), 0}}};
  q.group_by = {{spec.group(0), 0}};
  for (auto _ : state) {
    auto r = db->Execute(Query(q));
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_GroupedAggregate)->Arg(0)->Arg(1)->ArgName("store");

void BM_Insert(benchmark::State& state) {
  auto db = MakeDb(static_cast<StoreType>(state.range(0)));
  SyntheticTableSpec spec = Spec();
  int64_t next = kRows;
  for (auto _ : state) {
    auto r = db->Execute(Query(InsertQuery{"t", SyntheticRow(spec, next++)}));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Insert)->Arg(0)->Arg(1)->ArgName("store");

void BM_PointUpdate(benchmark::State& state) {
  auto db = MakeDb(static_cast<StoreType>(state.range(0)));
  SyntheticTableSpec spec = Spec();
  Rng rng(5);
  for (auto _ : state) {
    UpdateQuery u;
    u.table = "t";
    u.predicate = {{{0, 0},
                    ValueRange::Eq(Value(rng.UniformInt(0, kRows - 1)))}};
    u.set_columns = {spec.keyfigure(0), spec.keyfigure(1)};
    u.set_values = {Value(1.0), Value(2.0)};
    auto r = db->Execute(Query(u));
    benchmark::DoNotOptimize(r->affected_rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointUpdate)->Arg(0)->Arg(1)->ArgName("store");

void BM_PointSelect(benchmark::State& state) {
  auto db = MakeDb(static_cast<StoreType>(state.range(0)));
  SyntheticTableSpec spec = Spec();
  SelectQuery q;
  q.table = "t";
  for (ColumnId c = 0; c < spec.num_columns(); ++c) {
    q.select_columns.push_back(c);
  }
  Rng rng(6);
  for (auto _ : state) {
    q.predicate = {{{0, 0},
                    ValueRange::Eq(Value(rng.UniformInt(0, kRows - 1)))}};
    auto r = db->Execute(Query(q));
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointSelect)->Arg(0)->Arg(1)->ArgName("store");

void BM_RangeSelect(benchmark::State& state) {
  auto db = MakeDb(static_cast<StoreType>(state.range(0)));
  SyntheticTableSpec spec = Spec();
  SelectQuery q;
  q.table = "t";
  q.select_columns = {0, spec.keyfigure(0)};
  // ~1% selectivity range on a filter attribute.
  q.predicate = {{{spec.filter(0), 0},
                  ValueRange::Between(Value(int32_t{100}),
                                      Value(int32_t{109}))}};
  for (auto _ : state) {
    auto r = db->Execute(Query(q));
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_RangeSelect)->Arg(0)->Arg(1)->ArgName("store");

// One full statistics pass (distinct counts, runs, min/max) over every
// column: the work EnsureStatistics and each online re-search repeat.
void BM_Analyze(benchmark::State& state) {
  auto db = MakeDb(static_cast<StoreType>(state.range(0)));
  const LogicalTable& table = *db->catalog().GetTable("t");
  for (auto _ : state) {
    TableStatistics stats = Analyze(table);
    benchmark::DoNotOptimize(stats.columns.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_Analyze)->Arg(0)->Arg(1)->ArgName("store");

}  // namespace
}  // namespace hsdb

BENCHMARK_MAIN();
