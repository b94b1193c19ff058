// Microbenchmarks of the advisor itself: the paper argues that cost
// estimation is cheap enough to evaluate all store combinations ("estimation
// can be done very efficiently, this is a negligible overhead") — this
// measures it.
#include <benchmark/benchmark.h>

#include "core/table_advisor.h"
#include "executor/database.h"
#include "workload/generator.h"

namespace hsdb {
namespace {

struct Fixture {
  Fixture() {
    spec.name = "t";
    HSDB_CHECK(db.CreateTable("t", spec.MakeSchema(),
                              TableLayout::SingleStore(StoreType::kRow))
                   .ok());
    HSDB_CHECK(PopulateSynthetic(db.catalog().GetTable("t"), spec, 10'000)
                   .ok());
    db.catalog().UpdateAllStatistics();
    WorkloadOptions opts;
    opts.olap_fraction = 0.05;
    SyntheticWorkloadGenerator gen(spec, 10'000, opts);
    workload = ToWeighted(gen.Generate(500));
  }
  Database db;
  SyntheticTableSpec spec;
  std::vector<WeightedQuery> workload;
  CostModel model;
};

Fixture& GetFixture() {
  static Fixture* f = new Fixture();
  return *f;
}

void BM_EstimateSingleQuery(benchmark::State& state) {
  Fixture& f = GetFixture();
  WorkloadCostEstimator est(&f.model, &f.db.catalog());
  size_t i = 0;
  for (auto _ : state) {
    double cost = est.QueryCost(
        f.workload[i++ % f.workload.size()].query, [](const std::string&) {
          return LayoutContext::SingleStore(StoreType::kColumn);
        });
    benchmark::DoNotOptimize(cost);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EstimateSingleQuery);

void BM_EstimateWorkload500(benchmark::State& state) {
  Fixture& f = GetFixture();
  WorkloadCostEstimator est(&f.model, &f.db.catalog());
  for (auto _ : state) {
    double cost = est.WorkloadCost(f.workload, [](const std::string&) {
      return LayoutContext::SingleStore(StoreType::kColumn);
    });
    benchmark::DoNotOptimize(cost);
  }
  state.SetItemsProcessed(state.iterations() * f.workload.size());
}
BENCHMARK(BM_EstimateWorkload500);

void BM_TableAdvisorRecommend(benchmark::State& state) {
  Fixture& f = GetFixture();
  TableAdvisor advisor(&f.model, &f.db.catalog());
  for (auto _ : state) {
    TableAdvisorResult r = advisor.Recommend(f.workload);
    benchmark::DoNotOptimize(r.estimated_cost_ms);
  }
}
BENCHMARK(BM_TableAdvisorRecommend);

void BM_CostModelAggregation(benchmark::State& state) {
  CostModel model;
  std::vector<AggSpec> aggs = {{AggFn::kSum, DataType::kDouble},
                               {AggFn::kAvg, DataType::kInt32}};
  for (auto _ : state) {
    double cost = model.AggregationCost(StoreType::kColumn, aggs, true, true,
                                        1e7, 0.6);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_CostModelAggregation);

}  // namespace
}  // namespace hsdb

BENCHMARK_MAIN();
