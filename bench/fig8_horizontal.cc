// Figure 8: runtime of a fixed workload under different horizontal
// partitionings. Paper setup: mixed 500-query workload with 5% OLAP and
// updates addressing the top 10% of the data; vary the fraction of rows in
// the row-store partition from 0% to 20%. Expected shape: minimum exactly at
// the 10% the advisor recommends, (roughly) linear growth on both sides.
#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace hsdb {
namespace {

int Run() {
  bench::PrintBanner(
      "Figure 8: horizontal partitioning sweep",
      "30-attribute table, 10M tuples (scaled); 500 queries, 5% OLAP, "
      "updates on the top 10% of keys; RS partition grows 0%..20%",
      "runtime minimal at the recommended 10% row-store partition");

  const CostModelParams params = bench::CalibratedParams();
  SyntheticTableSpec spec;
  spec.name = "t";
  const size_t rows = bench::ScaledRows(10e6);
  const size_t num_queries = bench::ScaledQueries(500, 200);

  WorkloadOptions opts;
  opts.olap_fraction = 0.05;
  opts.hot_key_fraction = 0.10;  // updates address the top 10% of the data
  opts.insert_weight = 0.0;      // isolate the update-locality effect
  opts.update_weight = 0.7;
  opts.point_select_weight = 0.3;
  opts.wide_update_probability = 0.5;
  opts.seed = 77;

  // Ask the advisor which partitioning it would recommend.
  double recommended_fraction = -1.0;
  {
    Database db;
    HSDB_CHECK(db.CreateTable("t", spec.MakeSchema(),
                              TableLayout::SingleStore(StoreType::kColumn))
                   .ok());
    HSDB_CHECK(
        PopulateSynthetic(db.catalog().GetTable("t"), spec, rows).ok());
    db.catalog().UpdateAllStatistics();
    SyntheticWorkloadGenerator gen(spec, rows, opts);
    StorageAdvisor advisor(&db);
    advisor.SetCostModelParams(params);
    Result<Recommendation> rec =
        advisor.RecommendOffline(gen.Generate(num_queries));
    HSDB_CHECK(rec.ok());
    const LayoutContext& ctx = rec->layouts.at("t");
    if (ctx.layout.horizontal.has_value()) {
      recommended_fraction =
          1.0 - ctx.layout.horizontal->boundary / static_cast<double>(rows);
      std::printf("advisor recommendation: %s (RS fraction %.1f%%)\n",
                  ctx.layout.ToString().c_str(),
                  100.0 * recommended_fraction);
    } else {
      std::printf("advisor recommendation: %s\n",
                  ctx.layout.ToString().c_str());
    }
  }
  bench::PrintRule();

  std::printf("%16s %14s\n", "RS fraction", "runtime (s)");
  double best_runtime = 0.0;
  double best_fraction = 0.0;
  bool first = true;
  for (double fraction :
       {0.0, 0.025, 0.05, 0.075, 0.10, 0.125, 0.15, 0.20}) {
    TableLayout layout;
    layout.base_store = StoreType::kColumn;
    if (fraction > 0.0) {
      layout.horizontal = HorizontalSpec{
          spec.id_column(), static_cast<double>(rows) * (1.0 - fraction),
          StoreType::kRow};
    }
    // Median of three runs: the per-query costs are small at reduced scale
    // and a single run is noise-dominated.
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
      Database db;
      HSDB_CHECK(db.CreateTable("t", spec.MakeSchema(), layout).ok());
      HSDB_CHECK(
          PopulateSynthetic(db.catalog().GetTable("t"), spec, rows).ok());
      db.catalog().UpdateAllStatistics();
      SyntheticWorkloadGenerator gen(spec, rows, opts);
      WorkloadRunResult run = RunWorkload(db, gen.Generate(num_queries));
      HSDB_CHECK(run.failed == 0);
      samples.push_back(run.total_ms);
    }
    std::sort(samples.begin(), samples.end());
    double total_ms = samples[1];
    std::printf("%15.1f%% %14.3f\n", fraction * 100, total_ms / 1000.0);
    std::fflush(stdout);
    if (first || total_ms < best_runtime) {
      best_runtime = total_ms;
      best_fraction = fraction;
      first = false;
    }
  }
  bench::PrintRule();
  std::printf("measured optimum at RS fraction %.1f%%; advisor recommended "
              "%.1f%%\n",
              best_fraction * 100,
              recommended_fraction < 0 ? 0.0 : recommended_fraction * 100);
  return 0;
}

}  // namespace
}  // namespace hsdb

int main() { return hsdb::Run(); }
