// Figure 9(a)/(b): benefit of vertical partitioning on workload runtime.
// Paper setup:
//  (a) OLAP-shaped table: 10 keyfigures, 8 group-by attributes, 2 OLTP
//      attributes;
//  (b) OLTP-shaped table: 18 OLTP attributes, 1 keyfigure, 1 group-by.
// Workloads sweep the OLAP fraction 0%..2.5%; compare RS-only, CS-only and
// the vertically partitioned layout the advisor recommends. Expected shape:
// the vertical split tracks (and beats) the column store except for pure
// OLTP workloads, where the row store wins.
#include <vector>

#include "bench_util.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace hsdb {
namespace {

void RunSetting(const char* label, SyntheticTableSpec spec,
                const CostModelParams& params) {
  const size_t rows = bench::ScaledRows(10e6);
  const size_t num_queries = bench::ScaledQueries(500, 400);

  // The OLTP side updates the table's filter attributes; the advisor should
  // put exactly those into the row-store piece. The OLAP side aggregates
  // keyfigures grouped by the group-by attributes and does NOT filter on the
  // OLTP attributes — the paper's point is that the workloads "fit the table
  // structure", i.e. OLAP stays inside the column piece.
  WorkloadOptions opts;
  opts.olap_fraction = 0.01;
  opts.filter_probability = 0.0;
  opts.group_by_probability = 0.7;
  opts.update_columns = spec.num_filters;  // updates touch all OLTP attrs
  opts.insert_weight = 0.0;
  opts.update_weight = 0.6;
  opts.point_select_weight = 0.4;
  opts.seed = 99;

  // Derive the vertical layout from the advisor once.
  TableLayout vertical;
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
    vertical = rec->layouts.at("t").layout;
    // Evaluate the vertical scheme in isolation (the paper's Fig. 9 focuses
    // on vertical partitioning only).
    vertical.horizontal.reset();
    if (!vertical.vertical.has_value()) {
      // The advisor may prefer an unpartitioned layout at this mix; Fig. 9
      // studies the vertical scheme itself, so fall back to the heuristic
      // split (OLTP attributes -> row store) explicitly.
      VerticalSpec spec_v;
      for (size_t i = 0; i < spec.num_filters; ++i) {
        spec_v.row_store_columns.push_back(spec.filter(i));
      }
      vertical.base_store = StoreType::kColumn;
      vertical.vertical = spec_v;
    }
    std::printf("[%s] advisor layout: %s\n", label,
                vertical.ToString().c_str());
  }

  std::printf("[%s] rows = %zu, queries = %zu\n", label, rows, num_queries);
  std::printf("%14s %12s %12s %16s\n", "OLAP fraction", "RS-only (s)",
              "CS-only (s)", "partitioned (s)");
  for (double frac : {0.0, 0.00625, 0.0125, 0.01875, 0.025}) {
    WorkloadOptions sweep = opts;
    sweep.olap_fraction = frac;
    sweep.seed = 4242;  // one seed: fractions differ only by the OLAP share
    double runtime[3];
    TableLayout layouts[3] = {TableLayout::SingleStore(StoreType::kRow),
                              TableLayout::SingleStore(StoreType::kColumn),
                              vertical};
    for (int i = 0; i < 3; ++i) {
      Database db;
      HSDB_CHECK(db.CreateTable("t", spec.MakeSchema(), layouts[i]).ok());
      HSDB_CHECK(
          PopulateSynthetic(db.catalog().GetTable("t"), spec, rows).ok());
      db.catalog().UpdateAllStatistics();
      SyntheticWorkloadGenerator gen(spec, rows, sweep);
      WorkloadRunResult run = RunWorkload(db, gen.Generate(num_queries));
      HSDB_CHECK(run.failed == 0);
      runtime[i] = run.total_ms;
    }
    std::printf("%13.3f%% %12.3f %12.3f %16.3f\n", frac * 100,
                runtime[0] / 1000.0, runtime[1] / 1000.0,
                runtime[2] / 1000.0);
    std::fflush(stdout);
  }
  bench::PrintRule();
}

int Run() {
  bench::PrintBanner(
      "Figure 9(a)+(b): benefit of vertical partitioning",
      "(a) OLAP-shaped table (10 keyfigures, 8 group-bys, 2 OLTP attrs); "
      "(b) OLTP-shaped table (18 OLTP attrs, 1 keyfigure, 1 group-by); "
      "OLAP fraction 0%..2.5%",
      "vertical split tracks/beats CS-only except at 0% OLAP where RS-only "
      "wins");

  const CostModelParams params = bench::CalibratedParams();

  SyntheticTableSpec olap_spec;  // Fig. 9(a)
  olap_spec.name = "t";
  olap_spec.num_keyfigures = 10;
  olap_spec.num_filters = 2;  // the 2 selection/update attributes
  olap_spec.num_groups = 8;
  RunSetting("9a OLAP setting", olap_spec, params);

  SyntheticTableSpec oltp_spec;  // Fig. 9(b)
  oltp_spec.name = "t";
  oltp_spec.num_keyfigures = 1;
  oltp_spec.num_filters = 18;  // the 18 selection/update attributes
  oltp_spec.num_groups = 1;
  RunSetting("9b OLTP setting", oltp_spec, params);
  return 0;
}

}  // namespace
}  // namespace hsdb

int main() { return hsdb::Run(); }
