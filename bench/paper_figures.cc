// The paper's evaluation (Figs. 6-10), the encoding budget sweep and two
// ablations, as one harness. The figures share one set-up: load a table (or
// TPC-H with its row-store tuning indexes), ask the advisor, replay a
// workload on a design. `paper_figures` runs every figure in table order,
// `paper_figures fig7a fig10` only the named ones; an unknown name prints
// the figure list and exits 2.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/advisor.h"
#include "core/encoding_search.h"
#include "core/table_advisor.h"
#include "core/workload_cost.h"
#include "tpch/workload.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace hsdb {
namespace {

constexpr StoreType kStores[] = {StoreType::kRow, StoreType::kColumn};

// --- Shared set-up -----------------------------------------------------------

/// The paper's 30-attribute table, named "t".
SyntheticTableSpec TableT() {
  SyntheticTableSpec spec;
  spec.name = "t";
  return spec;
}

/// Creates `spec`'s table in `layout`, loads `rows` rows and analyzes it.
void LoadSynthetic(Database* db, const SyntheticTableSpec& spec, size_t rows,
                   const TableLayout& layout) {
  HSDB_CHECK(db->CreateTable(spec.name, spec.MakeSchema(), layout).ok());
  HSDB_CHECK(
      PopulateSynthetic(db->catalog().GetTable(spec.name), spec, rows).ok());
  HSDB_CHECK(db->catalog().UpdateStatistics(spec.name).ok());
}

/// Runs `workload`; every statement must succeed.
WorkloadRunResult Replay(Database& db, const std::vector<Query>& workload) {
  WorkloadRunResult run = RunWorkload(db, workload);
  HSDB_CHECK(run.failed == 0);
  return run;
}

/// Measured time of `workload` on a fresh load of `spec` in `layout`.
double LoadAndReplay(const SyntheticTableSpec& spec, size_t rows,
                     const TableLayout& layout,
                     const std::vector<Query>& workload) {
  Database db;
  LoadSynthetic(&db, spec, rows, layout);
  return Replay(db, workload).total_ms;
}

/// The advisor's offline recommendation for `workload` on `db`.
Recommendation Advise(Database* db, const CostModelParams& params,
                      const std::vector<Query>& workload) {
  StorageAdvisor advisor(db);
  advisor.SetCostModelParams(params);
  Result<Recommendation> rec = advisor.RecommendOffline(workload);
  HSDB_CHECK_MSG(rec.ok(), rec.status().ToString().c_str());
  return std::move(*rec);
}

/// The advisor's layout for `spec`'s table, loaded into the column store.
TableLayout AdvisedLayout(const CostModelParams& params,
                          const SyntheticTableSpec& spec, size_t rows,
                          const std::vector<Query>& workload) {
  Database db;
  LoadSynthetic(&db, spec, rows, TableLayout::SingleStore(StoreType::kColumn));
  return Advise(&db, params, workload).layouts.at(spec.name).layout;
}

/// Loads TPC-H at scale factor `sf`, each table in its `layouts` entry or
/// else the row store. The row-store pieces of the big tables get a sorted
/// index on the key the workload's non-point updates use, as a tuned
/// deployment would. The advisor must see the same tuning the measured
/// designs get, or it prices row-store updates as scans.
void LoadTunedTpch(Database* db, double sf,
                   const std::map<std::string, TableLayout>& layouts) {
  tpch::DbgenOptions opts;
  opts.scale_factor = sf;
  opts.layouts = layouts;
  Result<tpch::DbgenStats> stats = tpch::LoadTpch(*db, opts);
  HSDB_CHECK_MSG(stats.ok(), stats.status().ToString().c_str());
  for (const auto& [table, column] :
       {std::pair{"lineitem", tpch::col::kLOrderKey},
        std::pair{"partsupp", tpch::col::kPsPartKey}}) {
    HSDB_CHECK(db->catalog().GetTable(table)->CreateSortedIndex(column).ok());
  }
}

// --- Fig. 6: estimated against measured time ---------------------------------

/// Fig. 6's table: per setting, each store's estimate of one query and the
/// median of five measured runs, then the estimate error per store.
struct EstimateTable {
  EstimateTable(const CostModelParams& params, const char* setting)
      : model(params) {
    std::printf("%12s %14s %14s %14s %14s\n", setting, "RS est (ms)",
                "RS meas (ms)", "CS est (ms)", "CS meas (ms)");
  }

  /// Estimates and measures `q` on `db`, whose tables are in `store`.
  void Measure(Database& db, StoreType store, const Query& q) {
    const int s = static_cast<int>(store);
    WorkloadCostEstimator estimator(&model, &db.catalog());
    est[s].push_back(estimator.QueryCost(q, [&](const std::string&) {
      return LayoutContext::SingleStore(store);
    }));
    meas[s].push_back(
        MedianTimeMs([&] { HSDB_CHECK(db.Execute(q).ok()); }, 5));
  }

  void PrintRow(size_t setting) const {
    std::printf("%12zu %14.3f %14.3f %14.3f %14.3f\n", setting,
                est[0].back(), meas[0].back(), est[1].back(), meas[1].back());
    std::fflush(stdout);
  }

  void PrintErrors() const {
    bench::PrintRule();
    std::printf("RS estimation error (MAPE): %5.1f%%\n",
                100.0 * MeanAbsolutePercentageError(meas[0], est[0]));
    std::printf("CS estimation error (MAPE): %5.1f%%\n",
                100.0 * MeanAbsolutePercentageError(meas[1], est[1]));
  }

  CostModel model;
  std::vector<double> est[2];   // per store, one entry per setting
  std::vector<double> meas[2];
};

void Fig6a(const CostModelParams& params) {
  bench::PrintBanner(
      "Figure 6(a): estimation accuracy over data scale",
      "30-attribute table, constant SUM aggregation, 2M..20M tuples "
      "(scaled)",
      "linear growth in both stores; RS steeper; estimate tracks measured");
  const SyntheticTableSpec spec = TableT();
  // The paper's "constant aggregation query": SUM over one keyfigure.
  AggregationQuery q;
  q.tables = {"t"};
  q.aggregates = {{AggFn::kSum, {spec.keyfigure(0), 0}}};

  EstimateTable table(params, "tuples");
  for (double paper_n : {2e6, 6e6, 10e6, 15e6, 20e6}) {
    const size_t rows = bench::ScaledRows(paper_n);
    for (StoreType store : kStores) {
      Database db;
      LoadSynthetic(&db, spec, rows, TableLayout::SingleStore(store));
      table.Measure(db, store, Query(q));
    }
    table.PrintRow(rows);
  }
  table.PrintErrors();
  std::printf("RS/CS measured slope ratio at max scale: %.2fx\n",
              table.meas[0].back() / std::max(1e-9, table.meas[1].back()));
}

void Fig6b(const CostModelParams& params) {
  bench::PrintBanner(
      "Figure 6(b): estimation accuracy over the number of aggregates",
      "30-attribute table, 10M tuples (scaled), 1..5 aggregates",
      "linear in #aggregates for both stores; estimate tracks measured");
  const SyntheticTableSpec spec = TableT();
  const size_t rows = bench::ScaledRows(10e6);
  Database dbs[2];
  for (StoreType store : kStores) {
    LoadSynthetic(&dbs[static_cast<int>(store)], spec, rows,
                  TableLayout::SingleStore(store));
  }

  std::printf("rows = %zu\n", rows);
  EstimateTable table(params, "#aggregates");
  static constexpr AggFn kFns[] = {AggFn::kSum, AggFn::kAvg, AggFn::kMin,
                                   AggFn::kMax, AggFn::kSum};
  for (size_t aggs = 1; aggs <= 5; ++aggs) {
    AggregationQuery q;
    q.tables = {"t"};
    for (size_t i = 0; i < aggs; ++i) {
      q.aggregates.push_back(
          {kFns[i], {spec.keyfigure(i % spec.num_keyfigures), 0}});
    }
    for (StoreType store : kStores) {
      table.Measure(dbs[static_cast<int>(store)], store, Query(q));
    }
    table.PrintRow(aggs);
  }
  table.PrintErrors();
}

// --- Fig. 7: the advisor's store against both single stores ------------------

/// Fig. 7's sweep over the OLAP fraction: each setting's workload is
/// replayed with `table` in each single store (`load` builds that
/// database), against the store the table advisor picks for it.
void StorePickSweep(
    const CostModelParams& params, const std::string& table,
    const std::function<std::vector<Query>(double)>& workload_for,
    const std::function<void(Database*, StoreType)>& load) {
  const CostModel model(params);
  std::printf("%14s %12s %12s %10s %14s %10s\n", "OLAP fraction",
              "RS-only (s)", "CS-only (s)", "advisor", "advisor (s)",
              "optimal?");
  static constexpr double kFractions[] = {0.0, 0.0125, 0.025, 0.0375, 0.05};
  int advisor_optimal = 0;
  for (double frac : kFractions) {
    const std::vector<Query> workload = workload_for(frac);
    double measured[2];
    StoreType recommended = StoreType::kRow;
    for (StoreType store : kStores) {
      Database db;
      load(&db, store);
      if (store == StoreType::kRow) {
        // Ask the advisor once (data characteristics identical either way).
        TableAdvisor advisor(&model, &db.catalog());
        recommended =
            advisor.Recommend(ToWeighted(workload)).assignment.at(table);
      }
      measured[static_cast<int>(store)] = Replay(db, workload).total_ms;
    }
    const double advisor_ms = measured[static_cast<int>(recommended)];
    const bool optimal =
        advisor_ms <= std::min(measured[0], measured[1]) + 1e-9;
    advisor_optimal += optimal;
    std::printf("%13.2f%% %12.3f %12.3f %10s %14.3f %10s\n", frac * 100,
                measured[0] / 1000.0, measured[1] / 1000.0,
                std::string(StoreTypeName(recommended)).c_str(),
                advisor_ms / 1000.0, optimal ? "yes" : "no");
    std::fflush(stdout);
  }
  bench::PrintRule();
  std::printf("advisor picked the measured-optimal store in %d/%zu settings\n",
              advisor_optimal, std::size(kFractions));
}

void Fig7a(const CostModelParams& params) {
  bench::PrintBanner(
      "Figure 7(a): recommendation quality, single table",
      "30-attribute table, 10M tuples (scaled), 500-query workloads, OLAP "
      "fraction 0%..5%",
      "RS wins at low OLAP fractions, CS beyond ~2.5%; advisor follows the "
      "minimum");
  const SyntheticTableSpec spec = TableT();
  const size_t rows = bench::ScaledRows(10e6);
  const size_t num_queries = bench::ScaledQueries(500, 200);
  std::printf("rows = %zu, queries per workload = %zu\n", rows, num_queries);
  StorePickSweep(
      params, spec.name,
      [&](double frac) {
        WorkloadOptions opts;
        opts.olap_fraction = frac;
        opts.seed = 1234;
        return SyntheticWorkloadGenerator(spec, rows, opts)
            .Generate(num_queries);
      },
      [&](Database* db, StoreType store) {
        LoadSynthetic(db, spec, rows, TableLayout::SingleStore(store));
      });
}

void Fig7b(const CostModelParams& params) {
  bench::PrintBanner(
      "Figure 7(b): recommendation quality, join queries",
      "star schema: fact 10 attrs x 20M tuples (scaled), dim 6 attrs x 1000 "
      "rows in the row store; OLAP = join aggregations",
      "same shape as 7(a) with a lower crossover fraction");
  const StarSchemaSpec spec;
  const size_t fact_rows = bench::ScaledRows(20e6);
  const size_t num_queries = bench::ScaledQueries(500, 200);
  std::printf("fact rows = %zu, dim rows = %llu, queries = %zu\n", fact_rows,
              static_cast<unsigned long long>(spec.dim_rows), num_queries);
  StorePickSweep(
      params, spec.fact_name,
      [&](double frac) {
        WorkloadOptions opts;
        opts.olap_fraction = frac;
        opts.seed = 4321;
        return StarWorkloadGenerator(spec, fact_rows, opts)
            .Generate(num_queries);
      },
      [&](Database* db, StoreType fact_store) {
        HSDB_CHECK(db->CreateTable(spec.fact_name, spec.MakeFactSchema(),
                                   TableLayout::SingleStore(fact_store))
                       .ok());
        // The paper fixes the small dimension in the row store.
        HSDB_CHECK(db->CreateTable(spec.dim_name, spec.MakeDimSchema(),
                                   TableLayout::SingleStore(StoreType::kRow))
                       .ok());
        HSDB_CHECK(PopulateStarSchema(db->catalog().GetTable(spec.fact_name),
                                      db->catalog().GetTable(spec.dim_name),
                                      spec, fact_rows)
                       .ok());
        db->catalog().UpdateAllStatistics();
      });
}

// --- Figs. 8 and 9: the recommended split against the alternatives ---------

void Fig8(const CostModelParams& params) {
  bench::PrintBanner(
      "Figure 8: horizontal partitioning sweep",
      "30-attribute table, 10M tuples (scaled); 500 queries, 5% OLAP, "
      "updates on the top 10% of keys; RS partition grows 0%..20%",
      "runtime minimal at the recommended 10% row-store partition");
  const SyntheticTableSpec spec = TableT();
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
  const std::vector<Query> workload =
      SyntheticWorkloadGenerator(spec, rows, opts).Generate(num_queries);

  // Ask the advisor which partitioning it would recommend.
  const TableLayout recommended = AdvisedLayout(params, spec, rows, workload);
  double recommended_fraction = 0.0;
  if (recommended.horizontal.has_value()) {
    recommended_fraction =
        1.0 - recommended.horizontal->boundary / static_cast<double>(rows);
    std::printf("advisor recommendation: %s (RS fraction %.1f%%)\n",
                recommended.ToString().c_str(), 100.0 * recommended_fraction);
  } else {
    std::printf("advisor recommendation: %s\n",
                recommended.ToString().c_str());
  }
  bench::PrintRule();

  std::printf("%16s %14s\n", "RS fraction", "runtime (s)");
  double best_runtime = std::numeric_limits<double>::infinity();
  double best_fraction = 0.0;
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
    double samples[3];
    for (double& ms : samples) ms = LoadAndReplay(spec, rows, layout, workload);
    std::sort(std::begin(samples), std::end(samples));
    const double total_ms = samples[1];
    std::printf("%15.1f%% %14.3f\n", fraction * 100, total_ms / 1000.0);
    std::fflush(stdout);
    if (total_ms < best_runtime) {
      best_runtime = total_ms;
      best_fraction = fraction;
    }
  }
  bench::PrintRule();
  std::printf("measured optimum at RS fraction %.1f%%; advisor recommended "
              "%.1f%%\n",
              best_fraction * 100, recommended_fraction * 100);
}

void VerticalSetting(const char* label, const SyntheticTableSpec& spec,
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
  TableLayout vertical = AdvisedLayout(
      params, spec, rows,
      SyntheticWorkloadGenerator(spec, rows, opts).Generate(num_queries));
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
  std::printf("[%s] advisor layout: %s\n", label, vertical.ToString().c_str());

  std::printf("[%s] rows = %zu, queries = %zu\n", label, rows, num_queries);
  std::printf("%14s %12s %12s %16s\n", "OLAP fraction", "RS-only (s)",
              "CS-only (s)", "partitioned (s)");
  const TableLayout layouts[3] = {TableLayout::SingleStore(StoreType::kRow),
                                  TableLayout::SingleStore(StoreType::kColumn),
                                  vertical};
  for (double frac : {0.0, 0.00625, 0.0125, 0.01875, 0.025}) {
    WorkloadOptions sweep = opts;
    sweep.olap_fraction = frac;
    sweep.seed = 4242;  // one seed: fractions differ only by the OLAP share
    const std::vector<Query> workload =
        SyntheticWorkloadGenerator(spec, rows, sweep).Generate(num_queries);
    double runtime[3];
    for (int i = 0; i < 3; ++i) {
      runtime[i] = LoadAndReplay(spec, rows, layouts[i], workload);
    }
    std::printf("%13.3f%% %12.3f %12.3f %16.3f\n", frac * 100,
                runtime[0] / 1000.0, runtime[1] / 1000.0,
                runtime[2] / 1000.0);
    std::fflush(stdout);
  }
  bench::PrintRule();
}

void Fig9(const CostModelParams& params) {
  bench::PrintBanner(
      "Figure 9(a)+(b): benefit of vertical partitioning",
      "(a) OLAP-shaped table (10 keyfigures, 8 group-bys, 2 OLTP attrs); "
      "(b) OLTP-shaped table (18 OLTP attrs, 1 keyfigure, 1 group-by); "
      "OLAP fraction 0%..2.5%",
      "vertical split tracks/beats CS-only except at 0% OLAP where RS-only "
      "wins");

  SyntheticTableSpec olap_spec = TableT();  // Fig. 9(a)
  olap_spec.num_keyfigures = 10;
  olap_spec.num_filters = 2;  // the 2 selection/update attributes
  olap_spec.num_groups = 8;
  VerticalSetting("9a OLAP setting", olap_spec, params);

  SyntheticTableSpec oltp_spec = TableT();  // Fig. 9(b)
  oltp_spec.num_keyfigures = 1;
  oltp_spec.num_filters = 18;  // the 18 selection/update attributes
  oltp_spec.num_groups = 1;
  VerticalSetting("9b OLTP setting", oltp_spec, params);
}

// --- Fig. 10: every decision level on TPC-H ----------------------------------

void Fig10(const CostModelParams& params) {
  bench::PrintBanner(
      "Figure 10: decisions on different levels, TPC-H-like scenario",
      "TPC-H SF 1 (scaled), 5000-query mixed workload, ~1% OLAP",
      "RS-only and CS-only most expensive; table-level clearly cheaper; "
      "partitioned cheapest (paper: -40% vs table, -65% vs CS-only)");

  const double sf = bench::ScaleFactor();
  const size_t num_queries = bench::ScaledQueries(5000, 500);
  tpch::TpchWorkloadOptions wl_opts;
  // Preserve the paper's OLAP-to-OLTP *cost balance* at reduced scale: an
  // OLAP query's cost shrinks with the data (factor sf) while an OLTP op
  // does not, so the OLAP share of the query count must grow accordingly.
  // At sf = 1 this reduces to the paper's nominal 1%.
  {
    double r = (0.01 / 0.99) / sf;
    wl_opts.olap_fraction = r / (1.0 + r);
  }
  std::printf("scale factor %.3f, %zu queries, effective OLAP fraction "
              "%.3f (balance-preserving for nominal 1%%)\n",
              sf, num_queries, wl_opts.olap_fraction);
  bench::PrintRule();

  // Ask the advisor for table-level and partitioned recommendations from a
  // reference load + recorded workload sample.
  std::map<std::string, TableLayout> table_level;
  std::map<std::string, TableLayout> partitioned;
  {
    Database db;
    LoadTunedTpch(&db, sf, {});
    tpch::TpchWorkloadGenerator gen(db, wl_opts);
    const Recommendation rec = Advise(&db, params, gen.Generate(num_queries));
    std::printf("%s", rec.Summary().c_str());
    bench::PrintRule();
    for (const auto& [name, store] : rec.table_level_assignment) {
      table_level.emplace(name, TableLayout::SingleStore(store));
    }
    for (const auto& [name, ctx] : rec.layouts) {
      partitioned.emplace(name, ctx.layout);
    }
  }

  std::map<std::string, TableLayout> cs_only;
  for (const std::string& name : tpch::TableNames()) {
    cs_only.emplace(name, TableLayout::SingleStore(StoreType::kColumn));
  }
  // The generator reads the database's table sizes, so each load generates
  // its own workload.
  auto replay = [&](const char* label,
                    const std::map<std::string, TableLayout>& layouts) {
    Database db;
    LoadTunedTpch(&db, sf, layouts);
    tpch::TpchWorkloadGenerator gen(db, wl_opts);
    WorkloadRunResult run = Replay(db, gen.Generate(num_queries));
    std::printf("%-14s %12.3f s   (%zu queries, %zu OLAP)\n", label,
                run.total_ms / 1000.0, run.queries, run.olap_queries);
    std::fflush(stdout);
    return run.total_ms;
  };
  const double t_rs = replay("RS only", {});  // every table in the row store
  const double t_cs = replay("CS only", cs_only);
  const double t_table = replay("Table", table_level);
  const double t_part = replay("Partitioned", partitioned);

  bench::PrintRule();
  std::printf("Partitioned vs Table:   %+.1f%%\n",
              100.0 * (t_part - t_table) / t_table);
  std::printf("Partitioned vs CS-only: %+.1f%%\n",
              100.0 * (t_part - t_cs) / t_cs);
  std::printf("Partitioned vs RS-only: %+.1f%%\n",
              100.0 * (t_part - t_rs) / t_rs);
  std::printf("Table vs best single store: %+.1f%%\n",
              100.0 * (t_table - std::min(t_rs, t_cs)) /
                  std::min(t_rs, t_cs));
}

// Estimated workload cost as a function of the memory budget granted to the
// encoded column-store segments. Expected shape: flat at the unconstrained
// optimum while the budget is slack, a rising curve as the budget squeezes
// fast codecs back into small ones, and infeasible below the per-column
// footprint floor. The picker's heuristic assignment (per-column footprint
// minimum) is the horizontal baseline — at every feasible budget the search
// must match or beat it.
void FigEncodingBudget(const CostModelParams& params) {
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

  CostModel model(params);
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

// Exhaustive vs. hill-climbing assignment search in the table advisor —
// solution quality and advisor runtime as the schema grows. (Design-choice
// validation beyond the paper, which evaluates at most the 8-table TPC-H
// schema where exhaustive search is trivial.)
void AblationAssignment(const CostModelParams&) {
  bench::PrintBanner(
      "Ablation: assignment search (exhaustive vs. hill climbing)",
      "k tables with random per-table workloads plus random 2-table joins",
      "hill climbing should match exhaustive quality at a fraction of the "
      "evaluations");

  CostModel model;  // analytic defaults suffice: only the search differs
  std::printf("%8s %14s %14s %12s %12s %10s\n", "tables", "exhaustive(ms)",
              "hillclimb(ms)", "exh. evals", "hc evals", "gap");

  for (size_t k : {2, 4, 8, 12, 16, 20}) {
    Database db;
    Rng rng(k * 17);
    std::vector<SyntheticTableSpec> specs(k);
    std::vector<WeightedQuery> workload;
    for (size_t t = 0; t < k; ++t) {
      specs[t].name = "t" + std::to_string(t);
      specs[t].num_keyfigures = 4;
      specs[t].num_filters = 4;
      specs[t].num_groups = 2;
      LoadSynthetic(&db, specs[t], 5000,
                    TableLayout::SingleStore(StoreType::kRow));
      // Random workload flavour per table: OLTP-ish or OLAP-ish.
      WorkloadOptions opts;
      opts.olap_fraction = rng.Chance(0.5) ? 0.02 : 0.3;
      opts.seed = k * 100 + t;
      SyntheticWorkloadGenerator gen(specs[t], 5000, opts);
      for (Query& q : gen.Generate(60)) {
        workload.push_back({std::move(q), 1.0});
      }
    }
    // Random 2-table join queries to couple assignments.
    for (size_t j = 0; j < k; ++j) {
      size_t a = rng.Index(k);
      size_t b = rng.Index(k);
      if (a == b) continue;
      AggregationQuery q;
      q.tables = {specs[a].name, specs[b].name};
      q.joins = {{0, specs[a].filter(0), 1, 0}};
      q.aggregates = {{AggFn::kSum, {specs[a].keyfigure(0), 0}}};
      workload.push_back({Query(q), 3.0});
    }

    TableAdvisor::Options exh_opts;
    exh_opts.exhaustive_limit = 20;
    TableAdvisor exhaustive(&model, &db.catalog(), exh_opts);
    TableAdvisor::Options hc_opts;
    hc_opts.exhaustive_limit = 0;
    TableAdvisor hillclimb(&model, &db.catalog(), hc_opts);

    Stopwatch sw1;
    TableAdvisorResult e = exhaustive.Recommend(workload);
    double exh_ms = sw1.ElapsedMs();
    Stopwatch sw2;
    TableAdvisorResult h = hillclimb.Recommend(workload);
    double hc_ms = sw2.ElapsedMs();
    double gap = (h.estimated_cost_ms - e.estimated_cost_ms) /
                 e.estimated_cost_ms;
    std::printf("%8zu %14.1f %14.1f %12zu %12zu %9.2f%%\n", k, exh_ms, hc_ms,
                e.evaluated_assignments, h.evaluated_assignments,
                100.0 * gap);
    std::fflush(stdout);
  }
}

// Recommendation quality vs. amount of recorded statistics — the paper's
// stated future work ("identify a preferably small set of statistics that
// still provides high quality recommendations", §7). The online recorder's
// reservoir sample is swept from 16 queries to the full stream; quality is
// the estimated cost of the resulting recommendation relative to the
// full-information recommendation.
void AblationSample(const CostModelParams& params) {
  bench::PrintBanner(
      "Ablation: recommendation quality vs. recorded statistics",
      "mixed workload (2% OLAP, hot updates); recorder sample size swept",
      "quality should saturate at a small sample (the paper's future-work "
      "hypothesis)");

  CostModel model(params);
  const SyntheticTableSpec spec = TableT();
  const size_t rows = bench::ScaledRows(2e6);
  const size_t stream_len = 4000;

  WorkloadOptions opts;
  opts.olap_fraction = 0.02;
  opts.hot_key_fraction = 0.1;
  opts.wide_update_probability = 0.3;
  opts.seed = 2024;
  const std::vector<Query> stream =
      SyntheticWorkloadGenerator(spec, rows, opts).Generate(stream_len);

  auto recommend_cost = [&](size_t sample_size) {
    Database db;
    LoadSynthetic(&db, spec, rows,
                  TableLayout::SingleStore(StoreType::kColumn));
    AdvisorOptions adv_opts;
    adv_opts.recorder_sample = sample_size;
    StorageAdvisor advisor(&db, adv_opts);
    advisor.SetCostModelParams(model.params());
    advisor.StartRecording();
    // The recorder sees the stream by executing it; execution also keeps
    // table statistics truthful under the inserts.
    RunWorkload(db, stream);
    Result<Recommendation> rec = advisor.RecommendOnline();
    HSDB_CHECK_MSG(rec.ok(), rec.status().ToString().c_str());
    // Judge the recommendation under the FULL workload model.
    WorkloadCostEstimator est(&model, &db.catalog());
    double cost =
        est.WorkloadCost(ToWeighted(stream), [&](const std::string& name) {
          auto it = rec->layouts.find(name);
          return it == rec->layouts.end()
                     ? LayoutContext::SingleStore(StoreType::kRow)
                     : it->second;
        });
    return std::make_pair(cost, rec->layouts.at("t").layout.ToString());
  };

  auto [full_cost, full_layout] = recommend_cost(stream_len);
  std::printf("full-information recommendation: %s (cost %.1f ms)\n",
              full_layout.c_str(), full_cost);
  bench::PrintRule();
  std::printf("%14s %16s %12s   %s\n", "sample size", "est. cost (ms)",
              "penalty", "chosen layout");
  // Sample size 0 = statistics-only mode: the advisor reconstructs the
  // workload from the extended counters alone (cheapest recording).
  for (size_t sample : {size_t{0}, size_t{16}, size_t{64}, size_t{256},
                        size_t{1024}, stream_len}) {
    auto [cost, layout] = recommend_cost(sample);
    std::printf("%14zu %16.1f %11.2f%%   %s\n", sample, cost,
                100.0 * (cost - full_cost) / full_cost, layout.c_str());
    std::fflush(stdout);
  }
}

struct Figure {
  const char* name;
  void (*run)(const CostModelParams&);
  bool calibrated;  // reads the calibrated cost model
};

// tools/check_docs_links.py reads the figure names from this table.
constexpr Figure kFigures[] = {
    {"fig6a", Fig6a, true},
    {"fig6b", Fig6b, true},
    {"fig7a", Fig7a, true},
    {"fig7b", Fig7b, true},
    {"fig8", Fig8, true},
    {"fig9", Fig9, true},
    {"fig10", Fig10, true},
    {"fig_encoding_budget", FigEncodingBudget, true},
    {"ablation_assignment", AblationAssignment, false},
    {"ablation_sample", AblationSample, true},
};

int Main(int argc, char** argv) {
  std::vector<const Figure*> selected;
  for (int i = 1; i < argc; ++i) {
    const Figure* figure = std::find_if(
        std::begin(kFigures), std::end(kFigures),
        [&](const Figure& f) { return std::strcmp(f.name, argv[i]) == 0; });
    if (figure == std::end(kFigures)) {
      std::fprintf(stderr, "unknown figure '%s'; figures:", argv[i]);
      for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(figure);
  }
  if (selected.empty()) {
    for (const Figure& f : kFigures) selected.push_back(&f);
  }
  const bool calibrate = std::any_of(
      selected.begin(), selected.end(),
      [](const Figure* figure) { return figure->calibrated; });
  const CostModelParams params =
      calibrate ? bench::CalibratedParams() : CostModelParams::Default();
  for (const Figure* figure : selected) figure->run(params);
  return 0;
}

}  // namespace
}  // namespace hsdb

int main(int argc, char** argv) { return hsdb::Main(argc, argv); }
