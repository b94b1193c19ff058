// End-to-end integration: the full advisor lifecycle (Fig. 5) on a small
// multi-table database — calibrate (injected), recommend offline, apply,
// serve the workload, record online, adapt — with data-integrity checks
// after every physical reorganization.
#include <gtest/gtest.h>

#include "core/advisor.h"
#include "tpch/workload.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace hsdb {
namespace {

TEST(IntegrationTest, FullAdvisorLifecycle) {
  SyntheticTableSpec orders;
  orders.name = "orders";
  SyntheticTableSpec archive;
  archive.name = "archive";

  Database db;
  ASSERT_TRUE(db.CreateTable("orders", orders.MakeSchema(),
                             TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  ASSERT_TRUE(db.CreateTable("archive", archive.MakeSchema(),
                             TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(
      PopulateSynthetic(db.catalog().GetTable("orders"), orders, 3000).ok());
  ASSERT_TRUE(
      PopulateSynthetic(db.catalog().GetTable("archive"), archive, 3000)
          .ok());
  db.catalog().UpdateAllStatistics();

  // Checksum helper: contents must survive every layout change.
  auto checksum = [&](const char* table, ColumnId col) {
    AggregationQuery q;
    q.tables = {table};
    q.aggregates = {{AggFn::kSum, {col, 0}}, {AggFn::kCount, {}}};
    auto r = db.Execute(Query(q));
    HSDB_CHECK(r.ok());
    return std::make_pair(r->aggregates[0], r->aggregates[1]);
  };
  auto orders_sum_before = checksum("orders", orders.keyfigure(0));
  auto archive_sum_before = checksum("archive", archive.keyfigure(0));

  // OLTP on orders, OLAP on archive.
  std::vector<Query> workload;
  {
    WorkloadOptions oltp;
    oltp.olap_fraction = 0.0;
    oltp.insert_weight = 0.0;  // keep checksums comparable
    oltp.update_weight = 0.5;
    oltp.point_select_weight = 0.5;
    SyntheticWorkloadGenerator gen(orders, 3000, oltp);
    for (Query& q : gen.Generate(200)) workload.push_back(std::move(q));
    WorkloadOptions olap;
    olap.olap_fraction = 1.0;
    SyntheticWorkloadGenerator agen(archive, 3000, olap);
    for (Query& q : agen.Generate(40)) workload.push_back(std::move(q));
  }

  StorageAdvisor advisor(&db);
  Result<Recommendation> rec = advisor.RecommendOffline(workload);
  ASSERT_TRUE(rec.ok());
  // Opposite workloads, opposite stores.
  EXPECT_EQ(rec->table_level_assignment.at("orders"), StoreType::kRow);
  EXPECT_EQ(rec->table_level_assignment.at("archive"), StoreType::kColumn);
  ASSERT_TRUE(advisor.Apply(*rec).ok());

  // Row counts preserved across the reorganizations.
  EXPECT_EQ(db.catalog().GetTable("orders")->row_count(), 3000u);
  EXPECT_EQ(db.catalog().GetTable("archive")->row_count(), 3000u);
  auto orders_sum_after = checksum("orders", orders.keyfigure(0));
  auto archive_sum_after = checksum("archive", archive.keyfigure(0));
  EXPECT_NEAR(orders_sum_after.first, orders_sum_before.first, 1e-3);
  EXPECT_DOUBLE_EQ(orders_sum_after.second, orders_sum_before.second);
  EXPECT_NEAR(archive_sum_after.first, archive_sum_before.first, 1e-3);
  EXPECT_DOUBLE_EQ(archive_sum_after.second, archive_sum_before.second);

  // Serve the workload on the new layout; everything must execute.
  WorkloadRunResult run = RunWorkload(db, workload);
  EXPECT_EQ(run.failed, 0u);

  // Online adaptation after a drift: orders becomes analytic.
  advisor.StartRecording();
  {
    WorkloadOptions olap;
    olap.olap_fraction = 1.0;
    SyntheticWorkloadGenerator gen(orders, 3000, olap);
    RunWorkload(db, gen.Generate(50));
  }
  Result<Recommendation> adaptation = advisor.RecommendOnline();
  ASSERT_TRUE(adaptation.ok());
  EXPECT_EQ(adaptation->table_level_assignment.at("orders"),
            StoreType::kColumn);
  ASSERT_TRUE(advisor.Apply(*adaptation).ok());
  EXPECT_EQ(db.catalog().GetTable("orders")->layout().base_store,
            StoreType::kColumn);
  advisor.StopRecording();
}

TEST(IntegrationTest, TpchAdvisorRoundTrip) {
  Database db;
  tpch::DbgenOptions opts;
  opts.scale_factor = 0.002;
  ASSERT_TRUE(tpch::LoadTpch(db, opts).ok());

  tpch::TpchWorkloadOptions wl;
  wl.olap_fraction = 0.05;
  tpch::TpchWorkloadGenerator gen(db, wl);
  std::vector<Query> workload = gen.Generate(400);

  StorageAdvisor advisor(&db);
  Result<Recommendation> rec = advisor.RecommendOffline(workload);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->table_level_cost_ms, rec->rs_only_cost_ms + 1e-9);
  EXPECT_LE(rec->table_level_cost_ms, rec->cs_only_cost_ms + 1e-9);
  EXPECT_LE(rec->estimated_cost_ms, rec->table_level_cost_ms + 1e-9);
  ASSERT_TRUE(advisor.Apply(*rec).ok());

  // The workload still executes cleanly on the recommended layout.
  WorkloadRunResult run = RunWorkload(db, workload);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_EQ(run.queries, workload.size());
}

TEST(IntegrationTest, RepeatedReorganizationsAreStable) {
  SyntheticTableSpec spec;
  spec.name = "t";
  Database db;
  ASSERT_TRUE(db.CreateTable("t", spec.MakeSchema(),
                             TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  ASSERT_TRUE(
      PopulateSynthetic(db.catalog().GetTable("t"), spec, 1000).ok());
  db.catalog().UpdateAllStatistics();

  // Cycle through all layout shapes twice; contents must be identical.
  TableLayout h;
  h.base_store = StoreType::kColumn;
  h.horizontal = HorizontalSpec{0, 800.0, StoreType::kRow};
  TableLayout v;
  v.base_store = StoreType::kColumn;
  v.vertical = VerticalSpec{{spec.filter(0), spec.filter(1)}};
  TableLayout hv = h;
  hv.vertical = v.vertical;
  std::vector<TableLayout> cycle = {
      TableLayout::SingleStore(StoreType::kColumn), h, v, hv,
      TableLayout::SingleStore(StoreType::kRow)};
  for (int round = 0; round < 2; ++round) {
    for (const TableLayout& layout : cycle) {
      ASSERT_TRUE(db.MigrateShadow("t", layout).ok()) << layout.ToString();
      LogicalTable* t = db.catalog().GetTable("t");
      ASSERT_EQ(t->row_count(), 1000u) << layout.ToString();
      auto row = t->GetByPk(PrimaryKey::Of(Value(int64_t{500})));
      ASSERT_TRUE(row.ok()) << layout.ToString();
      Row expected = SyntheticRow(spec, 500);
      for (ColumnId c = 0; c < expected.size(); ++c) {
        ASSERT_TRUE((*row)[c] == expected[c])
            << layout.ToString() << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace hsdb
