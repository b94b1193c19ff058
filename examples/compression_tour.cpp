// Compression tour: what the compressed column-store subsystem does to a
// realistic table — which codec the EncodingPicker chooses per column, what
// each codec saves, how fast encoded predicate scans run, and how the
// advisor searches per-column encodings (optionally under a memory budget)
// and reports them in its DDL.
//
//   $ ./build/example_compression_tour
//   $ ./build/example_compression_tour --budget=0.5    # 50% of the
//     unconstrained encoded footprint; values > 1 are absolute bytes
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/advisor.h"
#include "storage/compression/encoded_segment.h"

using namespace hsdb;

int main(int argc, char** argv) {
  // --budget=<fraction-or-bytes>: memory budget for the encoding search.
  std::optional<double> budget_arg;
  for (int i = 1; i < argc; ++i) {
    bool ok = false;
    if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      char* end = nullptr;
      double value = std::strtod(argv[i] + 9, &end);
      if (end != argv[i] + 9 && *end == '\0' && value > 0.0) {
        budget_arg = value;
        ok = true;
      }
    }
    if (!ok) {
      std::fprintf(stderr, "usage: %s [--budget=<fraction-or-bytes>]\n",
                   argv[0]);
      return 1;
    }
  }
  // 1. A sales-fact-shaped table: dense ids, a run-structured date column
  // (loaded in date order), a low-cardinality status column and a
  // high-cardinality measure.
  Schema schema = Schema::CreateOrDie({{"id", DataType::kInt64},
                                       {"order_date", DataType::kDate},
                                       {"status", DataType::kVarchar},
                                       {"amount", DataType::kDouble}},
                                      /*primary_key=*/{0});
  Database db;
  HSDB_CHECK(db.CreateTable("fact", schema,
                            TableLayout::SingleStore(StoreType::kColumn))
                 .ok());
  const char* statuses[] = {"OPEN", "PAID", "SHIPPED"};
  Rng rng(7);
  constexpr int64_t kRows = 120'000;
  for (int64_t i = 0; i < kRows; ++i) {
    InsertQuery insert{"fact",
                       {i, Date{int32_t(i / 400)},  // ~300 rows per day
                        std::string(statuses[rng.Index(3)]),
                        rng.UniformDouble(1.0, 500.0)}};
    HSDB_CHECK(db.Execute(Query(insert)).ok());
  }
  LogicalTable* fact = db.catalog().GetTable("fact");
  fact->ForceMerge();

  // 2. Per-column codec choices and compression rates.
  const auto& ct = static_cast<const ColumnTable&>(
      *fact->groups()[0].fragments[0].table);
  std::printf("per-column encodings after merge:\n");
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    std::printf("  %-10s -> %-10s (compression rate %.3f, %zu distinct)\n",
                schema.column(c).name.c_str(),
                EncodingName(ct.ColumnEncoding(c)).data(),
                ct.CompressionRate(c), ct.DictionarySize(c));
  }

  // 3. Predicate scan on encoded data vs. a raw segment: one day of orders.
  ValueRange one_day = ValueRange::Eq(Value(Date{150}));
  Stopwatch sw;
  Bitmap encoded = ct.live_bitmap();
  ct.FilterRangeSlice(1, one_day, 0, ct.slot_count(), &encoded);
  double encoded_ms = sw.ElapsedMs();

  ColumnTable::Options raw_opts;
  raw_opts.auto_merge = false;
  raw_opts.encoding.force = Encoding::kRaw;
  auto raw_table = ColumnTable::Create(schema, raw_opts);
  fact->ForEachRow([&](const Row& row) {
    raw_table->Insert(Row(row));
  });
  raw_table->MergeDelta();
  sw.Restart();
  Bitmap raw_bm = raw_table->live_bitmap();
  raw_table->FilterRangeSlice(1, one_day, 0, raw_table->slot_count(),
                              &raw_bm);
  double raw_ms = sw.ElapsedMs();
  std::printf(
      "\npredicate scan (order_date = day 150, %zu matches):\n"
      "  encoded (%s run skipping): %.3f ms\n"
      "  raw segment:               %.3f ms  (%.1fx slower)\n",
      encoded.Count(), EncodingName(ct.ColumnEncoding(1)).data(), encoded_ms,
      raw_ms, raw_ms / encoded_ms);

  // 4. The advisor reports the chosen encodings in its DDL. Start the same
  // data in the row store and let an OLAP workload pull it to the CS.
  Database rs_db;
  HSDB_CHECK(rs_db.CreateTable("fact", schema,
                               TableLayout::SingleStore(StoreType::kRow))
                 .ok());
  fact->ForEachRow([&](const Row& row) {
    HSDB_CHECK(
        rs_db.Execute(Query(InsertQuery{"fact", Row(row)})).ok());
  });
  AggregationQuery olap;
  olap.tables = {"fact"};
  olap.aggregates = {{AggFn::kSum, {3, 0}}};
  olap.group_by = {{2, 0}};
  std::vector<Query> workload(50, Query(olap));
  StorageAdvisor advisor(&rs_db);
  Result<Recommendation> rec = advisor.RecommendOffline(workload);
  HSDB_CHECK(rec.ok());
  std::printf("\nadvisor recommendation:\n%s", rec->Summary().c_str());

  // 5. The same recommendation under a memory budget: the encoding search
  // trades scan-fast codecs back into small ones until the encoded
  // footprint fits. --budget=0.5 means half the unconstrained footprint.
  if (budget_arg.has_value()) {
    double budget_bytes = *budget_arg > 1.0
                              ? *budget_arg
                              : *budget_arg * rec->encoding_footprint_bytes;
    AdvisorOptions budgeted_options;
    budgeted_options.encoding.memory_budget_bytes = budget_bytes;
    StorageAdvisor budgeted(&rs_db, budgeted_options);
    Result<Recommendation> constrained = budgeted.RecommendOffline(workload);
    HSDB_CHECK(constrained.ok());
    std::printf("\nwith MEMORY_BUDGET %.0f bytes:\n%s", budget_bytes,
                constrained->Summary().c_str());
  }
  return 0;
}
