// Shared scans: how much does co-running a batch of analytic queries save
// over executing them one at a time? Sixteen single-table aggregations
// with distinct range predicates over a dictionary-encoded column run
// (a) serially through Database::Execute and (b) as one
// BatchExecutor::ExecuteBatch — the serving path's shared-scan group,
// where one MultiFilterRangeSlice decode pass per predicate column fans
// out to all sixteen selection bitmaps.
//
// The predicate column is the int64 primary key: at this row count its
// dictionary is far wider than 16 bits, so the decode goes through the
// SIMD gather kernel — the regime where per-query decode dominates and
// sharing pays the most. Expected shape: batched wall time well under
// serial/3; the paper's shared-scan motivation (many clients, same hot
// table) in one number.
//
// Self-gating: exits nonzero when the measured speedup drops below
// kMinSpeedup — a regression in the shared path (group formation falling
// back to per-statement execution, or the multi-filter kernel losing its
// fan-out advantage) fails CI even before the baseline comparison runs.
//
// --json PATH writes serial/batched wall times and the speedup in
// google-benchmark JSON format for CI's perf gate
// (bench/check_regression.py).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "executor/batch_executor.h"
#include "executor/database.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

constexpr int kBatchWidth = 16;
constexpr int kReps = 5;
// The acceptance bar: sharing sixteen scans must beat sixteen serial
// scans by at least this factor.
constexpr double kMinSpeedup = 3.0;

struct Timing {
  std::string name;
  double ms = 0.0;
};

/// Minimal google-benchmark-format JSON (see fig_online_migration.cc).
void WriteJson(const std::string& path, const std::vector<Timing>& timings) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n \"context\": {\"executable\": \"fig_shared_scans\"},\n"
               " \"benchmarks\": [\n");
  for (size_t i = 0; i < timings.size(); ++i) {
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"run_name\": \"%s\", "
                 "\"run_type\": \"iteration\", \"iterations\": 1, "
                 "\"real_time\": %.6f, \"cpu_time\": %.6f, "
                 "\"time_unit\": \"ms\"}%s\n",
                 timings[i].name.c_str(), timings[i].name.c_str(),
                 timings[i].ms, timings[i].ms,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(f, " ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

/// Sixteen aggregations, each counting a different primary-key range —
/// the decode of the (wide-dictionary) id column is the shared work.
std::vector<Query> MakeBatch(const SyntheticTableSpec& spec, size_t rows) {
  (void)spec;
  std::vector<Query> queries;
  for (int i = 0; i < kBatchWidth; ++i) {
    AggregationQuery agg;
    agg.tables = {"sales"};
    agg.aggregates = {{AggFn::kCount, {}}};
    // Staggered, overlapping windows: distinct predicates, shared column.
    int64_t lo = static_cast<int64_t>(rows) * i / (2 * kBatchWidth);
    int64_t hi = lo + static_cast<int64_t>(rows) / 2;
    agg.predicate = {{{0, 0}, ValueRange::Between(Value(lo), Value(hi))}};
    queries.push_back(Query(agg));
  }
  return queries;
}

int Run(const char* json_path) {
  // >65536 distinct keys: the id dictionary needs >16 bits per code, which
  // is the SIMD gather regime of the multi-filter kernel.
  const size_t rows = bench::ScaledRows(10e6, 200'000);
  bench::PrintBanner(
      "shared scans (serving-side batch execution)",
      "1 column table, " + std::to_string(rows) + " rows, " +
          std::to_string(kBatchWidth) + " range-count queries",
      "batched decode amortizes: >=" + std::to_string(int(kMinSpeedup)) +
          "x over serial one-at-a-time");

  SyntheticTableSpec spec;
  spec.name = "sales";
  spec.num_keyfigures = 2;
  spec.num_filters = 2;
  spec.num_groups = 2;
  Database db;
  if (!db.CreateTable("sales", spec.MakeSchema(),
                      TableLayout::SingleStore(StoreType::kColumn))
           .ok() ||
      !PopulateSynthetic(db.catalog().GetTable("sales"), spec, rows).ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  // Pin the dictionary codec everywhere: the predicate column (id) must be
  // dictionary-encoded for the gather path, not left to the advisor.
  std::vector<Encoding> encodings(spec.num_columns(), Encoding::kDictionary);
  if (!db.MigrateShadow("sales", TableLayout::SingleStore(StoreType::kColumn),
                        encodings)
           .ok()) {
    std::fprintf(stderr, "MigrateShadow failed\n");
    return 1;
  }
  db.catalog().UpdateAllStatistics();

  const std::vector<Query> batch = MakeBatch(spec, rows);
  BatchExecutor batcher(&db);

  // Warm-up: fault in the segments, prime both paths once.
  for (const Query& q : batch) (void)db.Execute(q);
  (void)batcher.ExecuteBatch(batch);

  double serial_ms = 1e300;
  double batched_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch sw;
    for (const Query& q : batch) {
      Result<QueryResult> r = db.Execute(q);
      if (!r.ok()) {
        std::fprintf(stderr, "serial execute failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    serial_ms = std::min(serial_ms, sw.ElapsedMs());

    sw.Restart();
    std::vector<Result<QueryResult>> results = batcher.ExecuteBatch(batch);
    batched_ms = std::min(batched_ms, sw.ElapsedMs());
    for (const Result<QueryResult>& r : results) {
      if (!r.ok()) {
        std::fprintf(stderr, "batched execute failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
  }

  const double speedup = serial_ms / batched_ms;
  bench::PrintRule();
  std::printf("%-28s %10s\n", "path", "wall ms");
  bench::PrintRule();
  std::printf("%-28s %10.3f\n", "serial x16", serial_ms);
  std::printf("%-28s %10.3f\n", "shared batch x16", batched_ms);
  bench::PrintRule();
  std::printf("speedup: %.2fx (gate: >=%.1fx)\n", speedup, kMinSpeedup);

  if (json_path != nullptr) {
    WriteJson(json_path, {{"shared_scans/serial_x16", serial_ms},
                          {"shared_scans/batched_x16", batched_ms}});
  }

  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: shared-scan speedup %.2fx below the %.1fx gate\n",
                 speedup, kMinSpeedup);
    return 1;
  }
  std::printf("OK: shared-scan batch execution amortizes the decode\n");
  return 0;
}

}  // namespace
}  // namespace hsdb

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  return hsdb::Run(json_path);
}
