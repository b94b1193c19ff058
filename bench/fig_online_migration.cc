// Does a layout migration block queries? One synthetic table under a mixed
// point-select / range-aggregate / insert / update client, measured in
// two regimes:
//   idle       no migration running — the latency floor,
//   shadow     Database::MigrateShadow flips the base store column<->row on
//              a background thread (the engine's one layout-change path).
// Expected shape: the shadow regime's statement p95 stays within a small
// factor of idle, because concurrent statements only ever wait for the
// cut-over window — whose length is bounded by the replay tail, not by
// table size. The run exits nonzero when the shadow p95 blows past the
// idle floor, when any cut-over window exceeds an absolute bound, or when
// any flip failed (docs/CONCURRENCY.md section 4).
//
// --json PATH writes the idle/shadow p95s and the mean background build
// time in google-benchmark JSON format for CI's perf gate
// (bench/check_regression.py).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "executor/database.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

// Shadow p95 may exceed idle p95 by this factor (or the absolute floor,
// whichever is larger — sub-millisecond idle floors make a pure ratio
// hypersensitive to scheduler noise on shared CI runners).
constexpr double kP95Factor = 8.0;
constexpr double kP95FloorMs = 5.0;
// Every observed cut-over window must stay under this, regardless of table
// size: the window covers the replay tail and the pointer swap only.
constexpr double kCutoverBoundMs = 50.0;

struct Timing {
  std::string name;
  double ms = 0.0;
};

/// Minimal google-benchmark-format JSON (see fig_joint_budget.cc).
void WriteJson(const std::string& path, const std::vector<Timing>& timings) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n \"context\": {\"executable\": \"fig_online_migration\"},\n"
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

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(p * (samples.size() - 1));
  return samples[idx];
}

/// One client statement from the fixed mix: 35% point select, 20% range
/// aggregate, 25% insert, 20% point update. The DML share is what feels the
/// cut-over window — readers are never latched.
Query MakeStatement(const SyntheticTableSpec& spec, size_t base_rows,
                    Rng* rng, std::atomic<int64_t>* next_id) {
  const int roll = static_cast<int>(rng->UniformInt(0, 99));
  if (roll < 35) {
    SelectQuery q;
    q.table = spec.name;
    q.select_columns = {0, spec.keyfigure(0)};
    int64_t id = rng->UniformInt(0, static_cast<int64_t>(base_rows) - 1);
    q.predicate = {{{0, 0}, ValueRange::Between(Value(id), Value(id))}};
    return q;
  }
  if (roll < 55) {
    AggregationQuery q;
    q.tables = {spec.name};
    q.aggregates = {{AggFn::kCount, {}}, {AggFn::kSum, {spec.keyfigure(0), 0}}};
    q.predicate = {{{spec.filter(0), 0},
                    ValueRange::Between(
                        Value(static_cast<int32_t>(rng->UniformInt(0, 400))),
                        Value(static_cast<int32_t>(700)))}};
    return q;
  }
  if (roll < 80) {
    InsertQuery q;
    q.table = spec.name;
    q.row = SyntheticRow(spec, next_id->fetch_add(1));
    return q;
  }
  UpdateQuery q;
  q.table = spec.name;
  int64_t id = rng->UniformInt(0, static_cast<int64_t>(base_rows) - 1);
  q.predicate = {{{0, 0}, ValueRange::Between(Value(id), Value(id))}};
  q.set_columns = {spec.keyfigure(0)};
  q.set_values = {Value(rng->UniformDouble(0.0, spec.keyfigure_max))};
  return q;
}

struct PhaseResult {
  std::vector<double> latencies_ms;
  int errors = 0;
};

/// Runs the client mix until `stop` flips (minimum kMinStatements), one
/// latency sample per statement.
PhaseResult RunClient(Database* db, const SyntheticTableSpec& spec,
                      size_t base_rows, std::atomic<int64_t>* next_id,
                      const std::atomic<bool>* stop, size_t min_statements,
                      uint64_t seed) {
  PhaseResult out;
  Rng rng(seed);
  while (!stop->load(std::memory_order_acquire) ||
         out.latencies_ms.size() < min_statements) {
    Query q = MakeStatement(spec, base_rows, &rng, next_id);
    Stopwatch sw;
    Result<QueryResult> res = db->Execute(q);
    out.latencies_ms.push_back(sw.ElapsedMs());
    if (!res.ok()) ++out.errors;
  }
  return out;
}

struct MigrationTotals {
  int flips = 0;
  int failures = 0;       // errored or no-op flips
  double cutover_max_ms = 0.0;
  double build_sum_ms = 0.0;
  uint64_t replayed_ops = 0;
};

void Run(const std::string& json_path) {
  const size_t rows = bench::ScaledRows(1e6, 20'000);
  const size_t kMinStatements = 400;
  const int kFlips = 6;

  SyntheticTableSpec spec;
  spec.name = "t";
  spec.num_keyfigures = 4;
  spec.num_filters = 4;
  spec.num_groups = 2;

  bench::PrintBanner(
      "online migration (non-blocking shadow rebuilds)",
      "mixed select/aggregate/insert/update client vs. background "
      "column<->row flips of the same table: MigrateShadow (shadow copy + "
      "op-log replay + epoch swap)",
      "statement p95 while migrating stays near idle; every cut-over "
      "window is bounded and table-size independent");

  Database::Options options;
  options.migration_chunk_rows = 4096;  // many reader-lock handoffs
  Database db(options);
  HSDB_CHECK(db.CreateTable(spec.name, spec.MakeSchema(),
                            TableLayout::SingleStore(StoreType::kRow))
                 .ok());
  HSDB_CHECK(
      PopulateSynthetic(db.catalog().GetTable(spec.name), spec, rows).ok());
  db.catalog().UpdateAllStatistics();
  std::atomic<int64_t> next_id{static_cast<int64_t>(rows)};

  // Warm-up: fault in both code paths before any timer starts.
  {
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
      (void)db.Execute(MakeStatement(spec, rows, &rng, &next_id));
    }
  }

  // --- Regime 1: idle -----------------------------------------------------
  std::atomic<bool> stop_never{true};  // already "stopped": run the minimum
  PhaseResult idle =
      RunClient(&db, spec, rows, &next_id, &stop_never, kMinStatements, 11);

  // --- Regime 2: shadow migration in the background -----------------------
  MigrationTotals shadow;
  std::atomic<bool> shadow_done{false};
  std::thread shadow_thread([&] {
    for (int i = 0; i < kFlips; ++i) {
      const StoreType next = i % 2 == 0 ? StoreType::kColumn : StoreType::kRow;
      Result<ShadowMigrationStats> m =
          db.MigrateShadow(spec.name, TableLayout::SingleStore(next));
      ++shadow.flips;
      if (!m.ok() || !m.value().rematerialized) {
        ++shadow.failures;
        continue;
      }
      shadow.cutover_max_ms =
          std::max(shadow.cutover_max_ms, m.value().cutover_ms);
      shadow.build_sum_ms += m.value().build_ms;
      shadow.replayed_ops += m.value().replayed_ops;
    }
    shadow_done.store(true, std::memory_order_release);
  });
  PhaseResult migrating =
      RunClient(&db, spec, rows, &next_id, &shadow_done, kMinStatements, 13);
  shadow_thread.join();

  const double p95_idle = Percentile(idle.latencies_ms, 0.95);
  const double p95_shadow = Percentile(migrating.latencies_ms, 0.95);
  const double max_idle = Percentile(idle.latencies_ms, 1.0);
  const double max_shadow = Percentile(migrating.latencies_ms, 1.0);
  const double build_mean_ms =
      shadow.flips > shadow.failures
          ? shadow.build_sum_ms / (shadow.flips - shadow.failures)
          : 0.0;

  std::printf("%zu rows, %d flips in the shadow regime, mix 55%% read / "
              "45%% DML\n\n",
              rows, kFlips);
  std::printf("%-10s %10s %10s %10s %8s\n", "regime", "stmts", "p95 ms",
              "max ms", "errors");
  bench::PrintRule();
  std::printf("%-10s %10zu %10.3f %10.3f %8d\n", "idle",
              idle.latencies_ms.size(), p95_idle, max_idle, idle.errors);
  std::printf("%-10s %10zu %10.3f %10.3f %8d\n", "shadow",
              migrating.latencies_ms.size(), p95_shadow, max_shadow,
              migrating.errors);
  bench::PrintRule();
  std::printf(
      "shadow flips: %d (%d failed)  build mean %.2f ms  cut-over max "
      "%.3f ms  replayed ops %llu\n",
      shadow.flips, shadow.failures, build_mean_ms, shadow.cutover_max_ms,
      static_cast<unsigned long long>(shadow.replayed_ops));

  // Self-gates: the properties this figure exists to demonstrate.
  bool ok = true;
  const double p95_bound = std::max(kP95Factor * p95_idle, kP95FloorMs);
  if (idle.errors + migrating.errors > 0) {
    std::printf("FAIL: statements errored\n");
    ok = false;
  }
  if (shadow.failures > 0) {
    std::printf("FAIL: %d shadow flip(s) errored or did not rebuild\n",
                shadow.failures);
    ok = false;
  }
  if (p95_shadow > p95_bound) {
    std::printf("FAIL: migrating p95 %.3f ms exceeds bound %.3f ms "
                "(max(%.0fx idle, %.0f ms))\n",
                p95_shadow, p95_bound, kP95Factor, kP95FloorMs);
    ok = false;
  }
  if (shadow.cutover_max_ms > kCutoverBoundMs) {
    std::printf("FAIL: cut-over window %.3f ms exceeds %.0f ms bound\n",
                shadow.cutover_max_ms, kCutoverBoundMs);
    ok = false;
  }
  if (ok) {
    std::printf("PASS: migrating p95 %.3f <= %.3f ms; cut-over max %.3f <= "
                "%.0f ms; all %d flips rebuilt\n",
                p95_shadow, p95_bound, shadow.cutover_max_ms, kCutoverBoundMs,
                shadow.flips);
  }

  if (!json_path.empty()) {
    WriteJson(json_path,
              {{"fig_online_migration/query_p95_idle_ms", p95_idle},
               {"fig_online_migration/query_p95_migrating_ms", p95_shadow},
               {"fig_online_migration/shadow_build_ms", build_mean_ms}});
  }
  if (!ok) std::exit(1);
}

}  // namespace
}  // namespace hsdb

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 1;
    }
  }
  hsdb::Run(json_path);
  return 0;
}
