// The paper's advise -> migrate -> replay loop, in-process and
// single-threaded. TPC-H is loaded with every table in the row store, the
// advisor recommends a design for the CH-style stream at the paper's
// nominal 1% OLAP, the online MigrationExecutor moves the tables, and the
// same stream is replayed through Database::Execute on the new design.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/stopwatch.h"
#include "core/advisor.h"
#include "engine_probe.h"
#include "online/migration.h"
#include "requests.h"
#include "tpch/workload.h"
#include "workloads.h"

namespace perfbench {

using hsdb::Database;
using hsdb::Query;
using hsdb::QueryResult;
using hsdb::Result;
namespace telemetry = hsdb::telemetry;

namespace {

/// TPC-H scale of the loop. The recorded advisor DDL below is the
/// expectation at this scale, so --scale does not change it.
constexpr double kLoopScale = 0.02;
/// Scan parallelism of the loop's database: its executor stays serial.
constexpr int kLoopDop = 1;
/// Statements per stream chunk; the first chunk is the advised workload.
constexpr size_t kChunkStatements = 10000;
/// Replayed chunks per loop; every run replays the same statements.
constexpr size_t kChunks = 3;
/// Largest gap tolerated between a statement's summed span self times and
/// its measured time (the root span opens just before the stopwatch), for
/// all but kSelfCheckOutliers of the statements: a preemption between the
/// two can widen one statement's gap, while spans that overlap or leak
/// widen every gap of their statement kind.
constexpr double kSelfCheckToleranceMs = 0.05;
constexpr double kSelfCheckOutliers = 0.001;

/// The design the advisor recommends under CostModelParams::Default() for
/// this stream, one DDL statement per changed table (sorted). A run whose
/// recommendation differs fails: the replay would measure another design.
const std::vector<std::string>& ExpectedDdl() {
  static const std::vector<std::string> kDdl = {
      "ALTER TABLE lineitem STORE COLUMN ENCODING (l_orderkey RLE, "
      "l_linenumber RAW, l_partkey RAW, l_suppkey RAW, l_quantity DICTIONARY, "
      "l_extendedprice DICTIONARY, l_discount DICTIONARY, l_tax RAW, "
      "l_returnflag RLE, l_linestatus RAW, l_shipdate FOR, l_commitdate RAW, "
      "l_receiptdate RAW, l_shipinstruct RAW, l_shipmode RAW, l_comment "
      "RAW);"};
  return kDdl;
}

/// What a traced loop additionally reads out of the engine.
struct TracedReadout {
  std::map<std::string, double> execute_ms;  // by query kind
  std::map<std::string, double> self_ms;     // by span name
  /// |sum of span self times - elapsed| of every traced statement.
  std::vector<double> self_check_err_ms;
  double predict_us = 0;
  double estimated_cost_ms = 0;
  double pin_age_max_ms = 0;
  uint64_t migration_steps = 0;
  double step_ms_mean = 0, swap_ms_max = 0;
};

bool IsSingleColumnPkPoint(const Database& db, const hsdb::Predicate& pred,
                           const std::string& table) {
  const hsdb::LogicalTable* t = db.catalog().GetTable(table);
  if (t == nullptr) return false;
  const auto& pk = t->schema().primary_key();
  return pk.size() == 1 && hsdb::IsPointPredicateOn(pred, pk[0]);
}

/// The CH-style stream at the paper's nominal 1% OLAP: the generator's
/// OLTP stream with one OLAP statement after every 99 OLTP statements,
/// rotating through the generator's OLAP builders in its own 3:2:1:1:1
/// mix. The seed varies parameters and the OLTP stream; the OLAP
/// composition is fixed, because a Bernoulli draw of ~100 OLAP statements
/// moved replay time by ~10% from seed to seed. Successive chunks continue
/// one generator, so inserts keep using fresh keys.
class StreamMaker {
 public:
  StreamMaker(const Database& db, uint64_t seed)
      : gen_(db, [seed] {
          hsdb::tpch::TpchWorkloadOptions options;
          options.olap_fraction = 0.0;
          options.seed = seed;
          return options;
        }()) {}

  std::vector<Query> Next() {
    const std::vector<Query> oltp =
        gen_.Generate(kChunkStatements * 99 / 100);
    using G = hsdb::tpch::TpchWorkloadGenerator;
    static constexpr Query (G::*kRotation[])() = {
        &G::PricingSummary, &G::OrderPriorityRevenue, &G::PricingSummary,
        &G::SegmentRevenue, &G::PricingSummary,       &G::OrderTotals,
        &G::OrderPriorityRevenue, &G::BrandPrices};
    std::vector<Query> chunk;
    chunk.reserve(oltp.size() + oltp.size() / 99 + 1);
    for (size_t i = 0; i < oltp.size(); ++i) {
      chunk.push_back(oltp[i]);
      if (i % 99 == 98) {
        chunk.push_back((gen_.*kRotation[next_olap_++ % std::size(kRotation)])());
      }
    }
    return chunk;
  }

 private:
  hsdb::tpch::TpchWorkloadGenerator gen_;
  size_t next_olap_ = 0;
};

/// Checks one replayed statement's result; returns the problem or "".
std::string CheckResult(const Database& db, const Query& q,
                        const QueryResult& r) {
  switch (hsdb::KindOf(q)) {
    case hsdb::QueryKind::kAggregation:
      return r.rows.empty() && r.aggregates.empty() ? "empty aggregation" : "";
    case hsdb::QueryKind::kSelect: {
      const auto& s = std::get<hsdb::SelectQuery>(q);
      const hsdb::Value& key = *s.predicate.front().range.lo;
      if (r.rows.size() == 1 && !r.rows[0].empty() && r.rows[0][0] == key) {
        return "";
      }
      return "point select on " + s.table + " did not return key " +
             key.ToString();
    }
    case hsdb::QueryKind::kInsert:
      return r.affected_rows == 1 ? "" : "insert did not write 1 row";
    case hsdb::QueryKind::kUpdate: {
      const auto& u = std::get<hsdb::UpdateQuery>(q);
      const bool single = IsSingleColumnPkPoint(db, u.predicate, u.table);
      if (single ? r.affected_rows == 1 : r.affected_rows >= 1) return "";
      return "update on " + u.table + " wrote " +
             std::to_string(r.affected_rows) + " rows";
    }
    case hsdb::QueryKind::kDelete:
      return "";
  }
  return "";
}

/// Self time of every span of `span`'s subtree, accumulated by name;
/// returns the subtree's total self time.
double AccumulateSelf(const telemetry::TraceSpan& span,
                      std::map<std::string, double>* self_ms) {
  double children = 0, total_self = 0;
  for (const telemetry::TraceSpan& child : span.children) {
    children += child.elapsed_ms;
    total_self += AccumulateSelf(child, self_ms);
  }
  const double self = std::max(0.0, span.elapsed_ms - children);
  (*self_ms)[span.name] += self;
  return total_self + self;
}

/// Row counts of every table (the migration must preserve them).
std::map<std::string, size_t> RowCounts(Database& db) {
  std::map<std::string, size_t> counts;
  const std::vector<std::string> names = db.catalog().TableNames();
  hsdb::CatalogReadLock lock(db.catalog(), names);
  for (const std::string& name : names) {
    counts[name] = db.catalog().GetTable(name)->row_count();
  }
  return counts;
}

/// Sorted DDL of the recommendation.
std::vector<std::string> SortedDdl(const hsdb::Recommendation& rec) {
  std::vector<std::string> ddl = rec.ddl;
  std::sort(ddl.begin(), ddl.end());
  return ddl;
}

/// Aggregation answers equal up to floating-point summation order (the
/// row and column stores accumulate in different orders).
bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  const auto close = [](double x, double y) {
    return std::abs(x - y) <= 1e-9 * std::max(1.0, std::abs(x));
  };
  if (a.aggregates.size() != b.aggregates.size() ||
      a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t i = 0; i < a.aggregates.size(); ++i) {
    if (!close(a.aggregates[i], b.aggregates[i])) return false;
  }
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].size() != b.rows[i].size()) return false;
    for (size_t j = 0; j < a.rows[i].size(); ++j) {
      const hsdb::Value& x = a.rows[i][j];
      const hsdb::Value& y = b.rows[i][j];
      if (x.type() == hsdb::DataType::kDouble &&
          y.type() == hsdb::DataType::kDouble) {
        if (!close(x.as_double(), y.as_double())) return false;
      } else if (!(x == y)) {
        return false;
      }
    }
  }
  return true;
}

/// One loaded database and its stream, ready for the advisor.
struct AdviseEnv {
  telemetry::MetricsRegistry registry;
  std::unique_ptr<Database> db;
  std::unique_ptr<StreamMaker> stream;
  /// The first chunk: what the advisor is asked about.
  std::vector<Query> advised;
  /// Deletes of every row the stream can insert.
  std::vector<Query> trim;
  double generate_ms = 0;
};

/// Loads TPC-H (every table in the row store) and generates the stream.
Result<std::unique_ptr<AdviseEnv>> BuildAdviseEnv(uint64_t seed) {
  auto env = std::make_unique<AdviseEnv>();
  env->registry.set_enabled(false);
  Database::Options options;
  options.num_threads = kLoopDop;
  options.metrics = &env->registry;
  env->db = std::make_unique<Database>(options);
  hsdb::tpch::DbgenOptions dbgen;
  dbgen.scale_factor = kLoopScale;
  dbgen.seed = seed;
  dbgen.default_layout = hsdb::TableLayout::SingleStore(hsdb::StoreType::kRow);
  HSDB_RETURN_IF_ERROR(hsdb::tpch::LoadTpch(*env->db, dbgen).status());
  // The tuned row-store deployment of the paper's Fig. 10: sorted indexes
  // on the keys of the stream's non-point updates.
  HSDB_RETURN_IF_ERROR(env->db->catalog().GetTable("lineitem")->CreateSortedIndex(
      hsdb::tpch::col::kLOrderKey));
  HSDB_RETURN_IF_ERROR(env->db->catalog().GetTable("partsupp")->CreateSortedIndex(
      hsdb::tpch::col::kPsPartKey));
  hsdb::Stopwatch sw;
  namespace col = hsdb::tpch::col;
  for (const auto& [table, key] :
       {std::pair{"lineitem", col::kLOrderKey}, {"orders", col::kOrderKey},
        {"customer", col::kCustKey}, {"supplier", col::kSuppKey},
        {"part", col::kPartKey}}) {
    // lineitem's fresh rows belong to fresh orders.
    const std::string base = table == std::string("lineitem") ? "orders" : table;
    hsdb::DeleteQuery del;
    del.table = table;
    del.predicate = {{{key, 0},
                      hsdb::ValueRange::AtLeast(hsdb::Value(static_cast<int64_t>(
                          hsdb::tpch::BaseRows(base, kLoopScale))))}};
    env->trim.push_back(std::move(del));
  }
  env->stream = std::make_unique<StreamMaker>(*env->db, seed * 31 + 7);
  env->advised = env->stream->Next();
  env->generate_ms = sw.ElapsedMs();
  return env;
}

/// Outcome of one advise -> migrate -> replay loop.
struct LoopResult {
  double advise_s = 0, migrate_s = 0;
  /// Wall time of each replayed chunk.
  std::vector<double> chunk_s;
};

/// Advises on env.advised, migrates to the recommendation, then replays
/// kChunks chunks of the stream, the advised chunk first. With `readout`
/// the registry is on and the engine-side attribution is collected.
LoopResult RunLoop(AdviseEnv& env, RunOutcome* out, TracedReadout* readout) {
  LoopResult loop;
  Database& db = *env.db;
  const bool traced = readout != nullptr;
  env.registry.set_enabled(traced);

  // Advise with pinned default cost parameters: no calibration, no cache.
  hsdb::StorageAdvisor advisor(&db);
  advisor.SetCostModelParams(hsdb::CostModelParams::Default());
  hsdb::Stopwatch sw;
  Result<hsdb::Recommendation> rec = advisor.RecommendOffline(env.advised);
  loop.advise_s = sw.ElapsedMs() / 1000.0;
  if (!rec.ok()) {
    out->Fail("advise: " + rec.status().ToString());
    return loop;
  }
  const std::vector<std::string> ddl = SortedDdl(*rec);
  if (ddl != ExpectedDdl()) {
    std::string got;
    for (const std::string& d : ddl) got += "\n#   " + d;
    out->Fail("advisor DDL differs from the recorded expectation:" + got);
    return loop;
  }

  // Reference answers on the row store, compared after the migration.
  std::vector<Query> probes;
  std::vector<QueryResult> before;
  if (!traced) {
    hsdb::tpch::TpchWorkloadGenerator probe_gen(db, {});
    probes = {probe_gen.PricingSummary(), probe_gen.OrderPriorityRevenue(),
              probe_gen.SegmentRevenue(), probe_gen.OrderTotals(),
              probe_gen.BrandPrices()};
    for (const Query& q : probes) {
      Result<QueryResult> r = db.Execute(q);
      if (!r.ok()) out->Fail("reference query: " + r.status().ToString());
      before.push_back(r.ok() ? std::move(*r) : QueryResult{});
    }
  }
  const std::map<std::string, size_t> rows_before = RowCounts(db);

  hsdb::MigrationExecutor migrator(&db, &advisor.cost_model());
  std::unique_ptr<EpochPinSampler> sampler;
  if (traced) sampler = std::make_unique<EpochPinSampler>(&db.catalog().epochs());
  sw.Restart();
  hsdb::MigrationPlan plan = migrator.Plan(*rec);
  const hsdb::MigrationExecutor::Progress progress =
      migrator.ExecuteSteps(&plan, plan.steps.size());
  loop.migrate_s = sw.ElapsedMs() / 1000.0;
  if (sampler != nullptr) readout->pin_age_max_ms = sampler->Stop();
  if (!progress.status.ok() || !plan.Done()) {
    out->Fail("migration: " + progress.status.ToString());
    return loop;
  }
  if (RowCounts(db) != rows_before) out->Fail("migration changed row counts");
  for (size_t i = 0; i < probes.size(); ++i) {
    Result<QueryResult> r = db.Execute(probes[i]);
    if (!r.ok() || !SameAnswer(before[i], *r)) {
      out->Fail("answer changed across the migration: " +
                hsdb::QueryToString(probes[i]));
    }
  }
  if (traced) {
    readout->migration_steps = plan.steps.size();
    double step_total = 0;
    for (const hsdb::MigrationStep& step : plan.steps) {
      step_total += step.observed_cost_ms;
      readout->swap_ms_max =
          std::max(readout->swap_ms_max, step.observed_cutover_ms);
    }
    readout->step_ms_mean =
        plan.steps.empty() ? 0 : step_total / plan.steps.size();
    readout->estimated_cost_ms = rec->estimated_cost_ms;
  }

  std::vector<Query> chunk = std::move(env.advised);
  while (loop.chunk_s.size() < kChunks) {
    if (!loop.chunk_s.empty()) chunk = env.stream->Next();
    hsdb::Stopwatch chunk_sw;
    for (const Query& q : chunk) {
      Result<QueryResult> r = db.Execute(q);
      ++out->attempted;
      const std::string problem =
          r.ok() ? CheckResult(db, q, *r) : r.status().ToString();
      if (!problem.empty()) {
        ++out->failed;
        out->Fail(problem);
        continue;
      }
      if (traced && r->trace != nullptr) {
        readout->execute_ms[std::string(
            hsdb::QueryKindName(hsdb::KindOf(q)))] += r->elapsed_ms;
        const double self_sum = AccumulateSelf(*r->trace, &readout->self_ms);
        readout->self_check_err_ms.push_back(
            std::abs(self_sum - r->elapsed_ms));
      }
    }
    loop.chunk_s.push_back(chunk_sw.ElapsedMs() / 1000.0);
    if (!out->correct) break;
    // Untimed: drop the rows this chunk inserted (fresh keys all lie above
    // the loaded ranges), so every chunk runs against the loaded data size
    // instead of a table that grows from chunk to chunk.
    for (const Query& del : env.trim) {
      Result<QueryResult> r = db.Execute(del);
      if (!r.ok()) out->Fail("trim: " + r.status().ToString());
    }
  }

  if (traced) {
    // Database::PredictCost runs inside every costed Execute; time it on
    // its own, under the reader locks Execute would hold.
    const std::vector<Query> sample = env.stream->Next();
    double predict_ms = 0;
    for (const Query& q : sample) {
      hsdb::CatalogReadLock lock(db.catalog(), hsdb::TablesOf(q));
      hsdb::Stopwatch p;
      (void)db.PredictCost(q);
      predict_ms += p.ElapsedMs();
    }
    readout->predict_us = 1000.0 * predict_ms / sample.size();
    // The registry is this loop's own, so lifetime values are the loop's.
    MetricSheet& m = out->metrics;
    for (const char* phase : {"table", "partition", "joint_search", "total"}) {
      m.Set(std::string("core.advisor_phase_ms.") + phase,
            env.registry
                .GetHistogram("hsdb_advisor_phase_ms", "", {{"phase", phase}})
                .sum(),
            "ms");
    }
    m.Set("core.evaluated_assignments",
          static_cast<double>(
              env.registry
                  .GetCounter("hsdb_advisor_evaluated_assignments_total")
                  .value()),
          "count");
    const telemetry::LogHistogram& err =
        env.registry.GetHistogram("hsdb_cost_abs_rel_error", "", {}, 1e-4);
    m.Set("core.cost_abs_rel_error_p50", err.Quantile(0.50), "ratio");
    m.Set("core.cost_abs_rel_error_p95", err.Quantile(0.95), "ratio");
  }
  env.registry.set_enabled(false);
  return loop;
}

}  // namespace

void AddAdviseLoopLayers(uint64_t seed, RunOutcome* out) {
  MetricSheet& m = out->metrics;
  // Untraced loop: the loop's own wall-clock numbers.
  Result<std::unique_ptr<AdviseEnv>> built = BuildAdviseEnv(seed);
  if (!built.ok()) {
    out->Fail("advise loop set-up: " + built.status().ToString());
    return;
  }
  std::unique_ptr<AdviseEnv> env = std::move(*built);
  m.Set("tpch.generate_ms", env->generate_ms, "ms");
  const size_t statements = env->advised.size();
  const LoopResult loop = RunLoop(*env, out, nullptr);
  if (!out->correct) return;
  std::string chunk_times;
  for (double s : loop.chunk_s) chunk_times += " " + std::to_string(s);
  Info("advise loop: advise " + std::to_string(loop.advise_s) +
       " s, migrate " + std::to_string(loop.migrate_s) +
       " s, replay chunks of " + std::to_string(statements) +
       " statements, s:" + chunk_times);
  // The median chunk: a stall of the host moves one chunk, not the result.
  // Every chunk merges its column-store delta about once, so the median
  // chunk carries a merge like the others.
  const double replay_s = Median(loop.chunk_s);
  m.Set("advise_s", loop.advise_s, "s");
  m.Set("migrate_s", loop.migrate_s, "s");
  m.Set("replay_s", replay_s, "s");

  // Traced loop, on a fresh database of its own.
  env.reset();
  built = BuildAdviseEnv(seed);
  if (!built.ok()) {
    out->Fail("advise loop set-up: " + built.status().ToString());
    return;
  }
  env = std::move(*built);
  TracedReadout r;
  RunLoop(*env, out, &r);
  for (const auto& [kind, ms] : r.execute_ms) {
    std::string lower = kind;
    std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
    m.Set("executor.execute_ms." + lower, ms, "ms");
  }
  for (const auto& [span, ms] : r.self_ms) {
    m.Set("executor.self_ms." + span, ms, "ms");
  }
  // Self times telescope to the root span, which brackets the statement
  // stopwatch; a larger gap means spans overlap or leak.
  const double err_tail =
      Quantile(r.self_check_err_ms, 1.0 - kSelfCheckOutliers);
  Info("self-time check over " + std::to_string(r.self_check_err_ms.size()) +
       " statements: |sum(self) - elapsed| p99.9 " + std::to_string(err_tail) +
       " ms, max " + std::to_string(Quantile(r.self_check_err_ms, 1.0)) +
       " ms");
  if (r.self_check_err_ms.empty() || err_tail > kSelfCheckToleranceMs) {
    out->Fail("span self times do not sum to statement time (p99.9 error " +
              std::to_string(err_tail) + " ms)");
  }
  m.Set("core.predict_us", r.predict_us, "us");
  m.Set("core.estimate_over_measured",
        r.estimated_cost_ms / (replay_s * 1000.0), "ratio");
  m.Set("catalog.epoch_pin_age_max_ms", r.pin_age_max_ms, "ms");
  m.Set("online.migration_steps", static_cast<double>(r.migration_steps),
        "count");
  m.Set("online.migration_step_ms", r.step_ms_mean, "ms");
  m.Set("online.swap_ms_max", r.swap_ms_max, "ms");
}

}  // namespace perfbench
