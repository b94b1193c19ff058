// Microbenchmarks (google-benchmark) of the compressed column-store
// subsystem: per-codec ranged decode throughput, predicate scans on
// encoded data vs. the raw baseline, end-to-end ColumnTable aggregation
// with adaptive codecs vs. uncompressed segments, and a TPC-H star join.
// Each encoded benchmark reports the codec's compression ratio as a
// counter. Run in Release mode.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/bitpack.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "executor/database.h"
#include "executor/read_path.h"
#include "storage/column_table.h"
#include "storage/compression/encoded_segment.h"
#include "storage/compression/simd/bitunpack.h"
#include "tpch/dbgen.h"
#include "tpch/schema.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

using compression::BoundsPred;
using compression::EncodedSegment;
using compression::simd::ScopedSimdLevel;
using compression::simd::SimdLevel;

constexpr size_t kRows = 1 << 20;
constexpr int64_t kDistinct = 64;

/// Low-cardinality run-structured column: the classic sorted-fact-table
/// shape (dates, status codes) every codec should handle well.
const std::vector<int64_t>& RunStructuredColumn() {
  static const std::vector<int64_t>* values = [] {
    auto* v = new std::vector<int64_t>(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      (*v)[i] = static_cast<int64_t>(i / (kRows / kDistinct)) * 97;
    }
    return v;
  }();
  return *values;
}

/// Low-cardinality shuffled column: no run structure, dictionary territory.
const std::vector<int64_t>& ShuffledColumn() {
  static const std::vector<int64_t>* values = [] {
    auto* v = new std::vector<int64_t>(kRows);
    Rng rng(42);
    for (size_t i = 0; i < kRows; ++i) {
      (*v)[i] = rng.UniformInt(0, kDistinct - 1) * 97;
    }
    return v;
  }();
  return *values;
}

void SetRatio(benchmark::State& state, const EncodedSegment<int64_t>& seg) {
  state.counters["compression_ratio"] =
      static_cast<double>(seg.payload_bytes()) /
      static_cast<double>(seg.plain_bytes());
}

// ---- Ranged decode (aggregation scan shape) --------------------------------
// The decode form every served aggregation runs (ForEachInRange), here over
// an all-set selection.

void BM_SegmentScan(benchmark::State& state) {
  auto encoding = static_cast<Encoding>(state.range(0));
  auto seg = EncodedSegment<int64_t>::Encode(RunStructuredColumn(), encoding);
  const Bitmap all(kRows, true);
  for (auto _ : state) {
    int64_t sum = 0;
    seg.ForEachInRange(all, 0, kRows, [&](size_t, int64_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  SetRatio(state, seg);
}
BENCHMARK(BM_SegmentScan)->DenseRange(0, kNumEncodings - 1)
    ->ArgName("encoding");

void BM_SegmentScanShuffled(benchmark::State& state) {
  auto encoding = static_cast<Encoding>(state.range(0));
  auto seg = EncodedSegment<int64_t>::Encode(ShuffledColumn(), encoding);
  const Bitmap all(kRows, true);
  for (auto _ : state) {
    int64_t sum = 0;
    seg.ForEachInRange(all, 0, kRows, [&](size_t, int64_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  SetRatio(state, seg);
}
BENCHMARK(BM_SegmentScanShuffled)->DenseRange(0, kNumEncodings - 1)
    ->ArgName("encoding");

// ---- Predicate scans on encoded data ---------------------------------------
// The acceptance scenario: a low-cardinality equality predicate evaluated
// on the encoded segment (dictionary id interval / RLE run skipping) vs.
// decoding every raw value.

void BM_SegmentFilter(benchmark::State& state) {
  auto encoding = static_cast<Encoding>(state.range(0));
  auto seg = EncodedSegment<int64_t>::Encode(RunStructuredColumn(), encoding);
  BoundsPred<int64_t> pred;
  pred.has_lo = pred.has_hi = true;
  pred.lo = pred.hi = 97.0 * (kDistinct / 2);  // one of 64 values
  Bitmap all(kRows, true);
  for (auto _ : state) {
    Bitmap bm = all;
    seg.FilterRangeSlice(pred, &bm, 0, kRows);
    benchmark::DoNotOptimize(bm.Count());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  SetRatio(state, seg);
}
BENCHMARK(BM_SegmentFilter)->DenseRange(0, kNumEncodings - 1)
    ->ArgName("encoding");

void BM_SegmentFilterShuffled(benchmark::State& state) {
  auto encoding = static_cast<Encoding>(state.range(0));
  auto seg = EncodedSegment<int64_t>::Encode(ShuffledColumn(), encoding);
  BoundsPred<int64_t> pred;
  pred.has_lo = pred.has_hi = true;
  pred.lo = pred.hi = 97.0 * (kDistinct / 2);
  Bitmap all(kRows, true);
  for (auto _ : state) {
    Bitmap bm = all;
    seg.FilterRangeSlice(pred, &bm, 0, kRows);
    benchmark::DoNotOptimize(bm.Count());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  SetRatio(state, seg);
}
BENCHMARK(BM_SegmentFilterShuffled)->DenseRange(0, kNumEncodings - 1)
    ->ArgName("encoding");

// ---- Packed-domain filter kernel (packed-width-parameterized) --------------
// Predicate evaluation on the packed codes at each representative packed
// width, with the detected tier (AVX2 where the CPU has it, scalar
// elsewhere) vs. the forced scalar fallback (arg "scalar"=1). The AVX2 rows
// must stay well ahead of their scalar twins — the CI perf gate normalizes
// by the fleet median, so a rotted kernel shows up as a relative regression
// of the AVX2 rows.

/// Packed vector of kRows random width-bit values (fixed seed).
BitPackedVector PackedColumn(uint32_t width) {
  Rng rng(width * 7919 + 20260731);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  BitPackedVector packed(width);
  packed.Reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) packed.Append(rng.Next() & mask);
  return packed;
}

SimdLevel BenchLevel(const benchmark::State& state) {
  return state.range(1) != 0 ? SimdLevel::kScalar
                             : compression::simd::DetectedLevel();
}

void BM_PackedFilter(benchmark::State& state) {
  const auto width = static_cast<uint32_t>(state.range(0));
  ScopedSimdLevel guard(BenchLevel(state));
  BitPackedVector packed = PackedColumn(width);
  // Middle band, ~50% selectivity: neither branch dominates.
  const uint64_t top =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  const uint64_t lo = top / 4;
  const uint64_t hi = 3 * (top / 4);
  Bitmap bm(kRows, true);
  for (auto _ : state) {
    // Only the kernel is timed: refilling the bitmap (the filter narrows
    // it, and a pre-narrowed input would let the skip-zero-words path
    // cheat) happens outside the measured region.
    compression::simd::FilterPackedRange(packed.words(), kRows, width, lo,
                                         hi, bm.mutable_words());
    benchmark::DoNotOptimize(bm.words());
    state.PauseTiming();
    bm.Resize(kRows, true);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_PackedFilter)
    ->ArgsProduct({{8, 12, 16, 24, 32}, {0, 1}})
    ->ArgNames({"width", "scalar"});

// ---- End-to-end ColumnTable scan -------------------------------------------

std::unique_ptr<ColumnTable> MakeTable(bool adaptive) {
  ColumnTable::Options opts;
  opts.auto_merge = false;
  if (adaptive) {
    opts.encoding.adaptive = true;
  } else {
    opts.encoding.force = Encoding::kRaw;
  }
  auto t = ColumnTable::Create(
      Schema::CreateOrDie({{"id", DataType::kInt64},
                           {"bucket", DataType::kInt64},
                           {"value", DataType::kDouble}},
                          {0}),
      opts);
  const std::vector<int64_t>& buckets = RunStructuredColumn();
  constexpr size_t kTableRows = 200'000;
  for (size_t i = 0; i < kTableRows; ++i) {
    t->Insert({static_cast<int64_t>(i), buckets[i],
               static_cast<double>(i % 97)});
  }
  t->MergeDelta();
  return t;
}

void BM_ColumnTableFilter(benchmark::State& state) {
  auto t = MakeTable(state.range(0) != 0);
  ValueRange range = ValueRange::Eq(Value(int64_t{97 * (kDistinct / 2)}));
  for (auto _ : state) {
    Bitmap bm = t->live_bitmap();
    t->FilterRangeSlice(1, range, 0, t->slot_count(), &bm);
    benchmark::DoNotOptimize(bm.Count());
  }
  state.SetItemsProcessed(state.iterations() * t->live_count());
  state.counters["compression_ratio"] = t->CompressionRate(1);
}
BENCHMARK(BM_ColumnTableFilter)->Arg(0)->Arg(1)->ArgName("adaptive");

void BM_ColumnTableAggregate(benchmark::State& state) {
  auto t = MakeTable(state.range(0) != 0);
  for (auto _ : state) {
    double sum = 0;
    t->ForEachNumericRange(1, t->live_bitmap(), 0, t->slot_count(),
                           [&](RowId, double v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * t->live_count());
  state.counters["compression_ratio"] = t->CompressionRate(1);
}
BENCHMARK(BM_ColumnTableAggregate)->Arg(0)->Arg(1)->ArgName("adaptive");

/// SUM of a DOUBLE key figure over a 200k-row ColumnTable grouped by a
/// 7-value column pinned to `encoding`, through the executor's scan kernel
/// at DOP 1 (a pool with no workers: the morsels run inline). Dictionary
/// and FOR group on packed codes; raw takes the generic Value-keyed path
/// and is the in-run reference.
void BM_ColumnTableGroupedAggregate(benchmark::State& state,
                                    Encoding encoding) {
  ColumnTable::Options opts;
  opts.auto_merge = false;
  opts.column_encodings = {std::nullopt, encoding, std::nullopt};
  Fragment cover;
  cover.table = ColumnTable::Create(
      Schema::CreateOrDie({{"id", DataType::kInt64},
                           {"grp", DataType::kInt32},
                           {"value", DataType::kDouble}},
                          {0}),
      opts);
  cover.columns = {0, 1, 2};
  cover.logical_to_frag = {0, 1, 2};
  Rng rng(7);
  constexpr size_t kTableRows = 200'000;
  for (size_t i = 0; i < kTableRows; ++i) {
    cover.table->Insert({static_cast<int64_t>(i),
                         static_cast<int32_t>(rng.UniformInt(0, 6)),
                         static_cast<double>(i % 997) * 0.25});
  }
  auto& table = static_cast<ColumnTable&>(*cover.table);
  table.MergeDelta();
  HSDB_CHECK(table.ColumnEncoding(1) == encoding);
  AggregationQuery q;
  q.tables = {"t"};
  q.aggregates = {{AggFn::kSum, {2, 0}}};
  q.group_by = {{1, 0}};
  ThreadPool pool(0);
  ParallelContext ctx;
  ctx.pool = &pool;
  for (auto _ : state) {
    std::vector<AggState> totals(1);
    GroupMap groups;
    readpath::AggregateCover(ctx, cover, /*terms=*/{}, q, /*grouped=*/true,
                             &table.live_bitmap(), /*dims=*/{}, &totals,
                             &groups);
    benchmark::DoNotOptimize(groups.size());
  }
  state.SetItemsProcessed(state.iterations() * table.live_count());
}
BENCHMARK_CAPTURE(BM_ColumnTableGroupedAggregate, encoding:dict,
                  Encoding::kDictionary);
BENCHMARK_CAPTURE(BM_ColumnTableGroupedAggregate, encoding:for,
                  Encoding::kFrameOfReference);
BENCHMARK_CAPTURE(BM_ColumnTableGroupedAggregate, encoding:raw,
                  Encoding::kRaw);

// ---- Delta merge -------------------------------------------------------------

/// Merges a delta of `rows` inserted rows into an empty main part: every
/// column is profiled, encoded by its picked codec and the PK index kept.
/// `make_row(i, rng)` builds row i; set-up inserts are not timed.
template <typename MakeRow>
void RunDeltaMerge(benchmark::State& state, const Schema& schema,
                   MakeRow&& make_row) {
  const auto rows = static_cast<int64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ColumnTable::Options opts;
    opts.auto_merge = false;
    auto table = ColumnTable::Create(schema, opts);
    Rng rng(5);
    for (int64_t i = 0; i < rows; ++i) {
      table->Insert(make_row(i, rng));
    }
    state.ResumeTiming();
    table->MergeDelta();
    benchmark::DoNotOptimize(table->main_rows());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

/// The synthetic benchmark table: integer keys, filters and key figures.
void BM_DeltaMerge(benchmark::State& state) {
  SyntheticTableSpec spec;
  RunDeltaMerge(state, spec.MakeSchema(), [&](int64_t i, Rng&) {
    return SyntheticRow(spec, i);
  });
}
BENCHMARK(BM_DeltaMerge)->Arg(10'000)->Arg(50'000)->ArgName("rows");

/// TPC-H lineitem rows: besides keys, prices and dates it carries
/// low-cardinality strings (l_shipmode, l_shipinstruct) and a near-unique
/// l_comment, the columns whose encode cost the merge is most sensitive to.
void BM_DeltaMergeLineitem(benchmark::State& state) {
  RunDeltaMerge(state, tpch::SchemaFor("lineitem"), [](int64_t i, Rng& rng) {
    return tpch::MakeLineitemRow(i / 4 + 1, static_cast<int32_t>(i % 4 + 1),
                                 tpch::kMinOrderDate +
                                     static_cast<int32_t>(i % 2400),
                                 /*part_count=*/10'000,
                                 /*supplier_count=*/500, rng);
  });
}
BENCHMARK(BM_DeltaMergeLineitem)->Arg(50'000)->ArgName("rows");

// ---- Morsel-parallel scans -------------------------------------------------
// Thread-count-parameterized twins of the scan shapes above: the same work
// fanned over a ThreadPool in 16384-row morsels, at degree of parallelism
// 1 (the same kernel, inline), 2 and 4. On a multi-core box the 4-thread rows
// should sit near 2.5x+ over their threads:1 twins; on a single-core
// runner they degenerate gracefully (the CI gate normalizes by the fleet
// median, so only a *relative* rot of the parallel rows trips it).

constexpr size_t kBenchMorselRows = 16384;  // mirrors the executor's morsel
constexpr size_t kParallelBenchRows = 1 << 18;

void BM_ParallelScan(benchmark::State& state) {
  const int dop = static_cast<int>(state.range(0));
  static telemetry::MetricsRegistry registry;
  // One database per thread count, built once: population dwarfs the scan.
  static std::unique_ptr<Database> dbs[5];
  if (!dbs[dop]) {
    Database::Options options;
    options.num_threads = dop;
    options.metrics = &registry;
    dbs[dop] = std::make_unique<Database>(options);
    SyntheticTableSpec spec;
    spec.name = "bench";
    HSDB_CHECK(dbs[dop]
                   ->CreateTable(spec.name, spec.MakeSchema(),
                                 TableLayout::SingleStore(StoreType::kColumn))
                   .ok());
    HSDB_CHECK(PopulateSynthetic(dbs[dop]->catalog().GetTable(spec.name),
                                 spec, kParallelBenchRows)
                   .ok());
  }
  Database& db = *dbs[dop];
  AggregationQuery agg;
  agg.tables = {"bench"};
  AggregateExpr sum;
  sum.fn = AggFn::kSum;
  sum.column = {SyntheticTableSpec{}.keyfigure(0), 0};
  agg.aggregates = {sum};
  SyntheticTableSpec spec;
  agg.predicate = {{{spec.filter(0), 0},
                    ValueRange::Between(Value(int32_t{0}),
                                        Value(int32_t{800}))}};
  const Query query(agg);
  for (auto _ : state) {
    Result<QueryResult> result = db.Execute(query);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kParallelBenchRows);
}
BENCHMARK(BM_ParallelScan)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads");

void BM_ParallelPackedFilter(benchmark::State& state) {
  const int dop = static_cast<int>(state.range(0));
  auto seg = EncodedSegment<int64_t>::Encode(ShuffledColumn(),
                                             Encoding::kFrameOfReference);
  BoundsPred<int64_t> pred;
  pred.has_lo = pred.has_hi = true;
  pred.lo = 0.0;
  pred.hi = 97.0 * (kDistinct / 2);  // ~50% selectivity
  ThreadPool pool(static_cast<size_t>(dop - 1));
  const size_t morsels = (kRows + kBenchMorselRows - 1) / kBenchMorselRows;
  Bitmap bm(kRows, true);
  for (auto _ : state) {
    // Morsel begins are multiples of 16384 (64-aligned), so each morsel
    // writes disjoint words of the shared bitmap — same argument as the
    // executor's parallel scan.
    pool.ParallelFor(morsels, [&](size_t m) {
      const size_t begin = m * kBenchMorselRows;
      const size_t end = std::min(begin + kBenchMorselRows, kRows);
      seg.FilterRangeSlice(pred, &bm, begin, end);
    });
    benchmark::DoNotOptimize(bm.words());
    state.PauseTiming();
    bm.Resize(kRows, true);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  SetRatio(state, seg);
}
BENCHMARK(BM_ParallelPackedFilter)->Arg(1)->Arg(2)->Arg(4)
    ->ArgName("threads");

// ---- Star join -------------------------------------------------------------
// The TPC-H revenue-by-order-priority join (lineitem ⋈ orders, both in the
// column store, sf 0.05, seed 1) at DOP 1 and 4: the orders hash build plus
// the lineitem probe in morsels. Not one of the rows check_regression.py
// gates for parallel speedup.

void BM_StarJoinAggregate(benchmark::State& state) {
  const int dop = static_cast<int>(state.range(0));
  static telemetry::MetricsRegistry registry;
  static std::unique_ptr<Database> dbs[5];
  if (!dbs[dop]) {
    Database::Options options;
    options.num_threads = dop;
    options.metrics = &registry;
    dbs[dop] = std::make_unique<Database>(options);
    tpch::DbgenOptions dbgen;
    dbgen.scale_factor = 0.05;
    dbgen.seed = 1;
    for (const char* table : {"lineitem", "orders"}) {
      dbgen.layouts[table] = TableLayout::SingleStore(StoreType::kColumn);
    }
    HSDB_CHECK(tpch::LoadTpch(*dbs[dop], dbgen).ok());
  }
  AggregationQuery q;
  q.tables = {"lineitem", "orders"};
  q.joins = {{0, tpch::col::kLOrderKey, 1, tpch::col::kOrderKey}};
  q.aggregates = {{AggFn::kSum, {tpch::col::kLExtendedPrice, 0}},
                  {AggFn::kCount, {}}};
  q.group_by = {{tpch::col::kOrderPriority, 1}};
  const Query query(q);
  for (auto _ : state) {
    Result<QueryResult> result = dbs[dop]->Execute(query);
    HSDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      state.iterations() *
      dbs[dop]->catalog().GetTable("lineitem")->row_count());
}
BENCHMARK(BM_StarJoinAggregate)->Arg(1)->Arg(4)->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

// ---- Telemetry overhead ----------------------------------------------------
// The observability layer's acceptance gate: per-query telemetry (trace
// spans, metric updates, latency histogram) must stay under 2% on a
// representative aggregation scan (bench/check_regression.py asserts the
// within-run ratios). Three modes:
//   telemetry:0  raw Executor::Execute — no Database-level accounting at
//                all, the stand-in for an HSDB_TELEMETRY=OFF build
//   telemetry:1  Database::Execute with the registry disabled (runtime off)
//   telemetry:2  Database::Execute with telemetry enabled (traced path)

constexpr size_t kTelemetryBenchRows = 1 << 18;

Database& TelemetryBenchDb() {
  static Database* db = [] {
    static telemetry::MetricsRegistry registry;
    auto* d = new Database(&registry);
    SyntheticTableSpec spec;
    spec.name = "bench";
    HSDB_CHECK(d->CreateTable(spec.name, spec.MakeSchema(),
                              TableLayout::SingleStore(StoreType::kColumn))
                   .ok());
    HSDB_CHECK(PopulateSynthetic(d->catalog().GetTable(spec.name), spec,
                                 kTelemetryBenchRows)
                   .ok());
    HSDB_CHECK(d->catalog().UpdateStatistics(spec.name).ok());
    return d;
  }();
  return *db;
}

void BM_TelemetryOverhead(benchmark::State& state) {
  Database& db = TelemetryBenchDb();
  Executor raw(&db.catalog(), db.parallel());
  AggregationQuery agg;
  agg.tables = {"bench"};
  AggregateExpr sum;
  sum.fn = AggFn::kSum;
  sum.column = {SyntheticTableSpec{}.keyfigure(0), 0};
  agg.aggregates = {sum};
  const Query query(agg);

  const int mode = static_cast<int>(state.range(0));
  db.metrics().set_enabled(mode == 2);
  for (auto _ : state) {
    Result<QueryResult> result =
        mode == 0 ? raw.Execute(query) : db.Execute(query);
    benchmark::DoNotOptimize(result);
  }
  db.metrics().set_enabled(true);
  state.SetItemsProcessed(state.iterations() * kTelemetryBenchRows);
}
BENCHMARK(BM_TelemetryOverhead)->DenseRange(0, 2)->ArgName("telemetry");

}  // namespace
}  // namespace hsdb

BENCHMARK_MAIN();
