#include "core/probe_runner.h"

#include <algorithm>

#include "common/random.h"
#include "common/stopwatch.h"
#include "storage/column_table.h"

namespace hsdb {

namespace {

// Probe table layout: a primary key, one measure column per numeric type
// (d0 drives the compression sweep), spare numeric columns for the
// selected-columns sweep, a filter column with a known value domain for the
// selectivity sweep, a small group-by column, and padding columns that bring
// the row stride to ~the paper's 30-attribute table. The padding matters:
// row-store scan cost is stride-dependent (every scan drags the full tuple
// width through the cache hierarchy), so the probe tables must be width-
// representative of the advised tables.
//   0:id 1:d0 2:i32 3:i64 4:dt 5:c0 6:c1 7:c2 8:c3 9:filt 10:grp 11..22:pad
constexpr ColumnId kId = 0;
constexpr ColumnId kD0 = 1;
constexpr ColumnId kI32 = 2;
constexpr ColumnId kI64 = 3;
constexpr ColumnId kDt = 4;
constexpr ColumnId kC0 = 5;
constexpr ColumnId kFilt = 9;
constexpr ColumnId kGrp = 10;
constexpr int kPadColumns = 12;
constexpr int64_t kFiltDomain = 100'000;

Schema ProbeSchema() {
  std::vector<ColumnDef> cols = {{"id", DataType::kInt64},
                                 {"d0", DataType::kDouble},
                                 {"i32", DataType::kInt32},
                                 {"i64", DataType::kInt64},
                                 {"dt", DataType::kDate},
                                 {"c0", DataType::kDouble},
                                 {"c1", DataType::kDouble},
                                 {"c2", DataType::kDouble},
                                 {"c3", DataType::kDouble},
                                 {"filt", DataType::kInt32},
                                 {"grp", DataType::kInt32}};
  for (int i = 0; i < kPadColumns; ++i) {
    cols.push_back({"pad" + std::to_string(i), DataType::kDouble});
  }
  return Schema::CreateOrDie(std::move(cols), {0});
}

Row ProbeRow(int64_t id, uint64_t distinct) {
  Rng rng(static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ull + 3);
  // The measure columns cycle through `distinct` values (0 = all distinct).
  int64_t v = distinct == 0 ? id : id % static_cast<int64_t>(distinct);
  Row row = {id,
             static_cast<double>(v) * 1.5,
             static_cast<int32_t>(v % 100'000),
             v,
             Date{static_cast<int32_t>(v % 20'000)},
             rng.UniformDouble(0, 1e4),
             rng.UniformDouble(0, 1e4),
             rng.UniformDouble(0, 1e4),
             rng.UniformDouble(0, 1e4),
             static_cast<int32_t>(rng.UniformInt(0, kFiltDomain - 1)),
             static_cast<int32_t>(rng.UniformInt(0, 19))};
  for (int i = 0; i < kPadColumns; ++i) {
    // Low-cardinality padding: realistic compressibility, fast to build.
    row.push_back(Value(static_cast<double>(rng.UniformInt(0, 255))));
  }
  return row;
}

ColumnId SelectableColumn(size_t i) {
  static constexpr ColumnId kSelectable[] = {kId, kD0, kC0, kC0 + 1,
                                             kC0 + 2, kC0 + 3, kI64, kI32};
  return kSelectable[i % 8];
}

ColumnId MeasureColumn(DataType type) {
  switch (type) {
    case DataType::kDouble:
      return kD0;
    case DataType::kInt32:
      return kI32;
    case DataType::kInt64:
      return kI64;
    case DataType::kDate:
      return kDt;
    case DataType::kVarchar:
      break;
  }
  HSDB_CHECK_MSG(false, "no probe measure column for type");
  return kD0;
}

}  // namespace

double EngineProbeRunner::TimeQuery(Database& db, const Query& query) {
  std::vector<double> samples;
  samples.reserve(options_.repeats);
  for (int i = 0; i < options_.repeats; ++i) {
    Result<QueryResult> r = db.Execute(query);
    HSDB_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    samples.push_back(r->elapsed_ms);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

EngineProbeRunner::Entry& EngineProbeRunner::ProbeTable(StoreType store,
                                                        size_t rows,
                                                        uint64_t distinct,
                                                        bool indexed,
                                                        int dop) {
  std::string key = "t:" + std::string(StoreTypeName(store)) + ":" +
                    std::to_string(rows) + ":" + std::to_string(distinct) +
                    (indexed ? ":idx" : "") +
                    (dop > 1 ? ":d" + std::to_string(dop) : "");
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  Entry entry;
  Database::Options db_options;
  db_options.num_threads = dop;
  entry.db = std::make_unique<Database>(db_options);
  HSDB_CHECK(entry.db
                 ->CreateTable("probe", ProbeSchema(),
                               TableLayout::SingleStore(store))
                 .ok());
  LogicalTable* table = entry.db->catalog().GetTable("probe");
  for (size_t i = 0; i < rows; ++i) {
    Status s = table->Insert(ProbeRow(static_cast<int64_t>(i), distinct));
    HSDB_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
  table->ForceMerge();
  if (indexed && store == StoreType::kRow) {
    HSDB_CHECK(table->CreateSortedIndex(kId).ok());
    HSDB_CHECK(table->CreateSortedIndex(kFilt).ok());
  }
  entry.db->catalog().UpdateAllStatistics();
  entry.next_insert_id = static_cast<int64_t>(rows);
  const TableStatistics* stats = entry.db->catalog().GetStatistics("probe");
  entry.compression_rate = stats->column(kD0).compression_rate;
  return cache_.emplace(key, std::move(entry)).first->second;
}

ProbeResult EngineProbeRunner::MeasureAggregation(StoreType store, AggFn fn,
                                                  DataType type, bool grouped,
                                                  bool filtered, size_t rows,
                                                  uint64_t distinct) {
  Entry& entry = ProbeTable(store, rows, distinct, /*indexed=*/false);
  AggregationQuery q;
  q.tables = {"probe"};
  q.aggregates = {{fn, {MeasureColumn(type), 0}}};
  if (grouped) q.group_by = {{kGrp, 0}};
  if (filtered) {
    q.predicate = {{{kFilt, 0},
                    ValueRange::Between(Value(int32_t{0}),
                                        Value(int32_t{kFiltDomain / 2}))}};
  }
  return ProbeResult{TimeQuery(*entry.db, Query(q)),
                     store == StoreType::kColumn ? entry.compression_rate
                                                 : 1.0};
}

ProbeResult EngineProbeRunner::MeasureSelect(StoreType store,
                                             size_t selected_columns,
                                             double selectivity,
                                             bool use_index, size_t rows) {
  Entry& entry = ProbeTable(store, rows, /*distinct=*/1024,
                            use_index && store == StoreType::kRow);
  SelectQuery q;
  q.table = "probe";
  for (size_t i = 0; i < selected_columns; ++i) {
    q.select_columns.push_back(SelectableColumn(i));
  }
  auto width = std::max<int64_t>(
      1, static_cast<int64_t>(selectivity * kFiltDomain));
  q.predicate = {{{kFilt, 0},
                  ValueRange::Between(Value(int32_t{0}),
                                      Value(static_cast<int32_t>(width - 1)))}};
  return ProbeResult{TimeQuery(*entry.db, Query(q)), entry.compression_rate};
}

ProbeResult EngineProbeRunner::MeasurePointSelect(StoreType store,
                                                  size_t rows) {
  Entry& entry = ProbeTable(store, rows, /*distinct=*/1024, false);
  // Median over a batch of lookups with distinct keys (single lookups are
  // too fast to time individually).
  constexpr int kBatch = 64;
  Rng rng(rows * 31 + 7);
  Stopwatch sw;
  for (int i = 0; i < kBatch; ++i) {
    SelectQuery q;
    q.table = "probe";
    q.select_columns = {kD0};
    q.predicate = {
        {{kId, 0},
         ValueRange::Eq(Value(rng.UniformInt(
             0, static_cast<int64_t>(rows) - 1)))}};
    Result<QueryResult> r = entry.db->Execute(Query(std::move(q)));
    HSDB_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  }
  return ProbeResult{sw.ElapsedMs() / kBatch, entry.compression_rate};
}

ProbeResult EngineProbeRunner::MeasureInsert(StoreType store, size_t rows) {
  Entry& entry = ProbeTable(store, rows, /*distinct=*/1024, false);
  // The model prices an amortized insert (CostModel::InsertCost): a column-
  // store insert also pays its share of the delta merge it forces, so the
  // window runs until a statement-boundary merge has folded the delta in.
  const auto* column = static_cast<const ColumnTable*>(
      store == StoreType::kColumn ? entry.db->catalog().GetTable("probe")
                                        ->groups()[0].fragments[0].table.get()
                                  : nullptr);
  const uint64_t merges = column != nullptr ? column->merge_count() : 0;
  size_t inserted = 0;
  Stopwatch sw;
  for (; inserted < options_.insert_batch ||
         (column != nullptr && column->merge_count() == merges);
       ++inserted) {
    InsertQuery q{"probe", ProbeRow(entry.next_insert_id++, 1024)};
    Result<QueryResult> r = entry.db->Execute(Query(std::move(q)));
    HSDB_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  }
  return ProbeResult{sw.ElapsedMs() / static_cast<double>(inserted),
                     entry.compression_rate};
}

ProbeResult EngineProbeRunner::MeasureUpdate(StoreType store,
                                             size_t affected_columns,
                                             size_t affected_rows,
                                             size_t rows) {
  Entry& entry = ProbeTable(store, rows, /*distinct=*/1024,
                            store == StoreType::kRow);
  UpdateQuery q;
  q.table = "probe";
  // Walk the key space so repeated probes touch different rows.
  int64_t base = (entry.next_insert_id * 7919) %
                 std::max<int64_t>(1, static_cast<int64_t>(rows) -
                                          static_cast<int64_t>(affected_rows));
  ++entry.next_insert_id;
  if (affected_rows == 1) {
    q.predicate = {{{kId, 0}, ValueRange::Eq(Value(base))}};
  } else {
    q.predicate = {
        {{kId, 0},
         ValueRange::Between(Value(base),
                             Value(base + static_cast<int64_t>(
                                              affected_rows) -
                                   1))}};
  }
  Rng rng(entry.next_insert_id);
  for (size_t i = 0; i < affected_columns; ++i) {
    q.set_columns.push_back(kC0 + static_cast<ColumnId>(i % 4));
    q.set_values.push_back(Value(rng.UniformDouble(0, 1e4)));
  }
  // Columns may repeat when affected_columns > 4; dedupe keeps it valid.
  std::vector<ColumnId> cols;
  Row vals;
  for (size_t i = 0; i < q.set_columns.size(); ++i) {
    if (std::find(cols.begin(), cols.end(), q.set_columns[i]) != cols.end()) {
      // Use the other measure columns for widths beyond the spares.
      ColumnId alt = (i % 2 == 0) ? kD0 : kI64;
      if (std::find(cols.begin(), cols.end(), alt) != cols.end()) continue;
      cols.push_back(alt);
      vals.push_back(alt == kD0 ? Value(rng.UniformDouble(0, 1e4))
                                : Value(rng.UniformInt(0, 1000)));
    } else {
      cols.push_back(q.set_columns[i]);
      vals.push_back(q.set_values[i]);
    }
  }
  q.set_columns = std::move(cols);
  q.set_values = std::move(vals);
  return ProbeResult{TimeQuery(*entry.db, Query(q)), entry.compression_rate};
}

EngineProbeRunner::Entry& EngineProbeRunner::JoinTables(StoreType fact_store,
                                                        StoreType dim_store,
                                                        size_t fact_rows,
                                                        size_t dim_rows) {
  std::string key = "j:" + std::string(StoreTypeName(fact_store)) + ":" +
                    std::string(StoreTypeName(dim_store)) + ":" +
                    std::to_string(fact_rows) + ":" +
                    std::to_string(dim_rows);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  Entry entry;
  Database::Options db_options;
  db_options.num_threads = 1;  // join probes measure the serial engine
  entry.db = std::make_unique<Database>(db_options);
  Schema fact = Schema::CreateOrDie({{"id", DataType::kInt64},
                                     {"fk", DataType::kInt64},
                                     {"kf", DataType::kDouble}},
                                    {0});
  Schema dim = Schema::CreateOrDie(
      {{"id", DataType::kInt64}, {"a0", DataType::kInt32}}, {0});
  HSDB_CHECK(entry.db
                 ->CreateTable("fact", fact,
                               TableLayout::SingleStore(fact_store))
                 .ok());
  HSDB_CHECK(entry.db
                 ->CreateTable("dim", dim, TableLayout::SingleStore(dim_store))
                 .ok());
  LogicalTable* ft = entry.db->catalog().GetTable("fact");
  LogicalTable* dt = entry.db->catalog().GetTable("dim");
  Rng rng(11);
  for (size_t i = 0; i < dim_rows; ++i) {
    HSDB_CHECK(dt->Insert({static_cast<int64_t>(i),
                           static_cast<int32_t>(rng.UniformInt(0, 49))})
                   .ok());
  }
  for (size_t i = 0; i < fact_rows; ++i) {
    HSDB_CHECK(
        ft->Insert({static_cast<int64_t>(i),
                    rng.UniformInt(0, static_cast<int64_t>(dim_rows) - 1),
                    rng.UniformDouble(0, 1e4)})
            .ok());
  }
  ft->ForceMerge();
  dt->ForceMerge();
  entry.db->catalog().UpdateAllStatistics();
  return cache_.emplace(key, std::move(entry)).first->second;
}

ProbeResult EngineProbeRunner::MeasureJoin(StoreType fact_store,
                                           StoreType dim_store,
                                           size_t fact_rows,
                                           size_t dim_rows) {
  Entry& entry = JoinTables(fact_store, dim_store, fact_rows, dim_rows);
  AggregationQuery q;
  q.tables = {"fact", "dim"};
  q.joins = {{0, 1, 1, 0}};
  q.aggregates = {{AggFn::kSum, {2, 0}}};
  return ProbeResult{TimeQuery(*entry.db, Query(q)), 1.0};
}

EngineProbeRunner::Entry& EngineProbeRunner::StitchTable(size_t rows,
                                                         bool split) {
  std::string key =
      "s:" + std::to_string(rows) + (split ? ":split" : ":plain");
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  Entry entry;
  Database::Options db_options;
  db_options.num_threads = 1;  // stitch probes measure the serial engine
  entry.db = std::make_unique<Database>(db_options);
  TableLayout layout = TableLayout::SingleStore(StoreType::kColumn);
  if (split) {
    layout.vertical = VerticalSpec{{2}};  // status column into the RS piece
  }
  Schema schema = Schema::CreateOrDie({{"id", DataType::kInt64},
                                       {"kf", DataType::kDouble},
                                       {"status", DataType::kInt32}},
                                      {0});
  HSDB_CHECK(entry.db->CreateTable("probe", schema, layout).ok());
  LogicalTable* table = entry.db->catalog().GetTable("probe");
  Rng rng(13);
  for (size_t i = 0; i < rows; ++i) {
    HSDB_CHECK(table
                   ->Insert({static_cast<int64_t>(i),
                             rng.UniformDouble(0, 1e4),
                             static_cast<int32_t>(rng.UniformInt(0, 4))})
                   .ok());
  }
  table->ForceMerge();
  entry.db->catalog().UpdateAllStatistics();
  return cache_.emplace(key, std::move(entry)).first->second;
}

ProbeResult EngineProbeRunner::MeasureParallelScan(StoreType store, int dop,
                                                   size_t rows) {
  Entry& entry = ProbeTable(store, rows, /*distinct=*/1024,
                            /*indexed=*/false, dop);
  // Same shape as the reference aggregation probe: ungrouped, unfiltered
  // SUM over the double measure column — the scan the parallel path
  // morselizes.
  AggregationQuery q;
  q.tables = {"probe"};
  q.aggregates = {{AggFn::kSum, {kD0, 0}}};
  return ProbeResult{TimeQuery(*entry.db, Query(q)),
                     store == StoreType::kColumn ? entry.compression_rate
                                                 : 1.0};
}

ProbeResult EngineProbeRunner::MeasureStitch(size_t rows) {
  // Aggregation whose filter column lives in the other vertical piece
  // (spanning) versus the same query on an unpartitioned table.
  AggregationQuery q;
  q.tables = {"probe"};
  q.aggregates = {{AggFn::kSum, {1, 0}}};
  q.predicate = {{{2, 0},
                  ValueRange::Between(Value(int32_t{0}), Value(int32_t{3}))}};
  Entry& split = StitchTable(rows, /*split=*/true);
  Entry& plain = StitchTable(rows, /*split=*/false);
  double spanning = TimeQuery(*split.db, Query(q));
  double covered = TimeQuery(*plain.db, Query(q));
  return ProbeResult{std::max(0.0, spanning - covered), 1.0};
}

}  // namespace hsdb
