#include "server/explain.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "catalog/catalog.h"
#include "executor/read_path.h"
#include "server/protocol.h"
#include "storage/compression/encoding.h"

namespace hsdb {
namespace server {

namespace {

std::string FormatMs(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Splits a TraceSpan::ToString rendering into payload lines (the wire
/// framing is one line per payload entry).
void AppendTraceLines(const telemetry::TraceSpan& span, int indent,
                      std::vector<std::string>* out) {
  std::istringstream in(span.ToString(indent));
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out->push_back(line);
  }
}

/// The per-table part both verbs share: layout, rows, per-column codecs.
void AppendTableLines(const Catalog& catalog, const std::string& name,
                      std::vector<std::string>* out) {
  const LogicalTable* table = catalog.GetTable(name);
  if (table == nullptr) {
    out->push_back("table " + name + ": <dropped>");
    return;
  }
  out->push_back("table " + name + ": layout=" + table->layout().ToString() +
                 " rows=" + std::to_string(table->row_count()));
  const TableStatistics* stats = catalog.GetStatistics(name);
  if (stats == nullptr) {
    out->push_back("  statistics: none (not analyzed yet)");
    return;
  }
  const Schema& schema = table->schema();
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    if (c >= stats->columns.size()) break;
    const ColumnStatistics& cs = stats->columns[c];
    char buf[64];
    std::snprintf(buf, sizeof(buf), " compression=%.2f", cs.compression_rate);
    out->push_back("  column " + schema.column(c).name + ": codec=" +
                   std::string(EncodingName(cs.encoding)) + buf);
  }
}

/// One line per star-join dimension: the edge, the columns its hash build
/// keeps and how the build reads them.
void AppendJoinLines(const readpath::ReadPlan& plan,
                     std::vector<std::string>* out) {
  for (const readpath::DimPlan& dim : plan.dims) {
    const Schema& schema = dim.table->schema();
    std::string line = "join " + dim.table->name() + ": " +
                       plan.table->schema().column(dim.fact_key).name +
                       " = " + schema.column(schema.primary_key()[0]).name +
                       ", build columns (";
    for (ColumnId c : dim.values) {
      line += schema.column(c).name + (c == dim.values.back() ? "" : ", ");
    }
    out->push_back(line + "), build access: " +
                   (dim.path == readpath::AccessPath::kStitch
                        ? "stitch"
                        : "covering-fragment scan"));
  }
}

/// The access path readpath::Bind picks — the plan the executor runs —
/// and whether the server would admit it to the admission queue, where it
/// can share its scan with co-queued reads.
void AppendPathLines(Database* db, const Query& query,
                     std::vector<std::string>* out) {
  Result<readpath::ReadPlan> plan = readpath::Bind(db->catalog(), query);
  if (!plan.ok()) {
    out->push_back("path: per-statement (" + plan.status().message() + ")");
    out->push_back("batch_shareable: no (per-statement path)");
    return;
  }
  std::string path = "path: " + std::string(AccessPathName(plan->path));
  if (plan->path >= readpath::AccessPath::kIndexSeed) {  // a covered scan
    path += " at DOP " + std::to_string(db->num_threads());
  }
  out->push_back(path);
  AppendJoinLines(*plan, out);
  out->push_back(plan->shareable
                     ? "batch_shareable: yes (shared-scan group on " +
                           plan->table->name() + ")"
                     : "batch_shareable: no (per-statement path)");
}

void AppendPredictionLines(Database* db, const Query& query,
                           std::vector<std::string>* out) {
  if (!db->has_cost_predictor()) {
    out->push_back(
        "predicted_cost_ms: none (no cost predictor installed; start the "
        "storage advisor to cost queries)");
    return;
  }
  out->push_back("predicted_cost_ms: " + FormatMs(db->PredictCost(query)));
}

}  // namespace

std::vector<std::string> ExplainLines(Database* db, const Query& query) {
  std::vector<std::string> out;
  out.push_back("query: " + QueryToString(query));
  out.push_back("kind: " + std::string(QueryKindName(KindOf(query))));

  const std::vector<std::string> tables = TablesOf(query);
  // Reader locks + epoch pin for a consistent catalog view, the same
  // discipline as the adaptation controller's planning reads.
  CatalogReadLock lock(db->catalog(), tables);
  AppendPredictionLines(db, query, &out);
  AppendPathLines(db, query, &out);
  for (const std::string& name : tables) {
    AppendTableLines(db->catalog(), name, &out);
  }
  return out;
}

Result<std::vector<std::string>> ExplainAnalyzeLines(Database* db,
                                                     const Query& query) {
  std::vector<std::string> out;
  out.push_back("query: " + QueryToString(query));
  out.push_back("kind: " + std::string(QueryKindName(KindOf(query))));

  // Morsel delta around the execution. Approximate under concurrent
  // traffic (the counter is process-wide); exact when the server is quiet.
  telemetry::Counter& morsels = db->metrics().GetCounter(
      "hsdb_scan_morsels_total",
      "Morsels dispatched by the scan path.");
  const uint64_t morsels_before = morsels.value();
  HSDB_ASSIGN_OR_RETURN(QueryResult result, db->Execute(query));
  const uint64_t morsels_after = morsels.value();

  switch (KindOf(query)) {
    case QueryKind::kSelect:
      out.push_back("result: " + std::to_string(result.rows.size()) +
                    " row(s)");
      break;
    case QueryKind::kAggregation:
      if (result.rows.empty()) {
        std::string line =
            "result: " + std::to_string(result.aggregates.size()) +
            " aggregate(s):";
        for (double v : result.aggregates) {
          line += " " + FormatAggregate(v);
        }
        out.push_back(line);
      } else {
        out.push_back("result: " + std::to_string(result.rows.size()) +
                      " group(s)");
      }
      break;
    default:
      out.push_back("result: " + std::to_string(result.affected_rows) +
                    " row(s) affected");
  }
  out.push_back("observed_ms: " + FormatMs(result.elapsed_ms));
  if (result.predicted_cost_ms >= 0.0) {
    out.push_back("predicted_cost_ms: " + FormatMs(result.predicted_cost_ms));
    const double delta = result.elapsed_ms - result.predicted_cost_ms;
    std::string line = "predicted_vs_observed: " + FormatMs(delta) + " ms";
    if (result.elapsed_ms > 0.0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " (%+.1f%% of observed)",
                    100.0 * delta / result.elapsed_ms);
      line += buf;
    }
    out.push_back(line);
  } else {
    out.push_back("predicted_cost_ms: none (no cost predictor installed)");
  }
  out.push_back("morsels_dispatched: " +
                std::to_string(morsels_after - morsels_before));
  if (result.trace != nullptr) {
    out.push_back("trace:");
    AppendTraceLines(*result.trace, 1, &out);
  } else {
    out.push_back("trace: none (telemetry disabled)");
  }
  return out;
}

}  // namespace server
}  // namespace hsdb
