#include "core/split_candidates.h"

#include <algorithm>
#include <optional>
#include <sstream>

namespace hsdb {

namespace {

/// Insert share of a table's queries that proposes a new-data partition
/// (the paper: "if it is sufficiently high").
constexpr double kInsertFractionThreshold = 0.05;
/// Histogram density factor for detecting hot update ranges.
constexpr double kHotDensityFactor = 2.0;
/// Minimum update mass a hot range must cover.
constexpr double kMinHotMass = 0.5;
/// Maximum width of a hot range (fraction of the key domain).
constexpr double kMaxHotWidth = 0.5;

/// OLTP attributes (paper §3.2): non-key columns used mainly and often for
/// updates rather than analyses.
std::vector<ColumnId> OltpColumns(const Schema& schema,
                                  const TableWorkloadStats& tstats) {
  std::vector<ColumnId> cols;
  for (ColumnId c = 0; c < tstats.columns.size() &&
                       c < schema.num_columns();
       ++c) {
    if (schema.IsPrimaryKeyColumn(c)) continue;
    const ColumnUsage& usage = tstats.columns[c];
    if (usage.updates > 0 && usage.OltpScore() > usage.OlapScore()) {
      cols.push_back(c);
    }
  }
  return cols;
}

bool HasOlapColumns(const Schema& schema, const TableWorkloadStats& tstats,
                    const std::vector<ColumnId>& oltp_cols) {
  for (ColumnId c = 0; c < tstats.columns.size() && c < schema.num_columns();
       ++c) {
    if (schema.IsPrimaryKeyColumn(c)) continue;
    if (std::find(oltp_cols.begin(), oltp_cols.end(), c) != oltp_cols.end()) {
      continue;
    }
    if (tstats.columns[c].OlapScore() > 0) return true;
  }
  return false;
}

}  // namespace

std::vector<LayoutCandidate> SplitCandidates(const Catalog& catalog,
                                             const std::string& name,
                                             const TableWorkloadStats& tstats) {
  std::vector<LayoutCandidate> candidates;
  const LogicalTable* table = catalog.GetTable(name);
  const TableStatistics* stats = catalog.GetStatistics(name);
  if (table == nullptr) return candidates;
  const Schema& schema = table->schema();

  // Partitioning requires a single-column numeric primary key (the split
  // column) and table statistics for the key domain.
  if (schema.primary_key().size() != 1 || stats == nullptr) {
    return candidates;
  }
  ColumnId pk = schema.primary_key()[0];
  if (!IsNumeric(schema.column(pk).type)) return candidates;
  const ColumnStatistics& pk_stats = stats->column(pk);
  if (!pk_stats.min.has_value() || !pk_stats.max.has_value()) {
    return candidates;
  }
  const double pk_min = *pk_stats.min;
  const double pk_max = *pk_stats.max;
  const double domain = std::max(1.0, pk_max - pk_min);

  // Vertical candidate: OLTP attributes to the row store.
  std::optional<VerticalSpec> vertical;
  std::vector<ColumnId> oltp_cols = OltpColumns(schema, tstats);
  if (!oltp_cols.empty() && HasOlapColumns(schema, tstats, oltp_cols)) {
    VerticalSpec spec{oltp_cols};
    TableLayout probe;
    probe.base_store = StoreType::kColumn;
    probe.vertical = spec;
    if (probe.Validate(schema).ok()) vertical = spec;
  }

  // Horizontal candidate A: new-data partition when inserts are frequent.
  std::optional<HorizontalSpec> horizontal;
  double hot_row_fraction = 0.0;
  double hot_access_fraction = 1.0;
  std::string horizontal_reason;
  if (tstats.InsertFraction() >= kInsertFractionThreshold) {
    HorizontalSpec spec;
    spec.column = pk;
    spec.boundary = pk_max + 1.0;  // future keys land in the hot piece
    spec.hot_store = StoreType::kRow;
    horizontal = spec;
    hot_row_fraction = 0.0;
    hot_access_fraction = 0.0;  // point access still targets existing rows
    horizontal_reason = "insert fraction " +
                        std::to_string(tstats.InsertFraction());
  }

  // Horizontal candidate B: hot update range -> row-store partition.
  if (!horizontal.has_value() && tstats.updates > 0) {
    auto ranges =
        tstats.update_key_histogram.DenseRanges(kHotDensityFactor);
    const HistogramRange* best = nullptr;
    for (const HistogramRange& r : ranges) {
      if (r.mass_fraction >= kMinHotMass &&
          r.width_fraction <= kMaxHotWidth &&
          (best == nullptr || r.mass_fraction > best->mass_fraction)) {
        best = &r;
      }
    }
    // Only upper key ranges are expressible (hot = keys >= boundary); the
    // range must reach the top of the *data* domain (the histogram keeps
    // headroom above pk_max for future inserts).
    if (best != nullptr && static_cast<double>(best->hi) >=
                               pk_max - domain * 0.05) {
      HorizontalSpec spec;
      spec.column = pk;
      spec.boundary = static_cast<double>(best->lo);
      spec.hot_store = StoreType::kRow;
      horizontal = spec;
      hot_row_fraction =
          std::clamp((pk_max - spec.boundary) / domain, 0.0, 1.0);
      hot_access_fraction = best->mass_fraction;
      horizontal_reason =
          "hot update range covering " +
          std::to_string(best->mass_fraction * 100.0) + "% of updates";
    }
  }

  if (horizontal.has_value()) {
    LayoutContext ctx;
    ctx.layout.base_store = StoreType::kColumn;
    ctx.layout.horizontal = horizontal;
    ctx.hot_row_fraction = hot_row_fraction;
    ctx.hot_access_fraction = hot_access_fraction;
    ctx.hot_insert_fraction = 1.0;
    candidates.push_back({ctx, "horizontal: " + horizontal_reason});
  }
  if (vertical.has_value()) {
    LayoutContext ctx;
    ctx.layout.base_store = StoreType::kColumn;
    ctx.layout.vertical = vertical;
    std::ostringstream os;
    os << "vertical: OLTP attributes [";
    for (size_t i = 0; i < vertical->row_store_columns.size(); ++i) {
      if (i > 0) os << ",";
      os << schema.column(vertical->row_store_columns[i]).name;
    }
    os << "] to the row store";
    candidates.push_back({ctx, os.str()});
  }
  if (horizontal.has_value() && vertical.has_value()) {
    LayoutContext ctx;
    ctx.layout.base_store = StoreType::kColumn;
    ctx.layout.horizontal = horizontal;
    ctx.layout.vertical = vertical;
    ctx.hot_row_fraction = hot_row_fraction;
    ctx.hot_access_fraction = hot_access_fraction;
    ctx.hot_insert_fraction = 1.0;
    candidates.push_back(
        {ctx, "combined horizontal (" + horizontal_reason + ") + vertical"});
  }
  return candidates;
}

}  // namespace hsdb
