#include "core/workload_model.h"

#include <algorithm>

namespace hsdb {

namespace {

/// Representative point predicate on the table's primary key. The concrete
/// key value only matters through its selectivity (a point), so the domain
/// midpoint is as good as any.
Predicate PointPkPredicate(const LogicalTable& table,
                           const TableStatistics* stats) {
  Predicate p;
  if (table.schema().primary_key().size() != 1) return p;
  ColumnId pk = table.schema().primary_key()[0];
  if (!IsNumeric(table.schema().column(pk).type)) return p;
  double mid = 0.0;
  if (stats != nullptr && stats->column(pk).min.has_value()) {
    mid = (*stats->column(pk).min + *stats->column(pk).max) / 2.0;
  }
  Value v;
  switch (table.schema().column(pk).type) {
    case DataType::kInt32:
      v = Value(static_cast<int32_t>(mid));
      break;
    case DataType::kInt64:
      v = Value(static_cast<int64_t>(mid));
      break;
    case DataType::kDouble:
      v = Value(mid);
      break;
    case DataType::kDate:
      v = Value(Date{static_cast<int32_t>(mid)});
      break;
    case DataType::kVarchar:
      return p;
  }
  p.push_back(PredicateTerm{{pk, 0}, ValueRange::Eq(v)});
  return p;
}

/// The `count` most frequently updated non-key columns.
std::vector<ColumnId> TopUpdatedColumns(const Schema& schema,
                                        const TableWorkloadStats& ts,
                                        size_t count) {
  std::vector<std::pair<uint64_t, ColumnId>> ranked;
  for (ColumnId c = 0; c < ts.columns.size() && c < schema.num_columns();
       ++c) {
    if (schema.IsPrimaryKeyColumn(c)) continue;
    if (ts.columns[c].updates > 0) {
      ranked.emplace_back(ts.columns[c].updates, c);
    }
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::vector<ColumnId> cols;
  for (size_t i = 0; i < ranked.size() && i < count; ++i) {
    cols.push_back(ranked[i].second);
  }
  return cols;
}

/// Neutral value of a column's type (only the column identity matters for
/// costing; the estimator never evaluates update payloads).
Value NeutralValue(DataType type) {
  switch (type) {
    case DataType::kInt32:
      return Value(int32_t{0});
    case DataType::kInt64:
      return Value(int64_t{0});
    case DataType::kDouble:
      return Value(0.0);
    case DataType::kDate:
      return Value(Date{0});
    case DataType::kVarchar:
      return Value("");
  }
  return Value(int32_t{0});
}

}  // namespace

std::vector<WeightedQuery> BuildWorkloadModel(const WorkloadStatistics& stats,
                                              const Catalog& catalog) {
  std::vector<WeightedQuery> model;
  for (const auto& [name, ts] : stats.tables()) {
    const LogicalTable* table = catalog.GetTable(name);
    if (table == nullptr) continue;
    const Schema& schema = table->schema();
    const TableStatistics* tstats = catalog.GetStatistics(name);

    if (ts.inserts > 0) {
      model.push_back(
          {Query(InsertQuery{name, {}}), static_cast<double>(ts.inserts)});
    }
    if (ts.updates > 0) {
      UpdateQuery u;
      u.table = name;
      u.predicate = PointPkPredicate(*table, tstats);
      size_t width = std::max<size_t>(
          1, static_cast<size_t>(ts.AvgUpdateWidth() + 0.5));
      for (ColumnId c : TopUpdatedColumns(schema, ts, width)) {
        u.set_columns.push_back(c);
        u.set_values.push_back(NeutralValue(schema.column(c).type));
      }
      if (!u.set_columns.empty()) {
        model.push_back({Query(u), static_cast<double>(ts.updates)});
      }
    }
    if (ts.point_selects > 0) {
      SelectQuery s;
      s.table = name;
      // Point queries retrieve whole tuples.
      for (ColumnId c = 0; c < schema.num_columns(); ++c) {
        s.select_columns.push_back(c);
      }
      s.predicate = PointPkPredicate(*table, tstats);
      model.push_back({Query(s), static_cast<double>(ts.point_selects)});
    }
    if (ts.range_selects > 0) {
      SelectQuery s;
      s.table = name;
      // Most-filtered column with a ~10% range as the representative shape.
      ColumnId best = 0;
      uint64_t best_uses = 0;
      for (ColumnId c = 0; c < ts.columns.size() && c < schema.num_columns();
           ++c) {
        if (ts.columns[c].filter_uses > best_uses &&
            IsNumeric(schema.column(c).type)) {
          best = c;
          best_uses = ts.columns[c].filter_uses;
        }
      }
      s.select_columns = {best};
      if (tstats != nullptr && tstats->column(best).min.has_value()) {
        double lo = *tstats->column(best).min;
        double hi = *tstats->column(best).max;
        double cut = lo + (hi - lo) * 0.1;
        s.predicate = {
            {{best, 0}, ValueRange::Between(Value(lo), Value(cut))}};
      }
      model.push_back({Query(s), static_cast<double>(ts.range_selects)});
    }

    // Aggregation classes: one per aggregated attribute, grouped when the
    // table sees grouping, joined when the table joins.
    ColumnId group_col = 0;
    uint64_t group_uses = 0;
    for (ColumnId c = 0; c < ts.columns.size() && c < schema.num_columns();
         ++c) {
      if (ts.columns[c].group_by_uses > group_uses) {
        group_col = c;
        group_uses = ts.columns[c].group_by_uses;
      }
    }
    uint64_t single_aggregations =
        ts.aggregations > ts.joins ? ts.aggregations - ts.joins : 0;
    uint64_t agg_use_total = 0;
    for (ColumnId c = 0; c < ts.columns.size() && c < schema.num_columns();
         ++c) {
      agg_use_total += ts.columns[c].aggregate_uses;
    }
    if (single_aggregations > 0 && agg_use_total > 0) {
      for (ColumnId c = 0; c < ts.columns.size() && c < schema.num_columns();
           ++c) {
        if (ts.columns[c].aggregate_uses == 0) continue;
        AggregationQuery a;
        a.tables = {name};
        a.aggregates = {{AggFn::kSum, {c, 0}}};
        if (group_uses > 0) a.group_by = {{group_col, 0}};
        double weight = static_cast<double>(single_aggregations) *
                        static_cast<double>(ts.columns[c].aggregate_uses) /
                        static_cast<double>(agg_use_total);
        model.push_back({Query(a), weight});
      }
    }
    // Join classes: this table as the (larger) fact side. Pairs are counted
    // on both tables; emitting from the larger side avoids double counting.
    for (const auto& [partner, count] : ts.join_partners) {
      const LogicalTable* dim = catalog.GetTable(partner);
      if (dim == nullptr) continue;
      if (dim->row_count() > table->row_count()) continue;
      ColumnId agg_col = 0;
      for (ColumnId c = 0; c < schema.num_columns(); ++c) {
        if (IsNumeric(schema.column(c).type) &&
            !schema.IsPrimaryKeyColumn(c)) {
          agg_col = c;
          break;
        }
      }
      AggregationQuery a;
      a.tables = {name, partner};
      a.joins = {{0, agg_col, 1, dim->schema().primary_key()[0]}};
      a.aggregates = {{AggFn::kSum, {agg_col, 0}}};
      if (group_uses > 0) a.group_by = {{group_col, 0}};
      model.push_back({Query(a), static_cast<double>(count)});
    }
  }
  return model;
}

}  // namespace hsdb
