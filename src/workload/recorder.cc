#include "workload/recorder.h"

#include <algorithm>

namespace hsdb {

namespace {

/// Histogram buckets for update-key tracking.
constexpr size_t kUpdateHistogramBuckets = 128;

bool PointKeyOf(const Predicate& predicate, const Schema& schema,
                int64_t* key) {
  if (schema.primary_key().size() != 1) return false;
  ColumnId pk = schema.primary_key()[0];
  if (!IsPointPredicateOn(predicate, pk)) return false;
  const Value& v = *predicate[0].range.lo;
  if (!IsNumeric(v.type())) return false;
  *key = static_cast<int64_t>(v.AsNumeric());
  return true;
}

}  // namespace

TableWorkloadStats& WorkloadStatistics::TableEntry(const std::string& name,
                                                   const Catalog& catalog) {
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second;
  TableWorkloadStats stats;
  stats.hot_update_keys = SpaceSaving(hot_key_capacity_);
  const LogicalTable* table = catalog.GetTable(name);
  size_t num_columns = table != nullptr ? table->schema().num_columns() : 0;
  stats.columns.resize(num_columns);
  // Histogram domain: primary-key range from catalog statistics when
  // available, a generous default otherwise.
  int64_t lo = 0;
  int64_t hi = int64_t{1} << 20;
  if (table != nullptr) {
    const TableStatistics* ts = catalog.GetStatistics(name);
    if (ts != nullptr) {
      const ColumnStatistics& pk_stats =
          ts->column(table->schema().primary_key()[0]);
      if (pk_stats.min.has_value() && pk_stats.max.has_value() &&
          *pk_stats.max > *pk_stats.min) {
        lo = static_cast<int64_t>(*pk_stats.min);
        // Leave headroom above the current max so newly inserted (hot) keys
        // still land in distinguishable buckets.
        int64_t width = static_cast<int64_t>(*pk_stats.max) - lo;
        hi = static_cast<int64_t>(*pk_stats.max) + std::max<int64_t>(
            1, width / 4);
      }
    }
  }
  stats.update_key_histogram =
      EquiWidthHistogram(lo, hi, kUpdateHistogramBuckets);
  return tables_.emplace(name, std::move(stats)).first->second;
}

void WorkloadStatistics::Record(const Query& query, const Catalog& catalog) {
  ++total_queries_;
  if (IsOlap(query)) ++olap_queries_;

  std::visit(
      [&](const auto& q) {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, InsertQuery>) {
          TableWorkloadStats& t = TableEntry(q.table, catalog);
          ++t.queries;
          ++t.inserts;
        } else if constexpr (std::is_same_v<T, UpdateQuery>) {
          TableWorkloadStats& t = TableEntry(q.table, catalog);
          ++t.queries;
          ++t.updates;
          t.updated_columns_total += q.set_columns.size();
          const LogicalTable* table = catalog.GetTable(q.table);
          if (table != nullptr) {
            size_t non_key = 0;
            for (ColumnId c = 0; c < table->schema().num_columns(); ++c) {
              if (!table->schema().IsPrimaryKeyColumn(c)) ++non_key;
            }
            if (non_key > 0 && q.set_columns.size() * 2 >= non_key) {
              ++t.wide_updates;
            }
            int64_t key;
            if (PointKeyOf(q.predicate, table->schema(), &key)) {
              t.update_key_histogram.Add(key);
              t.hot_update_keys.Add(key);
            }
          }
          for (ColumnId c : q.set_columns) {
            if (c < t.columns.size()) ++t.columns[c].updates;
          }
          for (const PredicateTerm& term : q.predicate) {
            if (term.column.column < t.columns.size()) {
              ++t.columns[term.column.column].filter_uses;
            }
          }
        } else if constexpr (std::is_same_v<T, DeleteQuery>) {
          TableWorkloadStats& t = TableEntry(q.table, catalog);
          ++t.queries;
          ++t.deletes;
          for (const PredicateTerm& term : q.predicate) {
            if (term.column.column < t.columns.size()) {
              ++t.columns[term.column.column].filter_uses;
            }
          }
        } else if constexpr (std::is_same_v<T, SelectQuery>) {
          TableWorkloadStats& t = TableEntry(q.table, catalog);
          ++t.queries;
          const LogicalTable* table = catalog.GetTable(q.table);
          bool is_point = false;
          if (table != nullptr &&
              table->schema().primary_key().size() == 1) {
            is_point = IsPointPredicateOn(
                q.predicate, table->schema().primary_key()[0]);
          }
          if (is_point) {
            ++t.point_selects;
          } else {
            ++t.range_selects;
          }
          for (ColumnId c : q.select_columns) {
            if (c < t.columns.size()) ++t.columns[c].projection_uses;
          }
          for (const PredicateTerm& term : q.predicate) {
            if (term.column.column < t.columns.size()) {
              ++t.columns[term.column.column].filter_uses;
            }
          }
        } else if constexpr (std::is_same_v<T, AggregationQuery>) {
          for (size_t i = 0; i < q.tables.size(); ++i) {
            TableWorkloadStats& t = TableEntry(q.tables[i], catalog);
            ++t.queries;
            ++t.aggregations;
            if (q.tables.size() > 1) {
              ++t.joins;
              for (size_t j = 0; j < q.tables.size(); ++j) {
                if (j != i) ++t.join_partners[q.tables[j]];
              }
            }
          }
          for (const AggregateExpr& agg : q.aggregates) {
            if (agg.fn == AggFn::kCount) continue;
            TableWorkloadStats& t =
                TableEntry(q.tables[agg.column.table_index], catalog);
            if (agg.column.column < t.columns.size()) {
              ++t.columns[agg.column.column].aggregate_uses;
            }
          }
          for (const ColumnRef& ref : q.group_by) {
            TableWorkloadStats& t =
                TableEntry(q.tables[ref.table_index], catalog);
            if (ref.column < t.columns.size()) {
              ++t.columns[ref.column].group_by_uses;
            }
          }
          for (const PredicateTerm& term : q.predicate) {
            TableWorkloadStats& t =
                TableEntry(q.tables[term.column.table_index], catalog);
            if (term.column.column < t.columns.size()) {
              ++t.columns[term.column.column].filter_uses;
            }
          }
        }
      },
      query);
}

const TableWorkloadStats* WorkloadStatistics::table(
    const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

void WorkloadStatistics::Reset() {
  tables_.clear();
  total_queries_ = 0;
  olap_queries_ = 0;
}

WorkloadRecorder::WorkloadRecorder(const Catalog* catalog,
                                   size_t max_recorded_queries,
                                   size_t hot_key_capacity,
                                   telemetry::MetricsRegistry* metrics)
    : catalog_(catalog),
      max_queries_(max_recorded_queries),
      hot_key_capacity_(hot_key_capacity),
      statistics_(hot_key_capacity),
      metrics_(metrics != nullptr ? metrics
                                  : &telemetry::MetricsRegistry::Global()) {
  recorded_total_ = &metrics_->GetCounter(
      "hsdb_recorder_queries_total",
      "Queries the workload recorder observed (lifetime).");
  epochs_total_ = &metrics_->GetCounter(
      "hsdb_recorder_epochs_total", "Recorder epoch rollovers.");
  epoch_gauge_ = &metrics_->GetGauge("hsdb_recorder_epoch",
                                     "Current recorder epoch index.");
  epoch_queries_gauge_ = &metrics_->GetGauge(
      "hsdb_recorder_epoch_queries",
      "Queries observed in the current recorder epoch.");
  sampled_queries_gauge_ = &metrics_->GetGauge(
      "hsdb_recorder_sampled_queries",
      "Raw queries currently retained in the epoch's reservoir sample.");
}

void WorkloadRecorder::MirrorToMetrics() {
  if (!telemetry::kCompiledIn || !metrics_->enabled()) return;
  epoch_gauge_->Set(static_cast<double>(epoch_));
  epoch_queries_gauge_->Set(static_cast<double>(epoch_seen_));
  sampled_queries_gauge_->Set(static_cast<double>(queries_.size()));
}

void WorkloadRecorder::OnQuery(const Query& query, const QueryResult&) {
  std::lock_guard<std::mutex> lock(mu_);
  statistics_.Record(query, *catalog_);
  ++seen_;
  ++epoch_seen_;
  if (telemetry::kCompiledIn && metrics_->enabled()) {
    recorded_total_->Increment();
  }
  if (max_queries_ == 0) {
    MirrorToMetrics();
    return;
  }
  if (queries_.size() < max_queries_) {
    queries_.push_back(query);
    MirrorToMetrics();
    return;
  }
  // Reservoir sampling keeps a uniform sample of the epoch's stream.
  uint64_t j = static_cast<uint64_t>(
      rng_.UniformInt(0, static_cast<int64_t>(epoch_seen_) - 1));
  if (j < max_queries_) queries_[j] = query;
  MirrorToMetrics();
}

void WorkloadRecorder::BeginEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  statistics_ = WorkloadStatistics(hot_key_capacity_);
  queries_.clear();
  epoch_seen_ = 0;
  ++epoch_;
  if (telemetry::kCompiledIn && metrics_->enabled()) {
    epochs_total_->Increment();
  }
  MirrorToMetrics();
}

void WorkloadRecorder::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  statistics_ = WorkloadStatistics(hot_key_capacity_);
  queries_.clear();
  seen_ = 0;
  epoch_seen_ = 0;
  epoch_ = 0;
  MirrorToMetrics();
}

}  // namespace hsdb
