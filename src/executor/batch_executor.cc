#include "executor/batch_executor.h"

#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "common/epoch.h"
#include "common/stopwatch.h"
#include "executor/read_path.h"
#include "storage/scan_dispatch.h"
#include "telemetry/trace.h"

namespace hsdb {

namespace rp = readpath;

/// One member of a batch. `plan` is set when the member binds to a
/// shareable plan in a group of two or more; every other read takes the
/// per-statement path. The plan's pointers are followed only under the
/// group's lock; after it, the plan just marks the member as shared.
/// `bitmaps` is indexed by row group.
struct BatchExecutor::SharedRead {
  const Query* query = nullptr;
  double queue_wait_ms = 0.0;
  std::optional<rp::ReadPlan> plan;
  double predicted_ms = -1.0;
  std::vector<Bitmap> bitmaps;
  Result<QueryResult> result = Status::InvalidArgument(
      "not a single-table read: a batch executes reads only");
};

BatchExecutor::BatchExecutor(Database* db) : db_(db) {
  telemetry::MetricsRegistry& metrics = db_->metrics();
  batch_groups_total_ = &metrics.GetCounter(
      "hsdb_batch_groups_total",
      "Shared-scan groups executed by the batch executor.");
  batch_shared_queries_total_ = &metrics.GetCounter(
      "hsdb_batch_shared_queries_total",
      "Queries answered from a shared scan (excludes per-statement ones).");
  batch_width_ = &metrics.GetHistogram(
      "hsdb_batch_width",
      "Queries per executed shared-scan group (the amortization width).");
}

const std::string* BatchExecutor::ShareableTable(const Query& query) {
  switch (KindOf(query)) {
    case QueryKind::kSelect:
      return &std::get<SelectQuery>(query).table;
    case QueryKind::kAggregation: {
      const auto& q = std::get<AggregationQuery>(query);
      if (q.tables.size() == 1 && q.joins.empty()) return &q.tables.front();
      return nullptr;
    }
    default:
      return nullptr;
  }
}

bool BatchExecutor::Shareable(const Query& query) const {
  const std::string* table = ShareableTable(query);
  if (table == nullptr) return false;
  CatalogReadLock lock(db_->catalog(), {*table});
  Result<rp::ReadPlan> plan = rp::Bind(db_->catalog(), query);
  return plan.ok() && plan->shareable;
}

std::vector<Result<QueryResult>> BatchExecutor::ExecuteBatch(
    const std::vector<Query>& queries,
    const std::vector<double>* queue_waits_ms) {
  std::vector<SharedRead> members(queries.size());
  std::map<std::string, std::vector<SharedRead*>> groups;
  for (size_t i = 0; i < queries.size(); ++i) {
    members[i].query = &queries[i];
    if (queue_waits_ms != nullptr && i < queue_waits_ms->size()) {
      members[i].queue_wait_ms = (*queue_waits_ms)[i];
    }
    if (const std::string* table = ShareableTable(queries[i])) {
      groups[*table].push_back(&members[i]);
    }
  }
  for (const auto& [table, group] : groups) {
    // A lone read gains nothing from the shared pass.
    const size_t width =
        group.size() > 1 ? ExecuteSharedGroup(table, group) : 0;
    // Shared members are accounted first, each with the group's width (its
    // slow-query record need not sit next to its co-members': concurrent
    // drainers interleave records); the rest run per statement afterwards,
    // outside the group's reader lock (see header).
    for (SharedRead* m : group) {
      if (!m->plan.has_value()) continue;
      telemetry::ScopedQueueWait wait(m->queue_wait_ms);
      m->result = db_->FinishStatement(*m->query, std::move(m->result),
                                       m->predicted_ms, width);
    }
    for (SharedRead* m : group) {
      if (m->plan.has_value()) continue;
      telemetry::ScopedQueueWait wait(m->queue_wait_ms);
      m->result = db_->Execute(*m->query);
    }
  }
  std::vector<Result<QueryResult>> out;
  out.reserve(members.size());
  for (SharedRead& m : members) out.push_back(std::move(m.result));
  return out;
}

void BatchExecutor::MaterializeMember(SharedRead* m) const {
  const rp::ReadPlan& plan = *m->plan;
  QueryResult& result = *m->result;
  const ParallelContext& parallel = db_->parallel();
  if (const auto* q = std::get_if<SelectQuery>(m->query)) {
    const size_t limit = q->limit.value_or(std::numeric_limits<size_t>::max());
    for (size_t g = 0; g < plan.groups.size(); ++g) {
      if (result.rows.size() >= limit) break;
      rp::SelectCover(parallel, *plan.groups[g].cover, plan.terms,
                      q->select_columns, limit, &m->bitmaps[g], &result);
    }
    return;
  }
  const auto& q = std::get<AggregationQuery>(*m->query);
  const bool grouped = !q.group_by.empty();
  std::vector<AggState> totals(q.aggregates.size());
  GroupMap group_map;
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    rp::AggregateCover(parallel, *plan.groups[g].cover, plan.terms, q, grouped,
                       &m->bitmaps[g], /*dims=*/{}, &totals, &group_map);
  }
  result = rp::FinalizeAggregation(q, grouped, totals, group_map);
}

size_t BatchExecutor::ExecuteSharedGroup(
    const std::string& table_name, const std::vector<SharedRead*>& members) {
  Stopwatch sw;
  const ParallelContext& parallel = db_->parallel();
  // No per-statement tracer is installed around a batch, so without this the
  // scan_shared span would vanish. One tracer covers the whole group; every
  // shared member gets the same finished tree (the group IS their
  // execution), which is what `explain analyze` renders for batched reads.
  std::optional<telemetry::Tracer> tracer;
  if (db_->TelemetryOn()) tracer.emplace("batch_group");
  std::vector<SharedRead*> shared;
  {
    // Same discipline as a serial read statement: pin the reclamation epoch,
    // then take the table's reader lock for the whole group.
    EpochPin pin(&db_->catalog().epochs());
    std::shared_ptr<TableSync> sync = db_->catalog().sync(table_name);
    std::shared_lock<std::shared_mutex> rd(sync->rw);

    // Bind every member; predict the shared ones under the same lock, before
    // the shared pass, exactly where a serial statement predicts. Fewer than
    // two shareable plans share nothing: those run per statement.
    for (SharedRead* m : members) {
      Result<rp::ReadPlan> plan = rp::Bind(db_->catalog(), *m->query);
      if (!plan.ok() || !plan->shareable) continue;
      m->plan = std::move(plan).value();
      shared.push_back(m);
    }
    if (shared.size() < 2) {
      for (SharedRead* m : shared) m->plan.reset();
      return 0;
    }
    for (SharedRead* m : shared) {
      m->bitmaps.resize(m->plan->groups.size());
      m->result = QueryResult();
      if (tracer.has_value()) m->predicted_ms = db_->PredictCost(*m->query);
    }
    // As for a serial statement, lock wait and prediction are not part of
    // the observed time.
    sw.Restart();

    // Shared predicate pass, per (row group, covering fragment): one
    // MultiFilterRangeSlice per predicate column narrows every member's
    // bitmap in a single decode of the encoded segment, morsel by morsel —
    // disjoint 64-aligned slices of all the bitmaps, exactly like the
    // single-query scan kernel.
    telemetry::ScopedSpan scan_span("scan_shared");
    const size_t num_groups = shared.front()->plan->groups.size();
    for (size_t g = 0; g < num_groups; ++g) {
      std::map<const Fragment*, std::vector<SharedRead*>> buckets;
      for (SharedRead* m : shared) {
        buckets[m->plan->groups[g].cover].push_back(m);
      }
      for (auto& [frag, ms] : buckets) {
        for (SharedRead* m : ms) m->bitmaps[g] = frag->table->live_bitmap();
        std::map<ColumnId, std::vector<RangeScanTarget>> by_col;
        for (SharedRead* m : ms) {
          for (const PredicateTerm* term : m->plan->terms) {
            by_col[frag->FragColumn(term->column.column)].push_back(
                RangeScanTarget{&term->range, &m->bitmaps[g]});
          }
        }
        if (by_col.empty()) continue;  // unfiltered scans: live bitmap is it
        rp::ForEachMorsel(
            parallel, frag->table->slot_count(),
            [&](size_t, size_t begin, size_t end) {
              for (auto& [col, targets] : by_col) {
                frag->table->MultiFilterRangeSlice(col, targets.data(),
                                                   targets.size(), begin, end);
              }
            });
      }
    }
    for (SharedRead* m : shared) MaterializeMember(m);
  }
  // Amortized cost share: the latency a co-running client of this group
  // actually observed. This is what the workload recorder feeds the
  // batch-aware cost model, and what the members' residuals compare with.
  const double share_ms = sw.ElapsedMs() / static_cast<double>(shared.size());
  std::shared_ptr<const telemetry::TraceSpan> tree;
  if (tracer.has_value()) {
    tree = std::make_shared<const telemetry::TraceSpan>(tracer->Finish());
    batch_groups_total_->Increment();
    batch_shared_queries_total_->Increment(shared.size());
    batch_width_->Observe(static_cast<double>(shared.size()));
  }
  for (SharedRead* m : shared) {
    m->result->elapsed_ms = share_ms;
    m->result->trace = tree;
  }
  return shared.size();
}

}  // namespace hsdb
