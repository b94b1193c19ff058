#include "executor/executor.h"

#include <iterator>
#include <limits>
#include <optional>

#include "executor/aggregate.h"
#include "executor/read_path.h"
#include "telemetry/trace.h"

namespace hsdb {

namespace rp = readpath;

Result<QueryResult> Executor::Execute(const Query& query) {
  const QueryKind kind = KindOf(query);
  if (kind == QueryKind::kInsert) {
    return ExecuteInsert(std::get<InsertQuery>(query));
  }
  HSDB_ASSIGN_OR_RETURN(rp::ReadPlan plan, rp::Bind(*catalog_, query));
  switch (kind) {
    case QueryKind::kSelect:
      return ExecuteSelect(std::get<SelectQuery>(query), plan);
    case QueryKind::kAggregation:
      return ExecuteAggregation(std::get<AggregationQuery>(query), plan);
    default:
      return ExecuteKeyedWrite(query, plan);
  }
}

Result<QueryResult> Executor::ExecuteSelect(const SelectQuery& q,
                                            const rp::ReadPlan& plan) {
  QueryResult result;
  const size_t limit =
      q.limit.value_or(std::numeric_limits<size_t>::max());
  telemetry::ScopedSpan scan_span("scan");
  if (plan.path == rp::AccessPath::kPointPk) {
    Result<Row> row =
        plan.table->GetByPk(PrimaryKey::Of(*plan.terms[0]->range.lo));
    if (row.ok() && limit > 0) {
      result.rows.push_back(ProjectRow(*row, q.select_columns));
    }
    return result;
  }
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    if (result.rows.size() >= limit) break;
    const rp::GroupPlan& group = plan.groups[g];
    if (group.path != rp::AccessPath::kStitch) {
      const std::optional<Bitmap> seeded = rp::SeedBitmap(group, plan.terms);
      rp::SelectCover(parallel_, *group.cover, plan.terms, q.select_columns,
                      limit, seeded ? &*seeded : nullptr, &result);
      continue;
    }
    // Vertical split: resolve keys, then stitch projections.
    telemetry::ScopedSpan stitch_span("stitch");
    for (const PrimaryKey& pk :
         rp::MatchingPksInGroup(*plan.table, g, plan.terms)) {
      if (result.rows.size() >= limit) break;
      HSDB_ASSIGN_OR_RETURN(Row row, plan.table->GetByPk(pk));
      result.rows.push_back(ProjectRow(row, q.select_columns));
    }
  }
  return result;
}

Result<QueryResult> Executor::ExecuteInsert(const InsertQuery& q) {
  HSDB_ASSIGN_OR_RETURN(LogicalTable * table, catalog_->Find(q.table));
  telemetry::ScopedSpan write_span("write");
  HSDB_RETURN_IF_ERROR(table->Insert(q.row));
  QueryResult result;
  result.affected_rows = 1;
  return result;
}

Result<QueryResult> Executor::ExecuteKeyedWrite(const Query& query,
                                                const rp::ReadPlan& plan) {
  const auto* update = std::get_if<UpdateQuery>(&query);
  auto write = [&](const PrimaryKey& pk) {
    return update != nullptr
               ? plan.table->UpdateByPk(pk, update->set_columns,
                                        update->set_values)
               : plan.table->DeleteByPk(pk);
  };
  QueryResult result;
  if (plan.path == rp::AccessPath::kPointPk) {
    Status s = write(PrimaryKey::Of(*plan.terms[0]->range.lo));
    if (s.ok()) {
      result.affected_rows = 1;
    } else if (s.code() != StatusCode::kNotFound) {
      return s;
    }
    return result;
  }
  std::vector<PrimaryKey> all_pks;
  {
    telemetry::ScopedSpan scan_span("scan");
    for (size_t g = 0; g < plan.groups.size(); ++g) {
      std::vector<PrimaryKey> pks =
          rp::MatchingPksInGroup(*plan.table, g, plan.terms);
      std::move(pks.begin(), pks.end(), std::back_inserter(all_pks));
    }
  }
  telemetry::ScopedSpan write_span("write");
  for (const PrimaryKey& pk : all_pks) {
    HSDB_RETURN_IF_ERROR(write(pk));
    ++result.affected_rows;
  }
  return result;
}

Result<QueryResult> Executor::ExecuteAggregation(const AggregationQuery& q,
                                                 const rp::ReadPlan& plan) {
  std::vector<rp::DimTable> dims;
  if (!plan.dims.empty()) {
    telemetry::ScopedSpan build_span("join_build");
    for (const rp::DimPlan& dim : plan.dims) dims.push_back(rp::BuildDim(dim));
  }
  const bool grouped = !q.group_by.empty();
  std::vector<AggState> totals(q.aggregates.size());
  GroupMap group_map;

  telemetry::ScopedSpan scan_span(dims.empty() ? "scan" : "probe");
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    const rp::GroupPlan& group = plan.groups[g];
    if (group.path != rp::AccessPath::kStitch) {
      const std::optional<Bitmap> seeded = rp::SeedBitmap(group, plan.terms);
      rp::AggregateCover(parallel_, *group.cover, plan.terms, q, grouped,
                         seeded ? &*seeded : nullptr, dims, &totals,
                         &group_map);
      continue;
    }
    telemetry::ScopedSpan stitch_span("stitch");
    rp::AggregateStitched(*plan.table, g, plan.terms, q, grouped, dims,
                          &totals, &group_map);
  }
  return rp::FinalizeAggregation(q, grouped, totals, group_map);
}

}  // namespace hsdb
