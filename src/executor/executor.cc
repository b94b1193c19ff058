#include "executor/executor.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

#include "executor/aggregate.h"
#include "executor/read_path.h"
#include "storage/scan_dispatch.h"
#include "telemetry/trace.h"

namespace hsdb {

namespace rp = readpath;

namespace {

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace

Result<QueryResult> Executor::Execute(const Query& query) {
  const QueryKind kind = KindOf(query);
  if (kind == QueryKind::kInsert) {
    return ExecuteInsert(std::get<InsertQuery>(query));
  }
  if (kind == QueryKind::kAggregation &&
      std::get<AggregationQuery>(query).tables.size() != 1) {
    return StarJoinAggregation(std::get<AggregationQuery>(query));
  }
  HSDB_ASSIGN_OR_RETURN(rp::ReadPlan plan, rp::Bind(*catalog_, query));
  switch (kind) {
    case QueryKind::kSelect:
      return ExecuteSelect(std::get<SelectQuery>(query), plan);
    case QueryKind::kAggregation:
      return SingleTableAggregation(std::get<AggregationQuery>(query), plan);
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
    HSDB_ASSIGN_OR_RETURN(
        std::vector<PrimaryKey> pks,
        rp::MatchingPksInGroup(plan.table->groups()[g], plan.terms));
    for (const PrimaryKey& pk : pks) {
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
    for (const RowGroup& group : plan.table->groups()) {
      HSDB_ASSIGN_OR_RETURN(std::vector<PrimaryKey> pks,
                            rp::MatchingPksInGroup(group, plan.terms));
      for (PrimaryKey& pk : pks) all_pks.push_back(std::move(pk));
    }
  }
  telemetry::ScopedSpan write_span("write");
  for (const PrimaryKey& pk : all_pks) {
    HSDB_RETURN_IF_ERROR(write(pk));
    ++result.affected_rows;
  }
  return result;
}

Result<QueryResult> Executor::SingleTableAggregation(
    const AggregationQuery& q, const rp::ReadPlan& plan) {
  const bool grouped = !q.group_by.empty();
  std::vector<AggState> totals(q.aggregates.size());
  GroupMap group_map;

  telemetry::ScopedSpan scan_span("scan");
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    const rp::GroupPlan& group = plan.groups[g];
    if (group.path != rp::AccessPath::kStitch) {
      const std::optional<Bitmap> seeded = rp::SeedBitmap(group, plan.terms);
      rp::AggregateCover(parallel_, *group.cover, plan.terms, q, grouped,
                         seeded ? &*seeded : nullptr, &totals, &group_map);
      continue;
    }
    // Stitch full logical rows (vertical-partition join).
    telemetry::ScopedSpan stitch_span("stitch");
    GroupKey key;
    plan.table->ForEachRowInGroup(g, [&](const Row& row) {
      for (const PredicateTerm* term : plan.terms) {
        if (!term->range.Contains(row[term->column.column])) return;
      }
      std::vector<AggState>* states = &totals;
      if (grouped) {
        key.values.clear();
        for (const ColumnRef& ref : q.group_by) {
          key.values.push_back(row[ref.column]);
        }
        states = &GroupStates(&group_map, key, q.aggregates.size());
      }
      for (size_t i = 0; i < q.aggregates.size(); ++i) {
        const AggregateExpr& agg = q.aggregates[i];
        if (agg.fn == AggFn::kCount) {
          (*states)[i].AddCount(1.0);
        } else {
          (*states)[i].Add(row[agg.column.column].AsNumeric());
        }
      }
    });
  }
  return rp::FinalizeAggregation(q, grouped, totals, group_map);
}

Result<QueryResult> Executor::StarJoinAggregation(const AggregationQuery& q) {
  if (q.tables.empty()) {
    return Status::InvalidArgument("aggregation requires a table");
  }
  if (q.aggregates.empty()) {
    return Status::InvalidArgument("aggregation requires an aggregate");
  }
  const int num_tables = static_cast<int>(q.tables.size());
  auto check_ref = [&](const ColumnRef& ref) -> Status {
    if (ref.table_index < 0 || ref.table_index >= num_tables) {
      return Status::InvalidArgument("column ref table index out of range");
    }
    LogicalTable* t = catalog_->GetTable(q.tables[ref.table_index]);
    if (t == nullptr) {
      return Status::NotFound("table " + q.tables[ref.table_index] +
                              " does not exist");
    }
    if (ref.column >= t->schema().num_columns()) {
      return Status::InvalidArgument("column ref out of range");
    }
    return Status::OK();
  };
  for (const AggregateExpr& agg : q.aggregates) {
    if (agg.fn != AggFn::kCount) {
      HSDB_RETURN_IF_ERROR(check_ref(agg.column));
      LogicalTable* t = catalog_->GetTable(q.tables[agg.column.table_index]);
      if (!IsNumeric(t->schema().column(agg.column.column).type)) {
        return Status::InvalidArgument("aggregate over non-numeric column");
      }
    }
  }
  for (const ColumnRef& ref : q.group_by) HSDB_RETURN_IF_ERROR(check_ref(ref));
  for (const PredicateTerm& term : q.predicate) {
    HSDB_RETURN_IF_ERROR(check_ref(term.column));
  }
  // Exactly one edge from the fact to each dimension.
  if (q.joins.size() != q.tables.size() - 1) {
    return Status::InvalidArgument("star join requires one edge per dim");
  }
  std::vector<bool> joined(q.tables.size(), false);
  for (const JoinEdge& e : q.joins) {
    if (e.left_table != 0) {
      return Status::NotSupported("only star joins on the first table");
    }
    if (e.right_table <= 0 || e.right_table >= num_tables ||
        joined[e.right_table]) {
      return Status::InvalidArgument("invalid join edge");
    }
    joined[e.right_table] = true;
    HSDB_RETURN_IF_ERROR(check_ref({e.left_column, 0}));
    HSDB_RETURN_IF_ERROR(check_ref({e.right_column, e.right_table}));
  }
  HSDB_ASSIGN_OR_RETURN(LogicalTable * fact, catalog_->Find(q.tables[0]));

  struct DimSide {
    int table_index;
    ColumnId fact_join_col;
    ColumnId dim_join_col;
    std::vector<ColumnId> needed;                       // dim logical columns
    std::unordered_map<ColumnId, size_t> needed_pos;    // -> index in needed
    std::unordered_map<Value, Row, ValueHasher> rows;   // join key -> values
  };
  std::vector<DimSide> dims;
  dims.reserve(q.joins.size());
  std::vector<int> dim_of_table(q.tables.size(), -1);

  for (const JoinEdge& e : q.joins) {
    DimSide dim;
    dim.table_index = e.right_table;
    dim.fact_join_col = e.left_column;
    dim.dim_join_col = e.right_column;
    dim_of_table[e.right_table] = static_cast<int>(dims.size());
    dims.push_back(std::move(dim));
  }
  auto need_dim_col = [&](const ColumnRef& ref) {
    if (ref.table_index == 0) return;
    DimSide& dim = dims[dim_of_table[ref.table_index]];
    if (dim.needed_pos.emplace(ref.column, dim.needed.size()).second) {
      dim.needed.push_back(ref.column);
    }
  };
  for (const ColumnRef& ref : q.group_by) need_dim_col(ref);
  for (const AggregateExpr& agg : q.aggregates) {
    if (agg.fn != AggFn::kCount) need_dim_col(agg.column);
  }

  // Build dimension hash tables (predicates on the dimension applied here).
  {
    telemetry::ScopedSpan build_span("join_build");
    for (DimSide& dim : dims) {
      HSDB_ASSIGN_OR_RETURN(LogicalTable * dt,
                            catalog_->Find(q.tables[dim.table_index]));
      std::vector<const PredicateTerm*> dim_terms =
          rp::TermsForTable(q.predicate, dim.table_index);
      HSDB_RETURN_IF_ERROR(rp::ValidateTerms(dt->schema(), dim_terms));
      dt->ForEachRow([&](const Row& row) {
        for (const PredicateTerm* term : dim_terms) {
          if (!term->range.Contains(row[term->column.column])) return;
        }
        dim.rows.emplace(row[dim.dim_join_col], ProjectRow(row, dim.needed));
      });
    }
  }

  std::vector<const PredicateTerm*> fact_terms =
      rp::TermsForTable(q.predicate, 0);
  HSDB_RETURN_IF_ERROR(rp::ValidateTerms(fact->schema(), fact_terms));

  const bool grouped = !q.group_by.empty();
  std::vector<AggState> totals(q.aggregates.size());
  GroupMap group_map;
  std::vector<const Row*> dim_rows(dims.size());
  GroupKey key;

  // Shared probe logic; `get` materializes a fact column value.
  auto probe_row = [&](auto&& get) {
    for (size_t d = 0; d < dims.size(); ++d) {
      auto it = dims[d].rows.find(get(dims[d].fact_join_col));
      if (it == dims[d].rows.end()) return;  // join miss
      dim_rows[d] = &it->second;
    }
    std::vector<AggState>* states = &totals;
    if (grouped) {
      key.values.clear();
      for (const ColumnRef& ref : q.group_by) {
        if (ref.table_index == 0) {
          key.values.push_back(get(ref.column));
        } else {
          const DimSide& dim = dims[dim_of_table[ref.table_index]];
          key.values.push_back(
              (*dim_rows[dim_of_table[ref.table_index]])[dim.needed_pos.at(
                  ref.column)]);
        }
      }
      states = &GroupStates(&group_map, key, q.aggregates.size());
    }
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      const AggregateExpr& agg = q.aggregates[i];
      if (agg.fn == AggFn::kCount) {
        (*states)[i].AddCount(1.0);
        continue;
      }
      double v;
      if (agg.column.table_index == 0) {
        v = get(agg.column.column).AsNumeric();
      } else {
        const DimSide& dim = dims[dim_of_table[agg.column.table_index]];
        v = (*dim_rows[dim_of_table[agg.column.table_index]])[dim.needed_pos
                .at(agg.column.column)]
                .AsNumeric();
      }
      (*states)[i].Add(v);
    }
  };

  // Fact columns the probe needs.
  std::vector<ColumnId> needed;
  for (const DimSide& dim : dims) needed.push_back(dim.fact_join_col);
  for (const AggregateExpr& agg : q.aggregates) {
    if (agg.fn != AggFn::kCount && agg.column.table_index == 0) {
      needed.push_back(agg.column.column);
    }
  }
  for (const ColumnRef& ref : q.group_by) {
    if (ref.table_index == 0) needed.push_back(ref.column);
  }
  for (const PredicateTerm* term : fact_terms) {
    needed.push_back(term->column.column);
  }
  needed = rp::UniqueColumns(std::move(needed));

  telemetry::ScopedSpan probe_span("probe");
  for (size_t g = 0; g < fact->groups().size(); ++g) {
    const RowGroup& group = fact->groups()[g];
    if (const Fragment* cover = rp::CoveringFragment(group, needed)) {
      Bitmap bm = rp::EvaluateOnFragment(*cover, fact_terms);
      bm.ForEachSet([&](size_t rid) {
        probe_row([&](ColumnId col) {
          return cover->table->GetValue(rid, cover->FragColumn(col));
        });
      });
    } else {
      fact->ForEachRowInGroup(g, [&](const Row& row) {
        for (const PredicateTerm* term : fact_terms) {
          if (!term->range.Contains(row[term->column.column])) return;
        }
        probe_row([&](ColumnId col) { return row[col]; });
      });
    }
  }

  return rp::FinalizeAggregation(q, grouped, totals, group_map);
}

}  // namespace hsdb
