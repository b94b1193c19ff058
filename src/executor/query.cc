#include "executor/query.h"

#include <sstream>

namespace hsdb {

std::string_view AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "SUM";
    case AggFn::kAvg:
      return "AVG";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kCount:
      return "COUNT";
  }
  return "UNKNOWN";
}

std::string_view QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kAggregation:
      return "AGGREGATION";
    case QueryKind::kSelect:
      return "SELECT";
    case QueryKind::kInsert:
      return "INSERT";
    case QueryKind::kUpdate:
      return "UPDATE";
    case QueryKind::kDelete:
      return "DELETE";
  }
  return "UNKNOWN";
}

QueryKind KindOf(const Query& query) {
  return static_cast<QueryKind>(query.index());
}

bool IsOlap(const Query& query) {
  return KindOf(query) == QueryKind::kAggregation;
}

std::vector<std::string> TablesOf(const Query& query) {
  return std::visit(
      [](const auto& q) -> std::vector<std::string> {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, AggregationQuery>) {
          return q.tables;
        } else {
          return {q.table};
        }
      },
      query);
}

namespace {

void AppendPredicate(std::ostringstream& os, const Predicate& predicate) {
  if (predicate.empty()) return;
  os << " WHERE ";
  for (size_t i = 0; i < predicate.size(); ++i) {
    if (i > 0) os << " AND ";
    os << "t" << predicate[i].column.table_index << ".c"
       << predicate[i].column.column << " IN "
       << predicate[i].range.ToString();
  }
}

}  // namespace

std::string QueryToString(const Query& query) {
  std::ostringstream os;
  std::visit(
      [&](const auto& q) {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, AggregationQuery>) {
          os << "SELECT ";
          for (size_t i = 0; i < q.aggregates.size(); ++i) {
            if (i > 0) os << ", ";
            os << AggFnName(q.aggregates[i].fn) << "(t"
               << q.aggregates[i].column.table_index << ".c"
               << q.aggregates[i].column.column << ")";
          }
          os << " FROM ";
          for (size_t i = 0; i < q.tables.size(); ++i) {
            if (i > 0) os << " JOIN ";
            os << q.tables[i];
          }
          for (const JoinEdge& e : q.joins) {
            os << " ON t" << e.left_table << ".c" << e.left_column << "=t"
               << e.right_table << ".c" << e.right_column;
          }
          AppendPredicate(os, q.predicate);
          if (!q.group_by.empty()) {
            os << " GROUP BY ";
            for (size_t i = 0; i < q.group_by.size(); ++i) {
              if (i > 0) os << ", ";
              os << "t" << q.group_by[i].table_index << ".c"
                 << q.group_by[i].column;
            }
          }
        } else if constexpr (std::is_same_v<T, SelectQuery>) {
          os << "SELECT ";
          for (size_t i = 0; i < q.select_columns.size(); ++i) {
            if (i > 0) os << ", ";
            os << "c" << q.select_columns[i];
          }
          os << " FROM " << q.table;
          AppendPredicate(os, q.predicate);
          if (q.limit.has_value()) os << " LIMIT " << *q.limit;
        } else if constexpr (std::is_same_v<T, InsertQuery>) {
          os << "INSERT INTO " << q.table << " VALUES " << RowToString(q.row);
        } else if constexpr (std::is_same_v<T, UpdateQuery>) {
          os << "UPDATE " << q.table << " SET ";
          for (size_t i = 0; i < q.set_columns.size(); ++i) {
            if (i > 0) os << ", ";
            os << "c" << q.set_columns[i] << "="
               << q.set_values[i].ToString();
          }
          AppendPredicate(os, q.predicate);
        } else if constexpr (std::is_same_v<T, DeleteQuery>) {
          os << "DELETE FROM " << q.table;
          AppendPredicate(os, q.predicate);
        }
      },
      query);
  return os.str();
}

std::vector<const PredicateTerm*> TermsForTable(const Predicate& predicate,
                                                int table_index) {
  std::vector<const PredicateTerm*> terms;
  for (const PredicateTerm& term : predicate) {
    if (term.column.table_index == table_index) terms.push_back(&term);
  }
  return terms;
}

bool IsPointPredicateOn(const Predicate& predicate, ColumnId pk_column) {
  return predicate.size() == 1 && predicate[0].column.table_index == 0 &&
         predicate[0].column.column == pk_column &&
         predicate[0].range.IsPoint();
}

}  // namespace hsdb
