// The structured query model. The engine deliberately has no SQL parser —
// workloads are sequences of these descriptors, which carry exactly the
// query characteristics the storage advisor's cost model consumes
// (query type, aggregates, grouping, selectivity, affected columns/rows).
#ifndef HSDB_EXECUTOR_QUERY_H_
#define HSDB_EXECUTOR_QUERY_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/row.h"
#include "storage/value_range.h"

namespace hsdb {

/// Aggregation functions supported by the engine and costed by the advisor.
enum class AggFn : uint8_t { kSum = 0, kAvg, kMin, kMax, kCount };
inline constexpr int kNumAggFns = 5;
std::string_view AggFnName(AggFn fn);

/// Reference to a column of one of the query's tables (index into the
/// query's table list; 0 for single-table queries).
struct ColumnRef {
  ColumnId column = 0;
  int table_index = 0;

  bool operator==(const ColumnRef& o) const {
    return column == o.column && table_index == o.table_index;
  }
};

/// One aggregate expression, e.g. SUM(price).
struct AggregateExpr {
  AggFn fn = AggFn::kSum;
  ColumnRef column;  // ignored for COUNT(*)
};

/// One conjunct of a predicate: column ∈ range.
struct PredicateTerm {
  ColumnRef column;
  ValueRange range;
};

/// Conjunction of simple column/range terms (the engine's predicate
/// language; disjunctions are out of scope, as in the paper's workloads).
using Predicate = std::vector<PredicateTerm>;

/// Equi-join edge between two of the query's tables. The engine runs star
/// joins: left_table must be 0 (the fact table), each edge joins it to a
/// distinct dimension table, and right_column must be that dimension's
/// single-column primary key.
struct JoinEdge {
  int left_table = 0;
  ColumnId left_column = 0;
  int right_table = 1;
  ColumnId right_column = 0;
};

/// OLAP aggregation query, optionally grouped, filtered and joined.
struct AggregationQuery {
  std::vector<std::string> tables;  // [fact, dim1, dim2, ...]
  std::vector<JoinEdge> joins;      // empty for single-table aggregation
  std::vector<AggregateExpr> aggregates;
  std::vector<ColumnRef> group_by;
  Predicate predicate;
};

/// OLTP point or range select over one table.
struct SelectQuery {
  std::string table;
  std::vector<ColumnId> select_columns;
  Predicate predicate;  // all terms must have table_index 0
  std::optional<size_t> limit;
};

/// Single-row insert.
struct InsertQuery {
  std::string table;
  Row row;
};

/// Predicate-qualified update of a set of columns.
struct UpdateQuery {
  std::string table;
  Predicate predicate;
  std::vector<ColumnId> set_columns;
  Row set_values;
};

/// Predicate-qualified delete.
struct DeleteQuery {
  std::string table;
  Predicate predicate;
};

using Query = std::variant<AggregationQuery, SelectQuery, InsertQuery,
                           UpdateQuery, DeleteQuery>;

enum class QueryKind : uint8_t {
  kAggregation = 0,
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
};
inline constexpr int kNumQueryKinds = 5;
std::string_view QueryKindName(QueryKind kind);

QueryKind KindOf(const Query& query);

/// OLAP/OLTP classification as used throughout the paper's evaluation:
/// aggregation queries are OLAP, everything else OLTP.
bool IsOlap(const Query& query);

/// Names of all tables the query touches (fact first for joins).
std::vector<std::string> TablesOf(const Query& query);

/// Compact human-readable rendering for logs and examples.
std::string QueryToString(const Query& query);

/// The predicate's terms that reference `table_index`.
std::vector<const PredicateTerm*> TermsForTable(const Predicate& predicate,
                                                int table_index);

/// True when the predicate consists of exactly one equality term on
/// `pk_column` (the executor's point fast path).
bool IsPointPredicateOn(const Predicate& predicate, ColumnId pk_column);

}  // namespace hsdb

#endif  // HSDB_EXECUTOR_QUERY_H_
