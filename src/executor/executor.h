// Executor: runs structured queries against the catalog's logical tables,
// transparently handling partitioned layouts — horizontal pieces are
// processed per group and union-combined, vertical pieces are served from a
// covering fragment when possible and PK-joined otherwise (the query
// rewriting of paper §4, at the descriptor level).
#ifndef HSDB_EXECUTOR_EXECUTOR_H_
#define HSDB_EXECUTOR_EXECUTOR_H_

#include "catalog/catalog.h"
#include "executor/query.h"
#include "executor/result.h"

namespace hsdb {

class ThreadPool;
namespace telemetry {
class Counter;
class Gauge;
}  // namespace telemetry
namespace readpath {
struct ReadPlan;
}  // namespace readpath

/// Shared-state handles of the scan kernel. The pool is required: every
/// covered scan runs its morsels on it, inline on the caller when it has no
/// workers (DOP 1). Null telemetry handles skip instrumentation.
struct ParallelContext {
  ThreadPool* pool = nullptr;
  telemetry::Counter* morsels_total = nullptr;
  telemetry::Gauge* queue_depth = nullptr;
};

class Executor {
 public:
  /// `parallel` is the scan context every covered scan runs on (Database
  /// passes its own); its pool must outlive the executor.
  Executor(Catalog* catalog, const ParallelContext& parallel)
      : catalog_(catalog), parallel_(parallel) {}

  /// Executes one query. DML maintenance (delta merges) is NOT triggered
  /// here; the Database facade calls AfterStatement at statement boundaries.
  Result<QueryResult> Execute(const Query& query);

  const ParallelContext& parallel() const { return parallel_; }

 private:
  // Every statement but INSERT runs the plan readpath::Bind made for it.
  Result<QueryResult> ExecuteSelect(const SelectQuery& q,
                                    const readpath::ReadPlan& plan);
  /// Single-table or star-join aggregation (a single-table one is a join
  /// with no dimensions): builds each dimension under `join_build`, then
  /// folds the fact table's groups under `probe` (`scan` without a join).
  Result<QueryResult> ExecuteAggregation(const AggregationQuery& q,
                                         const readpath::ReadPlan& plan);
  /// UPDATE and DELETE: point-PK write, or collect matching keys then write.
  Result<QueryResult> ExecuteKeyedWrite(const Query& query,
                                        const readpath::ReadPlan& plan);
  Result<QueryResult> ExecuteInsert(const InsertQuery& q);

  Catalog* catalog_;
  ParallelContext parallel_;
};

}  // namespace hsdb

#endif  // HSDB_EXECUTOR_EXECUTOR_H_
