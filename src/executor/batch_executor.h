// BatchExecutor: shared-scan execution of a queue of queries (paper §6's
// serving-side complement: many concurrent analytic clients hit the same
// hot tables, so co-running their scans amortizes the decode cost).
//
// ExecuteBatch takes a batch of queries and returns results identical to
// executing them through Database::Execute one at a time in order. Runs of
// consecutive *shareable* reads on the same table — covering SELECTs and
// single-table aggregations — execute as one shared group under a single
// epoch pin and reader lock: every query's selection bitmap is produced by
// one MultiFilterRangeSlice pass per predicate column (one decode of the
// encoded segment fans out to all bitmaps, morsel by morsel on the scan
// pool), then each query materializes through the same scan kernel the
// per-statement executor uses. Each member is bound by readpath::Bind, the
// binder the per-statement executor uses; a member whose plan
// is not `shareable` — point-PK lookups, vertical-split stitches,
// index-seeded row-store scans, validation failures — is delegated to
// Database::Execute, as are DML and joins, so the batch path never changes
// semantics, only cost.
//
// Equivalence guarantee (tests/executor/batch_equivalence_test.cc): per
// query the result is bit-identical to one-at-a-time execution at every
// thread count. The shared pass computes the same selection bitmaps
// (conjunction is order-independent and MultiFilterRangeSlice is
// bit-identical to the per-term filters), and materialization reuses the
// scan kernel with the same morsel structure and partial-merge order.
//
// Concurrency: a shared group holds the table's reader lock exactly like a
// serial read statement (docs/CONCURRENCY.md); delegated queries run after
// the group's lock is released, never under it — re-entering Execute while
// holding the shared lock could deadlock behind a queued writer.
//
// Reported elapsed_ms of a shared query is its amortized share (group wall
// time / group width): that is the cost a co-running client actually pays,
// and it is what the workload recorder should feed the advisor's batch-
// aware cost model. Shared members are accounted by the same
// Database::FinishStatement step as serial statements: with telemetry on
// each gets a prediction taken under the group's reader lock before the
// shared pass, and its share feeds the cost-residual stream (the cost model
// prices shared scans through its batch width).
#ifndef HSDB_EXECUTOR_BATCH_EXECUTOR_H_
#define HSDB_EXECUTOR_BATCH_EXECUTOR_H_

#include <string>
#include <vector>

#include "executor/database.h"

namespace hsdb {

class BatchExecutor {
 public:
  /// The database must outlive the batch executor. Install observers and
  /// cost predictors on the database before batch traffic starts.
  explicit BatchExecutor(Database* db);
  HSDB_DISALLOW_COPY_AND_ASSIGN(BatchExecutor);

  /// Executes `queries` in order; result i corresponds to queries[i].
  /// Thread-compatible: concurrent ExecuteBatch calls are safe (the shared
  /// state is the Database, which synchronizes per table), but one batch is
  /// executed by the calling thread.
  ///
  /// `queue_waits_ms` (optional, parallel to `queries`) is each query's
  /// admission-queue wait; it is attributed to slow-query-log records and
  /// the thread-local queue-wait context of delegated executions.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<Query>& queries,
      const std::vector<double>* queue_waits_ms = nullptr);

  /// Table name of a read that may join a shared-scan group (SELECT /
  /// single-table aggregation), or nullptr when the query must take the
  /// per-statement path. This only forms the runs; whether a member really
  /// shares is decided by its bound plan (readpath::ReadPlan::shareable).
  static const std::string* ShareableTable(const Query& query);

 private:
  struct SharedRead;

  /// Executes one same-table group of shareable reads under a single epoch
  /// pin + reader lock. Members whose plan is shareable get their plan,
  /// prediction and result filled; the rest are left for delegation.
  void ExecuteSharedGroup(const std::string& table_name,
                          std::vector<SharedRead>* members);

  /// Materializes one member's result from its shared-pass bitmaps through
  /// the serial read-path code.
  void MaterializeMember(SharedRead* m) const;

  Database* db_;
  telemetry::Counter* batch_groups_total_ = nullptr;
  telemetry::Counter* batch_shared_queries_total_ = nullptr;
  telemetry::LogHistogram* batch_width_ = nullptr;
};

}  // namespace hsdb

#endif  // HSDB_EXECUTOR_BATCH_EXECUTOR_H_
