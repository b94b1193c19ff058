// BatchExecutor: shared-scan execution of a queue of queries (paper §6's
// serving-side complement: many concurrent analytic clients hit the same
// hot tables, so co-running their scans amortizes the decode cost).
//
// The server admits a query only if Shareable(): a single-table read whose
// readpath::Bind plan is `shareable`; everything else runs per statement
// on the connection's thread. ExecuteBatch executes reads only (any other
// member gets an error, unrun) and groups them by table. A group with two
// or more shareable plans runs them under one epoch pin and reader lock:
// one MultiFilterRangeSlice pass per predicate column fills every member's
// selection bitmap (one decode fans out to all bitmaps, morsel by morsel on
// the scan pool), then each member materializes through the per-statement
// scan kernel. A lone member, or one whose plan stopped being shareable
// since admission (e.g. a MigrateShadow cut-over), runs through
// Database::Execute, so the batch path never changes semantics, only cost.
//
// Equivalence guarantee (tests/executor/batch_equivalence_test.cc): per
// query the result is bit-identical to one-at-a-time execution at every
// thread count. The shared pass computes the same selection bitmaps
// (conjunction is order-independent and MultiFilterRangeSlice is
// bit-identical to the per-term filters), and materialization reuses the
// scan kernel with the same morsel structure and partial-merge order.
//
// Concurrency: a shared group holds the table's reader lock exactly like a
// serial read statement (docs/CONCURRENCY.md); per-statement members run
// after the group's lock is released, never under it — re-entering Execute
// while holding the shared lock could deadlock behind a queued writer.
//
// Reported elapsed_ms of a shared query is its amortized share (group wall
// time / group width): that is the cost a co-running client actually pays,
// and it is what the workload recorder should feed the advisor's batch-
// aware cost model. Shared members are accounted by the same
// Database::FinishStatement step as serial statements, each with its
// group's width (SlowlogRecord::group_width): with telemetry on each gets a
// prediction taken under the group's reader lock before the shared pass,
// and its share feeds the cost-residual stream (the cost model prices
// shared scans through its batch width).
//
// The server calls ExecuteBatch from every reader that holds a drain slot
// (server/admission_queue.h), so batches run concurrently; they share only
// the Database and its scan pool, whose ParallelFor takes concurrent
// callers.
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

  /// Executes the reads in `queries`; result i corresponds to queries[i].
  /// A query ShareableTable rejects is answered InvalidArgument, unrun.
  /// Thread-compatible: concurrent ExecuteBatch calls are safe (the shared
  /// state is the Database, which synchronizes per table), but one batch is
  /// executed by the calling thread.
  ///
  /// `queue_waits_ms` (optional, parallel to `queries`) is each query's
  /// admission-queue wait; it is attributed to slow-query-log records.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<Query>& queries,
      const std::vector<double>* queue_waits_ms = nullptr);

  /// Table name of a read that may join a shared-scan group (SELECT /
  /// single-table aggregation), or nullptr for any other statement.
  static const std::string* ShareableTable(const Query& query);

  /// The admission decision: whether `query` is a ShareableTable read whose
  /// bound plan is `shareable` right now. Binds under CatalogReadLock, the
  /// view `explain` prints `batch_shareable:` from.
  bool Shareable(const Query& query) const;

 private:
  struct SharedRead;

  /// Executes one same-table group of reads under a single epoch pin +
  /// reader lock. When two or more members' plans are shareable, those get
  /// their plan, prediction and result filled and their count (the group's
  /// width) is returned; otherwise 0. Every other member is left unrun.
  size_t ExecuteSharedGroup(const std::string& table_name,
                            const std::vector<SharedRead*>& members);

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
