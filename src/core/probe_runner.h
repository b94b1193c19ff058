// EngineProbeRunner: the ProbeRunner that measures the bundled engine. It
// lazily builds probe tables (cached per configuration) and times probe
// queries through the regular Database execution path.
#ifndef HSDB_CORE_PROBE_RUNNER_H_
#define HSDB_CORE_PROBE_RUNNER_H_

#include <map>
#include <memory>
#include <string>

#include "core/calibration.h"
#include "executor/database.h"

namespace hsdb {

class EngineProbeRunner : public ProbeRunner {
 public:
  struct Options {
    /// Repetitions per read probe (median taken).
    int repeats = 3;
    /// Rows inserted per insert probe (averaged per statement); a column-
    /// store probe goes on until its delta merges.
    size_t insert_batch = 256;
  };

  EngineProbeRunner() : EngineProbeRunner(Options{}) {}
  explicit EngineProbeRunner(Options options) : options_(options) {}

  ProbeResult MeasureAggregation(StoreType store, AggFn fn, DataType type,
                                 bool grouped, bool filtered, size_t rows,
                                 uint64_t distinct) override;
  ProbeResult MeasureSelect(StoreType store, size_t selected_columns,
                            double selectivity, bool use_index,
                            size_t rows) override;
  ProbeResult MeasurePointSelect(StoreType store, size_t rows) override;
  ProbeResult MeasureInsert(StoreType store, size_t rows) override;
  ProbeResult MeasureUpdate(StoreType store, size_t affected_columns,
                            size_t affected_rows, size_t rows) override;
  ProbeResult MeasureJoin(StoreType fact_store, StoreType dim_store,
                          size_t fact_rows, size_t dim_rows) override;
  ProbeResult MeasureStitch(size_t rows) override;
  ProbeResult MeasureParallelScan(StoreType store, int dop,
                                  size_t rows) override;

  /// Releases all cached probe databases.
  void Evict() { cache_.clear(); }

 private:
  struct Entry {
    std::unique_ptr<Database> db;
    int64_t next_insert_id = 0;
    double compression_rate = 1.0;
  };

  /// Probe table of `rows` rows in `store` with `distinct` distinct values
  /// in the measure column (0 = all distinct); `indexed` adds row-store
  /// sorted indexes on the id and filter columns. `dop` is the database's
  /// degree of parallelism: 1 for every serial probe (so an HSDB_THREADS
  /// environment does not leak parallelism into base costs), > 1 only for
  /// the parallel scan probe.
  Entry& ProbeTable(StoreType store, size_t rows, uint64_t distinct,
                    bool indexed, int dop = 1);
  Entry& JoinTables(StoreType fact_store, StoreType dim_store,
                    size_t fact_rows, size_t dim_rows);
  Entry& StitchTable(size_t rows, bool split);

  double TimeQuery(Database& db, const Query& query);

  Options options_;
  std::map<std::string, Entry> cache_;
};

}  // namespace hsdb

#endif  // HSDB_CORE_PROBE_RUNNER_H_
