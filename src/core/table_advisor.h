// Table-level store recommendation (paper §3.1): choose row or column store
// per table so that the estimated workload cost is minimal. Join queries
// couple tables, so the advisor searches over assignments — exhaustively for
// small schemas, with hill climbing beyond that. Column stores are priced
// with the default picker's codecs, the codecs the encoding search prices
// its table-level baseline with, so RS-only, CS-only and table-level costs
// compare like with like whatever codecs the stores hold now.
#ifndef HSDB_CORE_TABLE_ADVISOR_H_
#define HSDB_CORE_TABLE_ADVISOR_H_

#include <map>
#include <string>
#include <vector>

#include "core/workload_cost.h"

namespace hsdb {

struct TableAdvisorResult {
  std::map<std::string, StoreType> assignment;
  double estimated_cost_ms = 0.0;
  double rs_only_cost_ms = 0.0;
  double cs_only_cost_ms = 0.0;
  size_t evaluated_assignments = 0;
  bool exhaustive = true;
};

class TableAdvisor {
 public:
  struct Options {
    /// Exhaustive search up to this many tables (2^n assignments); hill
    /// climbing with restarts beyond.
    size_t exhaustive_limit = 14;
    int hill_climb_restarts = 4;
    uint64_t seed = 99;
  };

  TableAdvisor(const CostModel* model, const Catalog* catalog)
      : TableAdvisor(model, catalog, Options{}) {}
  TableAdvisor(const CostModel* model, const Catalog* catalog,
               Options options)
      : estimator_(model, catalog), catalog_(catalog), options_(options) {}

  TableAdvisorResult Recommend(
      const std::vector<WeightedQuery>& workload) const;

 private:
  WorkloadCostEstimator estimator_;
  const Catalog* catalog_;
  Options options_;
};

}  // namespace hsdb

#endif  // HSDB_CORE_TABLE_ADVISOR_H_
