// EncodingSearch: the advisor's physical-design search over per-table
// layout candidates crossed with per-column codecs, under one shared memory
// budget. Every column-store column's codec is chosen from the feasible
// codecs the picker's profile rules allow, minimizing the *workload* cost:
// fast codecs (RLE run skipping, frame-of-reference) trade scan speed
// against footprint, and the delta-merge re-encoding term prices codec
// choice into the insert cost. The layout dimension lets a binding budget
// flip a table to the row store or a narrower hybrid split — footprint
// relief that codec downgrades alone cannot give.
//
// The optimization is a knapsack over footprint deltas: exact enumeration
// when the layout x codec cross-product is small, greedy coordinate descent
// plus a best-ratio eviction loop beyond. Every run prices one baseline:
// every table's candidate 0 with the picker's codecs (the advisor puts the
// table-level store there, so the baseline is the table-level design). The
// search never returns a costlier design whenever the baseline is
// budget-feasible.
#ifndef HSDB_CORE_ENCODING_SEARCH_H_
#define HSDB_CORE_ENCODING_SEARCH_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/workload_cost.h"

namespace hsdb {

struct EncodingSearchOptions {
  /// Total memory budget (bytes) for the encoded main segments of all
  /// column-store-resident columns across the design. Unset = unconstrained
  /// (the search still runs and minimizes workload cost).
  std::optional<double> memory_budget_bytes;
  /// Exact enumeration when the layout x codec cross-product has at most
  /// this many combinations; greedy knapsack beyond. 0 forces greedy.
  size_t exact_combination_limit = 4096;
  /// Recommendation-stability hysteresis: keep the incumbent design — the
  /// table's current layout when it is a candidate (candidate 0
  /// otherwise) with the codecs the statistics carry (what the store
  /// currently uses, or the picker's choice for hypothetical moves) —
  /// unless the best found design improves the workload cost by at least
  /// this fraction while the incumbent is budget-feasible and no costlier
  /// than the baseline. Prevents DDL churn between cost-near-equal designs
  /// on tables the workload barely touches. 0 disables.
  double min_improvement = 0.02;
};

/// One table's chosen design.
struct TableDesign {
  /// Index into the caller's candidate list for this table.
  size_t candidate_index = 0;
  /// Chosen layout (+locality context) with the chosen per-column codecs
  /// installed in LayoutContext::encodings (every column gets an entry;
  /// columns without encoded mass keep a codec that costs nothing).
  LayoutContext context;
  /// Estimated encoded footprint (bytes) of this table's column-store
  /// pieces under the chosen design — the table's budget attribution.
  double footprint_bytes = 0.0;
};

/// What one search returns: the chosen design, its baseline and the
/// search's effort counters.
struct EncodingDesign {
  /// Chosen design per table with catalog statistics and a column-store
  /// candidate. Other tables keep their candidate-0 layout and are absent.
  std::map<std::string, TableDesign> tables;

  /// Estimated workload cost (ms) and encoded footprint (bytes) of the
  /// chosen design.
  double cost_ms = 0.0;
  double footprint_bytes = 0.0;
  /// False when no layout+codec combination meets the budget; the result
  /// then carries the minimal-footprint design across all candidates.
  bool feasible = true;

  /// The baseline: every table's candidate-0 layout with the picker's
  /// codecs. The result never costs more whenever the baseline is itself
  /// budget-feasible.
  double picker_cost_ms = 0.0;
  double picker_footprint_bytes = 0.0;

  /// Tightest footprint any layout+codec combination could reach — the
  /// feasibility floor a budget is checked against. Zero whenever every
  /// table has a pure row-store candidate.
  double min_footprint_bytes = 0.0;

  /// True when the layout x codec cross-product was enumerated exhaustively.
  bool exact = false;
  /// Workload evaluations the search performed (search-effort metric).
  size_t evaluated_assignments = 0;
  /// Budget-repair evictions the greedy search performed to squeeze the
  /// design under the budget (0 when the budget held immediately).
  size_t repair_iterations = 0;
  /// True when the hysteresis rule kept the incumbent design against a
  /// marginally better challenger.
  bool hysteresis_applied = false;
};

/// Runs the layout x codec search against a cost model and catalog;
/// stateless between calls.
class EncodingSearch {
 public:
  /// Searches with default options (unconstrained budget, 2% hysteresis).
  EncodingSearch(const CostModel* model, const Catalog* catalog)
      : EncodingSearch(model, catalog, EncodingSearchOptions{}) {}
  EncodingSearch(const CostModel* model, const Catalog* catalog,
                 EncodingSearchOptions options)
      : estimator_(model, catalog),
        catalog_(catalog),
        options_(std::move(options)) {}

  /// Minimizes workload cost over the cross-product of every table's
  /// layout candidates and per-column codec assignments under the options'
  /// shared memory budget. `candidates` supplies per table the layouts to
  /// explore; entry 0 anchors the baseline and is the layout of tables the
  /// search skips. One candidate per table searches the codecs of frozen
  /// layouts. The chosen codecs are meant to be installed into
  /// LayoutContext::encodings (the estimator then costs scans/inserts with
  /// them) and into the advisor's ENCODING (...) DDL clauses. Evaluation
  /// is incremental: changing one table re-costs only the queries touching
  /// it.
  EncodingDesign Search(
      const std::vector<WeightedQuery>& workload,
      const std::map<std::string, std::vector<LayoutCandidate>>& candidates)
      const;

 private:
  WorkloadCostEstimator estimator_;
  const Catalog* catalog_;
  EncodingSearchOptions options_;
};

}  // namespace hsdb

#endif  // HSDB_CORE_ENCODING_SEARCH_H_
