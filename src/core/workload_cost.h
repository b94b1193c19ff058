// WorkloadCostEstimator: maps concrete queries + catalog statistics + a
// candidate physical layout to estimated execution cost, using the cost
// model. This is the bridge between the paper's formulas (§3) and the
// advisor's search (§3.1 table level, §3.2 partitioning). A query on a
// partitioned table costs what it costs on the row groups it touches plus
// the union or stitch overhead: the estimator walks the layout's
// `LayoutPieces`, the description `LogicalTable` builds its fragments from,
// and prices each group's read on the piece `readpath::Bind` serves it from
// (the first that holds every column the read binds), or as a stitch where
// no piece does.
#ifndef HSDB_CORE_WORKLOAD_COST_H_
#define HSDB_CORE_WORKLOAD_COST_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/cost_model.h"

namespace hsdb {

/// A query with a weight (frequency) — the advisor's workload unit. Raw
/// query logs have weight 1 per entry; workload models reconstructed from
/// statistics carry class frequencies.
struct WeightedQuery {
  Query query;
  double weight = 1.0;
};

std::vector<WeightedQuery> ToWeighted(const std::vector<Query>& queries);

/// Candidate layout of one table plus the access-locality facts the
/// estimator needs to cost horizontal splits.
struct LayoutContext {
  TableLayout layout = TableLayout::SingleStore(StoreType::kRow);
  /// Fraction of the table's rows in the hot (upper) horizontal piece.
  double hot_row_fraction = 0.0;
  /// Fraction of point accesses (updates/point selects) hitting the hot
  /// piece; 1.0 when writes are perfectly concentrated on hot rows.
  double hot_access_fraction = 1.0;
  /// Fraction of inserts routing to the hot piece (1.0 when new keys land
  /// above the boundary, the usual case for ascending keys).
  double hot_insert_fraction = 1.0;
  /// Candidate per-column codecs (logical column order) for the table's
  /// column-store pieces. Empty means "whatever the EncodingPicker chose"
  /// (the catalog statistics' encodings). When set, the estimator costs
  /// scans with the multipliers of the codecs each query actually touches
  /// and inserts with the codecs' delta-merge re-encode term — this is the
  /// dimension the advisor's EncodingSearch explores.
  std::vector<Encoding> encodings;

  static LayoutContext SingleStore(StoreType store) {
    LayoutContext ctx;
    ctx.layout = TableLayout::SingleStore(store);
    return ctx;
  }
};

/// Supplies the candidate layout per table name.
using LayoutProvider = std::function<LayoutContext(const std::string&)>;

/// One candidate physical design of a table, labelled for the rationale:
/// the unit the joint layout+encoding search enumerates per table.
/// SplitCandidates produces these (its heuristic splits), the advisor adds
/// the plain single-store layouts and the table's current layout, and
/// EncodingSearch::Search explores the cross-product with the
/// per-column codec assignments under one shared memory budget.
struct LayoutCandidate {
  LayoutContext context;
  std::string reason;
};

/// Fraction of column `col`'s row mass that resides in a column-store piece
/// (and therefore holds an encoded segment counting toward a memory
/// budget): 0 for row-store layouts and for the non-key columns a vertical
/// split sends to the row store; reduced by the hot row fraction when a
/// horizontal split keeps hot rows in the row store. This is the weight the
/// budgeted searches apply to per-column encoded-footprint estimates — a
/// narrower hybrid split genuinely shrinks the encoded footprint.
double EncodedRowFraction(const LayoutContext& ctx, const Schema& schema,
                          ColumnId col);

/// Locality context of a table's *current* layout — the incumbent design
/// the joint search's hysteresis rule protects and the baseline the online
/// migration planner costs step gains against. The hot row fraction of a
/// horizontal split is reconstructed from the primary-key statistics (the
/// boundary relative to the key domain); the context matters only for
/// costing, the layout itself decides incumbency.
LayoutContext CurrentLayoutContext(const LogicalTable& table,
                                   const TableStatistics* stats);

/// True when applying `ctx` changes `table`: its layout differs, or its
/// per-column codecs deviate from what the catalog statistics carry (the
/// store's current codecs for column-resident tables, the picker's choice
/// for hypothetical moves) on any column of a column-store piece, so
/// applying it would re-encode. The advisor's DDL, `Apply` and the
/// migration planner act on exactly these tables.
bool DesignChanges(const LogicalTable& table, const LayoutContext& ctx,
                   const TableStatistics* stats);

class WorkloadCostEstimator {
 public:
  WorkloadCostEstimator(const CostModel* model, const Catalog* catalog)
      : model_(model), catalog_(catalog) {}

  /// Estimated cost (ms) of one query under the given layouts.
  double QueryCost(const Query& query, const LayoutProvider& layout_of) const;

  /// Weighted sum over a workload.
  double WorkloadCost(const std::vector<WeightedQuery>& workload,
                      const LayoutProvider& layout_of) const;

 private:
  struct TableFacts {
    double rows = 0.0;
    double compression = 0.5;
    const TableStatistics* stats = nullptr;  // may be null
    const LogicalTable* table = nullptr;     // may be null
  };
  TableFacts FactsOf(const std::string& name) const;

  /// Codec of column `col` where a column-store piece holds it: the
  /// layout's candidate assignment first, the statistics' picker choice
  /// second; nullopt when no column-store piece holds it or neither names
  /// one.
  static std::optional<Encoding> CodecOf(const TableFacts& facts,
                                         const LayoutContext& ctx,
                                         const LayoutPieces& pieces,
                                         ColumnId col);

  /// Scan multiplier of a column-store piece for a query touching `needed`
  /// columns: mean per-encoding multiplier over their codecs, over every
  /// column's codec when none of them has one, and 1 when no column does.
  double ScanEncodingMultiplier(const TableFacts& facts,
                                const LayoutContext& ctx,
                                const LayoutPieces& pieces,
                                const std::vector<ColumnId>& needed) const;

  /// Delta-merge re-encode multiplier of an insert into a column-store
  /// piece: mean re-encode multiplier over every codec (a merge re-encodes
  /// every segment).
  double InsertReencodeMultiplier(const TableFacts& facts,
                                  const LayoutContext& ctx,
                                  const LayoutPieces& pieces) const;

  double PredicateSelectivity(const TableFacts& facts,
                              const std::vector<const PredicateTerm*>& terms)
      const;
  bool HasRowStoreIndex(const TableFacts& facts,
                        const std::vector<const PredicateTerm*>& terms) const;

  double AggregationQueryCost(const AggregationQuery& q,
                              const LayoutProvider& layout_of) const;
  double SelectQueryCost(const SelectQuery& q,
                         const LayoutProvider& layout_of) const;
  double InsertQueryCost(const InsertQuery& q,
                         const LayoutProvider& layout_of) const;
  double UpdateQueryCost(const UpdateQuery& q,
                         const LayoutProvider& layout_of) const;
  double DeleteQueryCost(const DeleteQuery& q,
                         const LayoutProvider& layout_of) const;

  const CostModel* model_;
  const Catalog* catalog_;
};

}  // namespace hsdb

#endif  // HSDB_CORE_WORKLOAD_COST_H_
