#include "core/workload_cost.h"

#include <algorithm>

#include "storage/row_table.h"

namespace hsdb {

std::vector<WeightedQuery> ToWeighted(const std::vector<Query>& queries) {
  std::vector<WeightedQuery> out;
  out.reserve(queries.size());
  for (const Query& q : queries) out.push_back(WeightedQuery{q, 1.0});
  return out;
}

namespace {

using Group = LayoutPieces::Group;
using Piece = LayoutPieces::Piece;

/// Rows of `group` when the table holds `rows`: a horizontal split's hot
/// group holds the hot row fraction, the cold group the rest.
double GroupRows(const Group& group, const LayoutContext& ctx, double rows) {
  if (!ctx.layout.horizontal.has_value()) return rows;
  const double hot_rows = rows * ctx.hot_row_fraction;
  return group.hot ? hot_rows : rows - hot_rows;
}

/// A scan reads every row group: the sum of `price(group, rows)` over the
/// groups, plus the union of their results when there are several.
template <typename Price>
double ScanGroups(const LayoutPieces& pieces, const LayoutContext& ctx,
                  double rows, double union_overhead, Price&& price) {
  double cost = 0.0;
  for (const Group& group : pieces) {
    cost += price(group, GroupRows(group, ctx, rows));
  }
  return pieces.num_groups() > 1 ? cost + union_overhead : cost;
}

/// A point access or an insert reaches one row group: `price(group, rows)`
/// weighted by the share `hot_fraction` that reaches the hot group.
template <typename Price>
double WeighGroups(const LayoutPieces& pieces, const LayoutContext& ctx,
                   double rows, double hot_fraction, Price&& price) {
  double cost = 0.0;
  for (const Group& group : pieces) {
    const double weight = pieces.num_groups() == 1 ? 1.0
                          : group.hot              ? hot_fraction
                                                   : 1.0 - hot_fraction;
    cost += weight * price(group, GroupRows(group, ctx, rows));
  }
  return cost;
}

}  // namespace

double EncodedRowFraction(const LayoutContext& ctx, const Schema& schema,
                          ColumnId col) {
  const LayoutPieces pieces(ctx.layout, schema);
  const double hot = ctx.layout.horizontal.has_value()
                         ? std::clamp(ctx.hot_row_fraction, 0.0, 1.0)
                         : 0.0;
  double fraction = 0.0;
  for (const Group& group : pieces) {
    for (const Piece& piece : group) {
      if (piece.store == StoreType::kColumn && pieces.Holds(piece, col)) {
        fraction += group.hot ? hot : 1.0 - hot;
        break;
      }
    }
  }
  return fraction;
}

WorkloadCostEstimator::TableFacts WorkloadCostEstimator::FactsOf(
    const std::string& name) const {
  TableFacts facts;
  facts.table = catalog_->GetTable(name);
  facts.stats = catalog_->GetStatistics(name);
  if (facts.stats != nullptr) {
    facts.rows = static_cast<double>(facts.stats->row_count);
    facts.compression = facts.stats->table_compression_rate;
  } else if (facts.table != nullptr) {
    facts.rows = static_cast<double>(facts.table->row_count());
  }
  return facts;
}

std::optional<Encoding> WorkloadCostEstimator::CodecOf(
    const TableFacts& facts, const LayoutContext& ctx,
    const LayoutPieces& pieces, ColumnId col) {
  if (!ColumnInColumnStorePiece(pieces, col)) return std::nullopt;
  if (col < ctx.encodings.size()) return ctx.encodings[col];
  if (facts.stats != nullptr && col < facts.stats->columns.size()) {
    return facts.stats->columns[col].encoding;
  }
  return std::nullopt;
}

double WorkloadCostEstimator::ScanEncodingMultiplier(
    const TableFacts& facts, const LayoutContext& ctx,
    const LayoutPieces& pieces, const std::vector<ColumnId>& needed) const {
  double total = 0.0;
  size_t count = 0;
  auto add = [&](ColumnId c) {
    if (std::optional<Encoding> e = CodecOf(facts, ctx, pieces, c)) {
      total += model_->EncodingScanMultiplier(StoreType::kColumn, *e);
      ++count;
    }
  };
  // Mean over the distinct columns the query touches: the scan decodes
  // exactly these segments.
  std::vector<ColumnId> cols = needed;
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  for (ColumnId c : cols) add(c);
  if (count == 0) {
    // Column-blind queries (COUNT(*)-style) decode whatever they touch;
    // charge the table-wide mean.
    for (ColumnId c = 0; c < facts.table->schema().num_columns(); ++c) {
      add(c);
    }
  }
  // No codec anywhere: no column-store piece, or nothing names a codec.
  return count == 0 ? 1.0 : total / static_cast<double>(count);
}

double WorkloadCostEstimator::InsertReencodeMultiplier(
    const TableFacts& facts, const LayoutContext& ctx,
    const LayoutPieces& pieces) const {
  // A merge re-encodes every column of the column-store pieces — and only
  // those: the non-key columns a vertical split sends to the row store
  // carry no re-encode work.
  double total = 0.0;
  size_t count = 0;
  for (ColumnId c = 0; c < facts.table->schema().num_columns(); ++c) {
    if (std::optional<Encoding> e = CodecOf(facts, ctx, pieces, c)) {
      total += model_->EncodingReencodeMultiplier(StoreType::kColumn, *e);
      ++count;
    }
  }
  return count == 0 ? 1.0 : total / static_cast<double>(count);
}

double WorkloadCostEstimator::PredicateSelectivity(
    const TableFacts& facts,
    const std::vector<const PredicateTerm*>& terms) const {
  if (terms.empty()) return 1.0;
  double selectivity = 1.0;
  for (const PredicateTerm* term : terms) {
    if (facts.stats != nullptr &&
        term->column.column < facts.stats->columns.size()) {
      selectivity *=
          facts.stats->EstimateSelectivity(term->column.column, term->range);
    } else {
      selectivity *= term->range.IsPoint() ? 0.001 : 0.1;
    }
  }
  return std::clamp(selectivity, 0.0, 1.0);
}

bool WorkloadCostEstimator::HasRowStoreIndex(
    const TableFacts& facts,
    const std::vector<const PredicateTerm*>& terms) const {
  // A sorted secondary index on any predicate column of a row-store piece.
  // The primary key's hash index serves only the point path
  // (IsPkPointLookup), which every caller prices apart.
  for (const PredicateTerm* term : terms) {
    for (const RowGroup& group : facts.table->groups()) {
      for (const Fragment& frag : group.fragments) {
        if (!frag.Contains(term->column.column)) continue;
        if (const auto* rs = dynamic_cast<const RowTable*>(frag.table.get())) {
          if (rs->HasSortedIndex(frag.FragColumn(term->column.column))) {
            return true;
          }
        }
      }
    }
  }
  return false;
}

double WorkloadCostEstimator::QueryCost(const Query& query,
                                        const LayoutProvider& layout_of)
    const {
  switch (KindOf(query)) {
    case QueryKind::kAggregation:
      return AggregationQueryCost(std::get<AggregationQuery>(query),
                                  layout_of);
    case QueryKind::kSelect:
      return SelectQueryCost(std::get<SelectQuery>(query), layout_of);
    case QueryKind::kInsert:
      return InsertQueryCost(std::get<InsertQuery>(query), layout_of);
    case QueryKind::kUpdate:
      return UpdateQueryCost(std::get<UpdateQuery>(query), layout_of);
    case QueryKind::kDelete:
      return DeleteQueryCost(std::get<DeleteQuery>(query), layout_of);
  }
  return 0.0;
}

double WorkloadCostEstimator::AggregationQueryCost(
    const AggregationQuery& q, const LayoutProvider& layout_of) const {
  TableFacts fact = FactsOf(q.tables[0]);
  if (fact.table == nullptr) return 0.0;
  const Schema& schema = fact.table->schema();

  std::vector<AggSpec> aggs;
  for (const AggregateExpr& agg : q.aggregates) {
    DataType type = DataType::kInt64;
    if (agg.fn != AggFn::kCount && agg.column.table_index == 0) {
      type = schema.column(agg.column.column).type;
    }
    aggs.push_back(AggSpec{agg.fn, type});
  }
  const bool grouped = !q.group_by.empty();
  const bool filtered = !q.predicate.empty();
  // Fact-side predicate selectivity scales the aggregation/probe work.
  std::vector<const PredicateTerm*> fact_terms = TermsForTable(q.predicate, 0);
  double selectivity = PredicateSelectivity(fact, fact_terms);
  LayoutContext ctx = layout_of(q.tables[0]);
  const LayoutPieces pieces(ctx.layout, schema);

  // The fact columns the engine reads (the join keys among them): they
  // decide which piece serves the scan and which encoded segments a
  // column-store scan decodes.
  std::vector<ColumnId> needed;
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
  for (const JoinEdge& e : q.joins) needed.push_back(e.left_column);
  const double enc_scan = ScanEncodingMultiplier(fact, ctx, pieces, needed);

  // Join queries: cost per store combination of the involved tables.
  std::vector<CostModel::JoinSide> dims;
  for (size_t t = 1; t < q.tables.size(); ++t) {
    TableFacts dim = FactsOf(q.tables[t]);
    LayoutContext dim_ctx = layout_of(q.tables[t]);
    dims.push_back(CostModel::JoinSide{dim_ctx.layout.base_store, dim.rows,
                                       dim.compression});
  }
  // The hot group is priced uncompressed and without codec adjustments.
  auto scan = [&](StoreType store, bool hot, double rows) {
    const double compression = hot ? 1.0 : fact.compression;
    const double enc = hot ? 1.0 : enc_scan;
    if (dims.empty()) {
      return model_->AggregationCost(store, aggs, grouped, filtered, rows,
                                     compression, selectivity, enc);
    }
    return model_->JoinAggregationCost(store, aggs, grouped, filtered, rows,
                                       compression, dims, selectivity, enc);
  };
  return ScanGroups(
      pieces, ctx, fact.rows, model_->UnionOverhead(),
      [&](const Group& group, double rows) {
        if (const Piece* cover = pieces.Cover(group, needed)) {
          return scan(cover->store, group.hot, rows);
        }
        // Spanning: base piece scan plus the PK-stitch penalty.
        return scan(group.base().store, group.hot, rows) +
               model_->StitchCost(rows);
      });
}

double WorkloadCostEstimator::SelectQueryCost(
    const SelectQuery& q, const LayoutProvider& layout_of) const {
  TableFacts facts = FactsOf(q.table);
  if (facts.table == nullptr) return 0.0;
  const Schema& schema = facts.table->schema();
  std::vector<const PredicateTerm*> terms = TermsForTable(q.predicate, 0);
  double selectivity = PredicateSelectivity(facts, terms);
  LayoutContext ctx = layout_of(q.table);
  const LayoutPieces pieces(ctx.layout, schema);
  size_t k = q.select_columns.size();

  // Primary-key point lookups take the hash-index fast path in both stores;
  // their cost is reconstruction width, not scanning. A spanning lookup
  // reconstructs from every piece of the group.
  if (IsPkPointLookup(schema, q.predicate)) {
    return WeighGroups(pieces, ctx, facts.rows, ctx.hot_access_fraction,
                       [&](const Group& group, double) {
                         if (const Piece* cover =
                                 pieces.Cover(group, q.select_columns)) {
                           return model_->PointSelectCost(cover->store, k);
                         }
                         double cost = 0.0;
                         for (const Piece& piece : group) {
                           cost += model_->PointSelectCost(piece.store, k);
                         }
                         return cost;
                       });
  }

  const bool rs_indexed = HasRowStoreIndex(facts, terms);
  std::vector<ColumnId> needed = q.select_columns;
  for (const PredicateTerm* term : terms) needed.push_back(term->column.column);
  const double enc_scan = ScanEncodingMultiplier(facts, ctx, pieces, needed);
  auto select_in = [&](StoreType store, double rows) {
    return model_->SelectCost(store, k, selectivity,
                              store == StoreType::kRow ? rs_indexed : true,
                              rows, enc_scan);
  };
  return ScanGroups(pieces, ctx, facts.rows, model_->UnionOverhead(),
                    [&](const Group& group, double rows) {
                      if (const Piece* cover = pieces.Cover(group, needed)) {
                        return select_in(cover->store, rows);
                      }
                      // Spanning: every piece selects and the matches
                      // stitch on the key.
                      double cost =
                          model_->StitchCost(selectivity * rows + 1.0);
                      for (const Piece& piece : group) {
                        cost += select_in(piece.store, rows);
                      }
                      return cost;
                    });
}

double WorkloadCostEstimator::InsertQueryCost(
    const InsertQuery& q, const LayoutProvider& layout_of) const {
  TableFacts facts = FactsOf(q.table);
  if (facts.table == nullptr) return 0.0;
  LayoutContext ctx = layout_of(q.table);
  const LayoutPieces pieces(ctx.layout, facts.table->schema());
  // A column-store piece amortizes delta-merge re-encoding of every column
  // into its insert cost; the multiplier is 1 for row-store pieces.
  const double reencode = InsertReencodeMultiplier(facts, ctx, pieces);
  // The tuple is written into every piece of the group it routes to.
  return WeighGroups(pieces, ctx, facts.rows, ctx.hot_insert_fraction,
                     [&](const Group& group, double rows) {
                       double cost = 0.0;
                       for (const Piece& piece : group) {
                         cost += model_->InsertCost(piece.store, rows,
                                                    reencode);
                       }
                       return cost;
                     });
}

double WorkloadCostEstimator::UpdateQueryCost(
    const UpdateQuery& q, const LayoutProvider& layout_of) const {
  TableFacts facts = FactsOf(q.table);
  if (facts.table == nullptr) return 0.0;
  const Schema& schema = facts.table->schema();
  std::vector<const PredicateTerm*> terms = TermsForTable(q.predicate, 0);
  double selectivity = PredicateSelectivity(facts, terms);
  double affected = std::max(1.0, selectivity * facts.rows);
  LayoutContext ctx = layout_of(q.table);
  const LayoutPieces pieces(ctx.layout, schema);

  // Updates that do not hit the primary key point-wise must first locate the
  // affected rows — a select-shaped cost the store pays before writing. This
  // is what makes e.g. "update all lines of one order" expensive on a
  // column-store piece without the hash-index fast path.
  const bool pk_point = IsPkPointLookup(schema, q.predicate);
  const bool rs_indexed = HasRowStoreIndex(facts, terms);

  // Predicate columns decide which piece performs the locate (and which
  // encoded segments a column-store locate scans).
  std::vector<ColumnId> pred_cols;
  for (const PredicateTerm* term : terms) {
    pred_cols.push_back(term->column.column);
  }
  const double enc_scan = ScanEncodingMultiplier(facts, ctx, pieces, pred_cols);

  auto locate_in = [&](StoreType store, double rows) {
    if (pk_point || rows <= 0.0) return 0.0;
    return model_->SelectCost(
        store, 1, selectivity,
        store == StoreType::kRow ? rs_indexed : true, rows, enc_scan);
  };

  return WeighGroups(
      pieces, ctx, facts.rows, ctx.hot_access_fraction,
      [&](const Group& group, double rows) {
        // The covering piece locates; where none covers, the base piece.
        const Piece* cover = pieces.Cover(group, pred_cols);
        const Piece& base = group.base();
        double cost = locate_in(cover != nullptr ? cover->store : base.store,
                                rows);
        if (group.size == 1) {
          return cost + model_->UpdateCost(base.store, q.set_columns.size(),
                                           affected, rows);
        }
        // A vertical split writes each SET column in the piece that alone
        // holds it; the replicated key is charged to the base piece.
        const Piece& rs = group.pieces[0];
        size_t rs_cols = 0;
        for (ColumnId c : q.set_columns) {
          if (pieces.Holds(rs, c) && !pieces.Holds(base, c)) ++rs_cols;
        }
        const size_t base_cols = q.set_columns.size() - rs_cols;
        if (rs_cols > 0) {
          cost += model_->UpdateCost(rs.store, rs_cols, affected, rows);
        }
        if (base_cols > 0) {
          cost += model_->UpdateCost(base.store, base_cols, affected, rows);
        }
        return cost;
      });
}

double WorkloadCostEstimator::DeleteQueryCost(
    const DeleteQuery& q, const LayoutProvider& layout_of) const {
  TableFacts facts = FactsOf(q.table);
  if (facts.table == nullptr) return 0.0;
  std::vector<const PredicateTerm*> terms = TermsForTable(q.predicate, 0);
  double selectivity = PredicateSelectivity(facts, terms);
  double affected = std::max(1.0, selectivity * facts.rows);
  LayoutContext ctx = layout_of(q.table);
  StoreType store = ctx.layout.base_store;
  if (ctx.layout.horizontal.has_value() && ctx.hot_access_fraction > 0.5) {
    store = ctx.layout.horizontal->hot_store;
  }
  double locate = 0.0;
  if (!IsPkPointLookup(facts.table->schema(), q.predicate)) {
    locate = model_->SelectCost(
        store, 1, selectivity,
        store == StoreType::kRow ? HasRowStoreIndex(facts, terms) : true,
        facts.rows);
  }
  return locate + model_->DeleteCost(store, affected, facts.rows);
}

double WorkloadCostEstimator::WorkloadCost(
    const std::vector<WeightedQuery>& workload,
    const LayoutProvider& layout_of) const {
  double total = 0.0;
  for (const WeightedQuery& wq : workload) {
    total += wq.weight * QueryCost(wq.query, layout_of);
  }
  return total;
}

LayoutContext CurrentLayoutContext(const LogicalTable& table,
                                   const TableStatistics* stats) {
  LayoutContext ctx;
  ctx.layout = table.layout();
  if (ctx.layout.horizontal.has_value() && stats != nullptr) {
    const ColumnId pk = ctx.layout.horizontal->column;
    if (pk < stats->columns.size() && stats->column(pk).min.has_value() &&
        stats->column(pk).max.has_value()) {
      const double domain =
          std::max(1.0, *stats->column(pk).max - *stats->column(pk).min);
      ctx.hot_row_fraction = std::clamp(
          (*stats->column(pk).max - ctx.layout.horizontal->boundary) /
              domain,
          0.0, 1.0);
      // A boundary above the data domain is the fresh-data partition: the
      // hot piece is (still) empty and point access targets existing cold
      // rows — the same locality SplitCandidates attached when it proposed
      // the split. Populated hot ranges keep the optimistic default (the
      // range was chosen because accesses concentrate there).
      if (ctx.hot_row_fraction == 0.0) ctx.hot_access_fraction = 0.0;
    }
  }
  return ctx;
}

bool DesignChanges(const LogicalTable& table, const LayoutContext& ctx,
                   const TableStatistics* stats) {
  if (!(table.layout() == ctx.layout)) return true;
  const Schema& schema = table.schema();
  if (ctx.encodings.size() != schema.num_columns() || stats == nullptr ||
      stats->columns.size() != schema.num_columns()) {
    return false;
  }
  const LayoutPieces pieces(ctx.layout, schema);
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    if (ColumnInColumnStorePiece(pieces, c) &&
        ctx.encodings[c] != stats->column(c).encoding) {
      return true;
    }
  }
  return false;
}

}  // namespace hsdb
