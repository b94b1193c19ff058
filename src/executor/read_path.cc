#include "executor/read_path.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "common/thread_pool.h"
#include "storage/scan_dispatch.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace hsdb {
namespace readpath {

std::string_view AccessPathName(AccessPath path) {
  switch (path) {
    case AccessPath::kPointPk:
      return "point-PK lookup";
    case AccessPath::kStitch:
      return "stitch";
    case AccessPath::kIndexSeed:
      return "index-seeded scan";
    case AccessPath::kScan:
      return "morsel scan";
  }
  return "unknown";
}

namespace {

/// The first term a row-store sorted index can seed, or nullptr.
const PredicateTerm* SeedTerm(const Fragment& frag,
                              const std::vector<const PredicateTerm*>& terms) {
  if (frag.table->store() != StoreType::kRow) return nullptr;
  const auto& rs = static_cast<const RowTable&>(*frag.table);
  for (const PredicateTerm* term : terms) {
    if (rs.HasSortedIndex(frag.FragColumn(term->column.column))) return term;
  }
  return nullptr;
}

/// Single-table aggregation checks; appends the columns it reads.
Status BindAggregation(const AggregationQuery& q, const Schema& schema,
                       std::vector<ColumnId>* needed) {
  auto check_ref = [&](const ColumnRef& ref) -> Status {
    if (ref.table_index != 0) {
      return Status::InvalidArgument("column ref table index out of range");
    }
    if (ref.column >= schema.num_columns()) {
      return Status::InvalidArgument("column ref out of range");
    }
    return Status::OK();
  };
  for (const AggregateExpr& agg : q.aggregates) {
    if (agg.fn == AggFn::kCount) continue;
    HSDB_RETURN_IF_ERROR(check_ref(agg.column));
    if (!IsNumeric(schema.column(agg.column.column).type)) {
      return Status::InvalidArgument("aggregate over non-numeric column");
    }
    needed->push_back(agg.column.column);
  }
  for (const ColumnRef& ref : q.group_by) {
    HSDB_RETURN_IF_ERROR(check_ref(ref));
    needed->push_back(ref.column);
  }
  for (const PredicateTerm& term : q.predicate) {
    HSDB_RETURN_IF_ERROR(check_ref(term.column));
  }
  if (!q.joins.empty()) {
    return Status::InvalidArgument("joins require multiple tables");
  }
  return Status::OK();
}

}  // namespace

Result<ReadPlan> Bind(const Catalog& catalog, const Query& query) {
  ReadPlan plan;
  const Predicate* predicate = nullptr;
  const QueryKind kind = KindOf(query);
  switch (kind) {
    case QueryKind::kSelect: {
      const auto& q = std::get<SelectQuery>(query);
      HSDB_ASSIGN_OR_RETURN(plan.table, catalog.Find(q.table));
      for (ColumnId col : q.select_columns) {
        if (col >= plan.table->schema().num_columns()) {
          return Status::InvalidArgument("select column out of range");
        }
      }
      plan.needed = q.select_columns;
      predicate = &q.predicate;
      break;
    }
    case QueryKind::kAggregation: {
      const auto& q = std::get<AggregationQuery>(query);
      if (q.tables.size() != 1) {
        return Status::NotSupported("star join: hash build + probe");
      }
      if (q.aggregates.empty()) {
        return Status::InvalidArgument("aggregation requires an aggregate");
      }
      HSDB_ASSIGN_OR_RETURN(plan.table, catalog.Find(q.tables[0]));
      HSDB_RETURN_IF_ERROR(
          BindAggregation(q, plan.table->schema(), &plan.needed));
      predicate = &q.predicate;
      break;
    }
    case QueryKind::kUpdate: {
      const auto& q = std::get<UpdateQuery>(query);
      HSDB_ASSIGN_OR_RETURN(plan.table, catalog.Find(q.table));
      if (q.set_columns.size() != q.set_values.size()) {
        return Status::InvalidArgument("set columns/values arity mismatch");
      }
      predicate = &q.predicate;
      break;
    }
    case QueryKind::kDelete: {
      const auto& q = std::get<DeleteQuery>(query);
      HSDB_ASSIGN_OR_RETURN(plan.table, catalog.Find(q.table));
      predicate = &q.predicate;
      break;
    }
    case QueryKind::kInsert:
      return Status::NotSupported("insert: writer latch + exclusive lock");
  }
  const Schema& schema = plan.table->schema();
  plan.terms = TermsForTable(*predicate, 0);
  if (plan.terms.size() != predicate->size()) {
    return Status::InvalidArgument("predicate references other tables");
  }
  HSDB_RETURN_IF_ERROR(ValidateTerms(schema, plan.terms));

  const bool read =
      kind == QueryKind::kSelect || kind == QueryKind::kAggregation;
  // The point fast path is sub-linear. Aggregations never take it.
  if (kind != QueryKind::kAggregation && schema.primary_key().size() == 1 &&
      IsPointPredicateOn(*predicate, schema.primary_key()[0])) {
    plan.path = AccessPath::kPointPk;
    return plan;
  }
  for (const PredicateTerm* term : plan.terms) {
    plan.needed.push_back(term->column.column);
  }
  plan.needed = UniqueColumns(std::move(plan.needed));
  plan.groups.reserve(plan.table->groups().size());
  for (const RowGroup& group : plan.table->groups()) {
    GroupPlan& g = plan.groups.emplace_back();
    g.cover = CoveringFragment(group, plan.needed);
    if (g.cover == nullptr) {
      g.path = AccessPath::kStitch;
    } else if (SeedTerm(*g.cover, plan.terms) != nullptr) {
      // Already sub-linear: sharing its predicate pass would only add work.
      g.path = AccessPath::kIndexSeed;
    }
    plan.path = std::min(plan.path, g.path);
  }
  plan.shareable = read && plan.path == AccessPath::kScan;
  return plan;
}

std::vector<const PredicateTerm*> TermsForTable(const Predicate& predicate,
                                                int table_index) {
  std::vector<const PredicateTerm*> terms;
  for (const PredicateTerm& term : predicate) {
    if (term.column.table_index == table_index) terms.push_back(&term);
  }
  return terms;
}

Status ValidateTerms(const Schema& schema,
                     const std::vector<const PredicateTerm*>& terms) {
  for (const PredicateTerm* term : terms) {
    if (term->column.column >= schema.num_columns()) {
      return Status::InvalidArgument("predicate column out of range");
    }
    if (!term->range.lo.has_value() && !term->range.hi.has_value()) {
      return Status::InvalidArgument("unbounded predicate term");
    }
  }
  return Status::OK();
}

Bitmap EvaluateOnFragment(const Fragment& frag,
                          const std::vector<const PredicateTerm*>& terms) {
  telemetry::ScopedSpan span("predicate");
  const PhysicalTable& table = *frag.table;
  if (const PredicateTerm* seed = SeedTerm(frag, terms)) {
    Result<Bitmap> seeded = static_cast<const RowTable&>(table).IndexFilter(
        frag.FragColumn(seed->column.column), seed->range);
    if (seeded.ok()) {
      Bitmap bm = std::move(seeded).value();
      for (const PredicateTerm* term : terms) {
        if (term == seed) continue;
        table.FilterRange(frag.FragColumn(term->column.column), term->range,
                          &bm);
      }
      return bm;
    }
  }
  Bitmap bm = table.live_bitmap();
  for (const PredicateTerm* term : terms) {
    table.FilterRange(frag.FragColumn(term->column.column), term->range, &bm);
  }
  return bm;
}

std::optional<Bitmap> SeedBitmap(
    const GroupPlan& group, const std::vector<const PredicateTerm*>& terms) {
  if (group.path != AccessPath::kIndexSeed) return std::nullopt;
  return EvaluateOnFragment(*group.cover, terms);
}

void ForEachMorsel(const ParallelContext& ctx, size_t n,
                   const std::function<void(size_t, size_t, size_t)>& fn) {
  const size_t morsels = MorselCount(n);
  if (ctx.morsels_total != nullptr) ctx.morsels_total->Increment(morsels);
  if (ctx.queue_depth != nullptr) {
    ctx.queue_depth->Set(
        static_cast<double>(ctx.pool->queue_depth() + morsels));
  }
  ctx.pool->ParallelFor(morsels, [&](size_t m) {
    const size_t begin = m * kMorselRows;
    fn(m, begin, std::min(begin + kMorselRows, n));
  });
}

namespace {

/// The fused per-morsel loop of both scan kernels: narrows each morsel of
/// a copy of the live bitmap by every term (skipped when `prefiltered`),
/// then hands the morsel and the selection to `consume`.
void ScanMorsels(
    const ParallelContext& ctx, const Fragment& cover,
    const std::vector<const PredicateTerm*>& terms, const Bitmap* prefiltered,
    const std::function<void(size_t, size_t, size_t, const Bitmap&)>&
        consume) {
  Bitmap local;
  if (prefiltered == nullptr) local = cover.table->live_bitmap();
  const Bitmap& bm = prefiltered != nullptr ? *prefiltered : local;
  ForEachMorsel(ctx, cover.table->slot_count(),
                [&](size_t m, size_t begin, size_t end) {
                  if (prefiltered == nullptr) {
                    telemetry::ScopedSpan predicate_span("predicate");
                    for (const PredicateTerm* term : terms) {
                      cover.table->FilterRangeSlice(
                          cover.FragColumn(term->column.column), term->range,
                          begin, end, &local);
                    }
                  }
                  telemetry::ScopedSpan decode_span("decode");
                  consume(m, begin, end, bm);
                });
}

}  // namespace

void SelectCover(const ParallelContext& ctx, const Fragment& cover,
                 const std::vector<const PredicateTerm*>& terms,
                 const std::vector<ColumnId>& select_columns, size_t limit,
                 const Bitmap* prefiltered, QueryResult* result) {
  telemetry::ScopedSpan par_span("scan_parallel");
  std::vector<std::vector<Row>> batches(MorselCount(cover.table->slot_count()));
  ScanMorsels(ctx, cover, terms, prefiltered,
              [&](size_t m, size_t begin, size_t end, const Bitmap& bm) {
                std::vector<Row>& rows = batches[m];
                bm.ForEachSetInRange(begin, end, [&](size_t rid) {
                  // No morsel needs more than `limit` rows.
                  if (rows.size() >= limit) return;
                  Row row;
                  row.reserve(select_columns.size());
                  for (ColumnId col : select_columns) {
                    row.push_back(
                        cover.table->GetValue(rid, cover.FragColumn(col)));
                  }
                  rows.push_back(std::move(row));
                });
              });
  for (std::vector<Row>& rows : batches) {
    for (Row& row : rows) {
      if (result->rows.size() >= limit) return;
      result->rows.push_back(std::move(row));
    }
  }
}

namespace {

/// Code-keyed grouping over a column-store cover's encoded main segment:
/// the group-by columns' packed codes combine mixed-radix into a slot of a
/// flat table of `slots` entries.
struct CodeGrouping {
  std::vector<const BitPackedVector*> codes;  // one per group-by column
  std::vector<size_t> strides;
  size_t main_rows = 0;  // the codes cover rows [0, main_rows)
  size_t slots = 1;
};

/// The code grouping of `cover`'s group-by columns, or nullopt when the
/// cover is not a column store with a main segment, a column's codec has no
/// packed codes (RLE, raw) or the code spaces multiply past kMorselRows.
std::optional<CodeGrouping> PlanCodeGrouping(const Fragment& cover,
                                             const AggregationQuery& q) {
  if (cover.table->store() != StoreType::kColumn) return std::nullopt;
  const auto& table = static_cast<const ColumnTable&>(*cover.table);
  if (table.main_rows() == 0) return std::nullopt;
  CodeGrouping g;
  g.main_rows = table.main_rows();
  for (const ColumnRef& ref : q.group_by) {
    const compression::PackedCodes c =
        table.MainCodes(cover.FragColumn(ref.column));
    if (c.packed == nullptr || c.space > kMorselRows / g.slots) {
      return std::nullopt;
    }
    g.codes.push_back(c.packed);
    g.strides.push_back(g.slots);
    g.slots *= c.space;
  }
  return g;
}

/// The aggregation kernel (contract in read_path.h): folds the rows of
/// `cover` in morsel [begin, end) selected by `bm` into `totals` or
/// `group_map`.
void AggregateRange(const Fragment& cover, const Bitmap& bm, size_t begin,
                    size_t end, const AggregationQuery& q, bool grouped,
                    std::vector<AggState>* totals, GroupMap* group_map) {
  const PhysicalTable& table = *cover.table;
  const size_t num_aggs = q.aggregates.size();
  if (!grouped) {
    for (size_t i = 0; i < num_aggs; ++i) {
      const AggregateExpr& agg = q.aggregates[i];
      if (agg.fn == AggFn::kCount) {
        (*totals)[i].AddCount(
            static_cast<double>(bm.CountInRange(begin, end)));
      } else {
        ForEachNumericInRange(table, cover.FragColumn(agg.column.column), bm,
                              begin, end,
                              [&](RowId, double v) { (*totals)[i].Add(v); });
      }
    }
    return;
  }
  const std::optional<CodeGrouping> code = PlanCodeGrouping(cover, q);
  // Buffers kept by each thread across morsels (at most kMorselRows
  // pointers each): freshly allocated, a morsel-sized buffer (up to
  // 128 KiB) costs an mmap and its page faults on every morsel.
  thread_local std::vector<AggState*> slot_states;
  thread_local std::vector<AggState*> row_states;
  slot_states.assign(code ? code->slots : 0, nullptr);
  row_states.clear();
  GroupKey key;
  auto lookup = [&](size_t rid) {
    key.values.clear();
    for (const ColumnRef& ref : q.group_by) {
      key.values.push_back(table.GetValue(rid, cover.FragColumn(ref.column)));
    }
    return GroupStates(group_map, key, num_aggs).data();
  };
  // Resolve every selected row's group states in row order, then decode
  // each aggregate column once into them.
  row_states.reserve(bm.CountInRange(begin, end));
  bm.ForEachSetInRange(begin, end, [&](size_t rid) {
    if (!code || rid >= code->main_rows) {
      row_states.push_back(lookup(rid));
      return;
    }
    size_t slot = 0;
    for (size_t c = 0; c < code->codes.size(); ++c) {
      slot += code->codes[c]->Get(rid) * code->strides[c];
    }
    AggState*& states = slot_states[slot];
    if (states == nullptr) states = lookup(rid);
    row_states.push_back(states);
  });
  for (size_t i = 0; i < num_aggs; ++i) {
    const AggregateExpr& agg = q.aggregates[i];
    if (agg.fn == AggFn::kCount) {
      for (AggState* states : row_states) states[i].AddCount(1.0);
      continue;
    }
    size_t j = 0;
    ForEachNumericInRange(
        table, cover.FragColumn(agg.column.column), bm, begin, end,
        [&](RowId, double v) { row_states[j++][i].Add(v); });
  }
}

/// Per-morsel partial aggregates, merged by the caller in morsel order.
struct MorselAgg {
  std::vector<AggState> totals;
  GroupMap groups;
};

}  // namespace

void AggregateCover(const ParallelContext& ctx, const Fragment& cover,
                    const std::vector<const PredicateTerm*>& terms,
                    const AggregationQuery& q, bool grouped,
                    const Bitmap* prefiltered, std::vector<AggState>* totals,
                    GroupMap* group_map) {
  telemetry::ScopedSpan par_span("scan_parallel");
  std::vector<MorselAgg> partials(MorselCount(cover.table->slot_count()));
  ScanMorsels(ctx, cover, terms, prefiltered,
              [&](size_t m, size_t begin, size_t end, const Bitmap& bm) {
                MorselAgg& partial = partials[m];
                partial.totals.assign(q.aggregates.size(), AggState{});
                AggregateRange(cover, bm, begin, end, q, grouped,
                               &partial.totals, &partial.groups);
              });
  for (MorselAgg& partial : partials) {
    if (!grouped) {
      for (size_t i = 0; i < partial.totals.size(); ++i) {
        (*totals)[i].Merge(partial.totals[i]);
      }
      continue;
    }
    for (auto& [key, states] : partial.groups) {
      std::vector<AggState>& dst =
          GroupStates(group_map, key, q.aggregates.size());
      for (size_t i = 0; i < states.size(); ++i) dst[i].Merge(states[i]);
    }
  }
}

QueryResult FinalizeAggregation(const AggregationQuery& q, bool grouped,
                                const std::vector<AggState>& totals,
                                const GroupMap& group_map) {
  QueryResult result;
  if (!grouped) {
    result.aggregates.reserve(q.aggregates.size());
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      result.aggregates.push_back(totals[i].Finalize(q.aggregates[i].fn));
    }
  } else {
    result.rows.reserve(group_map.size());
    for (const auto& [key, states] : group_map) {
      Row row = key.values;
      for (size_t i = 0; i < q.aggregates.size(); ++i) {
        row.push_back(Value(states[i].Finalize(q.aggregates[i].fn)));
      }
      result.rows.push_back(std::move(row));
    }
  }
  return result;
}

const Fragment* CoveringFragment(const RowGroup& group,
                                 const std::vector<ColumnId>& columns) {
  for (const Fragment& frag : group.fragments) {
    if (frag.Covers(columns)) return &frag;
  }
  return nullptr;
}

PrimaryKey PkOfFragmentRow(const Fragment& frag, RowId rid) {
  const Schema& fs = frag.table->schema();
  PrimaryKey pk;
  pk.values.reserve(fs.primary_key().size());
  for (ColumnId c : fs.primary_key()) {
    pk.values.push_back(frag.table->GetValue(rid, c));
  }
  return pk;
}

Result<std::vector<PrimaryKey>> MatchingPksInGroup(
    const RowGroup& group, const std::vector<const PredicateTerm*>& terms) {
  std::vector<PrimaryKey> out;
  if (terms.empty()) {
    const Fragment& lead = group.fragments.front();
    lead.table->live_bitmap().ForEachSet(
        [&](size_t rid) { out.push_back(PkOfFragmentRow(lead, rid)); });
    return out;
  }
  std::vector<ColumnId> cols;
  cols.reserve(terms.size());
  for (const PredicateTerm* term : terms) cols.push_back(term->column.column);
  if (const Fragment* cover = CoveringFragment(group, cols)) {
    Bitmap bm = EvaluateOnFragment(*cover, terms);
    bm.ForEachSet(
        [&](size_t rid) { out.push_back(PkOfFragmentRow(*cover, rid)); });
    return out;
  }
  // Spanning path: assign every term to the first fragment holding its
  // column, evaluate per fragment, intersect the key sets.
  std::vector<const PredicateTerm*> remaining = terms;
  std::vector<std::unordered_set<PrimaryKey, PrimaryKeyHash>> sets;
  for (const Fragment& frag : group.fragments) {
    std::vector<const PredicateTerm*> mine;
    std::vector<const PredicateTerm*> rest;
    for (const PredicateTerm* term : remaining) {
      if (frag.Contains(term->column.column)) {
        mine.push_back(term);
      } else {
        rest.push_back(term);
      }
    }
    remaining = std::move(rest);
    if (mine.empty()) continue;
    Bitmap bm = EvaluateOnFragment(frag, mine);
    std::unordered_set<PrimaryKey, PrimaryKeyHash> keys;
    bm.ForEachSet(
        [&](size_t rid) { keys.insert(PkOfFragmentRow(frag, rid)); });
    sets.push_back(std::move(keys));
  }
  if (!remaining.empty()) {
    return Status::InvalidArgument("predicate column not stored in any "
                                   "fragment");
  }
  // Intersect, starting from the smallest set.
  std::sort(sets.begin(), sets.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  for (const PrimaryKey& pk : sets.front()) {
    bool in_all = true;
    for (size_t s = 1; s < sets.size(); ++s) {
      if (sets[s].find(pk) == sets[s].end()) {
        in_all = false;
        break;
      }
    }
    if (in_all) out.push_back(pk);
  }
  return out;
}

std::vector<ColumnId> UniqueColumns(std::vector<ColumnId> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

}  // namespace readpath
}  // namespace hsdb
