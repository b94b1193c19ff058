#include "executor/read_path.h"

#include <algorithm>
#include <bit>
#include <optional>

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

/// Evaluates a conjunction of terms on one fragment. All term columns must
/// be contained in the fragment. Uses a row-store sorted index to seed the
/// bitmap when one is available for a term's column.
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
        table.FilterRangeSlice(frag.FragColumn(term->column.column),
                               term->range, 0, table.slot_count(), &bm);
      }
      return bm;
    }
  }
  Bitmap bm = table.live_bitmap();
  for (const PredicateTerm* term : terms) {
    table.FilterRangeSlice(frag.FragColumn(term->column.column), term->range,
                           0, table.slot_count(), &bm);
  }
  return bm;
}

/// First fragment of the group containing every column, or nullptr.
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

/// Sorted, deduplicated column list.
std::vector<ColumnId> UniqueColumns(std::vector<ColumnId> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

/// Each row group's cover of `columns` plus the terms' columns, and its
/// path; returns the highest-ranked group path.
AccessPath PlanGroups(const LogicalTable& table, std::vector<ColumnId> columns,
                      const std::vector<const PredicateTerm*>& terms,
                      std::vector<GroupPlan>* groups) {
  for (const PredicateTerm* t : terms) columns.push_back(t->column.column);
  columns = UniqueColumns(std::move(columns));
  AccessPath path = AccessPath::kScan;
  for (const RowGroup& group : table.groups()) {
    GroupPlan& g = groups->emplace_back();
    g.cover = CoveringFragment(group, columns);
    if (g.cover == nullptr) {
      g.path = AccessPath::kStitch;
    } else if (SeedTerm(*g.cover, terms) != nullptr) {
      // Already sub-linear: sharing its predicate pass would only add work.
      g.path = AccessPath::kIndexSeed;
    }
    path = std::min(path, g.path);
  }
  return path;
}

/// Aggregation checks, single-table or star join: sets the fact table,
/// appends the fact columns it reads to `needed` and plans each dimension.
Status BindAggregation(const Catalog& catalog, const AggregationQuery& q,
                       ReadPlan* plan, std::vector<ColumnId>* needed) {
  if (q.tables.empty() || q.aggregates.empty()) {
    return Status::InvalidArgument("aggregation requires a table and an "
                                   "aggregate");
  }
  std::vector<LogicalTable*> tables;
  for (const std::string& name : q.tables) {
    HSDB_ASSIGN_OR_RETURN(tables.emplace_back(), catalog.Find(name));
  }
  auto check_ref = [&](const ColumnRef& ref) -> Status {
    if (ref.table_index < 0 ||
        ref.table_index >= static_cast<int>(tables.size())) {
      return Status::InvalidArgument("column ref table index out of range");
    }
    if (ref.column >= tables[ref.table_index]->schema().num_columns()) {
      return Status::InvalidArgument("column ref out of range");
    }
    return Status::OK();
  };
  std::vector<ColumnRef> refs = q.group_by;  // the columns it reads
  for (const AggregateExpr& agg : q.aggregates) {
    if (agg.fn == AggFn::kCount) continue;
    HSDB_RETURN_IF_ERROR(check_ref(agg.column));
    const Schema& schema = tables[agg.column.table_index]->schema();
    if (!IsNumeric(schema.column(agg.column.column).type)) {
      return Status::InvalidArgument("aggregate over non-numeric column");
    }
    refs.push_back(agg.column);
  }
  for (const ColumnRef& ref : q.group_by) HSDB_RETURN_IF_ERROR(check_ref(ref));
  for (const PredicateTerm& term : q.predicate) {
    HSDB_RETURN_IF_ERROR(check_ref(term.column));
  }
  // Exactly one edge from the fact table to each dimension, on its key.
  if (q.joins.size() != tables.size() - 1) {
    return Status::InvalidArgument("star join requires one edge per dim");
  }
  plan->table = tables[0];
  plan->dims.resize(q.joins.size());
  for (const JoinEdge& e : q.joins) {
    if (e.left_table != 0) {
      return Status::NotSupported("only star joins on the first table");
    }
    if (e.right_table <= 0 ||
        e.right_table >= static_cast<int>(tables.size()) ||
        plan->dims[e.right_table - 1].table != nullptr) {
      return Status::InvalidArgument("invalid join edge");
    }
    HSDB_RETURN_IF_ERROR(check_ref({e.left_column, 0}));
    HSDB_RETURN_IF_ERROR(check_ref({e.right_column, e.right_table}));
    DimPlan& dim = plan->dims[e.right_table - 1];
    dim.table = tables[e.right_table];
    if (dim.table->schema().primary_key() !=
        std::vector<ColumnId>{e.right_column}) {
      return Status::NotSupported(
          "join edge must reach the dimension's single-column primary key");
    }
    dim.fact_key = e.left_column;
    dim.terms = TermsForTable(q.predicate, e.right_table);
    HSDB_RETURN_IF_ERROR(ValidateTerms(dim.table->schema(), dim.terms));
    needed->push_back(e.left_column);
  }
  for (const ColumnRef& ref : refs) {
    std::vector<ColumnId>& columns =
        ref.table_index == 0 ? *needed
                             : plan->dims[ref.table_index - 1].values;
    if (std::find(columns.begin(), columns.end(), ref.column) ==
        columns.end()) {
      columns.push_back(ref.column);
    }
  }
  for (DimPlan& dim : plan->dims) {
    std::vector<ColumnId> columns = dim.values;
    columns.push_back(dim.table->schema().primary_key()[0]);
    dim.path =
        PlanGroups(*dim.table, std::move(columns), dim.terms, &dim.groups);
  }
  return Status::OK();
}

}  // namespace

Result<ReadPlan> Bind(const Catalog& catalog, const Query& query) {
  ReadPlan plan;
  std::vector<ColumnId> needed;  // the logical columns the statement reads
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
      needed = q.select_columns;
      predicate = &q.predicate;
      break;
    }
    case QueryKind::kAggregation: {
      const auto& q = std::get<AggregationQuery>(query);
      HSDB_RETURN_IF_ERROR(BindAggregation(catalog, q, &plan, &needed));
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
  if (plan.dims.empty() && plan.terms.size() != predicate->size()) {
    return Status::InvalidArgument("predicate references other tables");
  }
  HSDB_RETURN_IF_ERROR(ValidateTerms(schema, plan.terms));

  const bool read =
      kind == QueryKind::kSelect || kind == QueryKind::kAggregation;
  // The point fast path is sub-linear. Aggregations never take it.
  if (kind != QueryKind::kAggregation && IsPkPointLookup(schema, *predicate)) {
    plan.path = AccessPath::kPointPk;
    return plan;
  }
  plan.path = PlanGroups(*plan.table, std::move(needed), plan.terms,
                         &plan.groups);
  plan.shareable =
      read && plan.dims.empty() && plan.path == AccessPath::kScan;
  return plan;
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

/// The fused per-morsel loop of both scan kernels: narrows each morsel of a
/// copy of the live bitmap by every term (or of `prefiltered`), then hands
/// the morsel and the selection to `consume`, which may narrow it further.
void ScanMorsels(
    const ParallelContext& ctx, const Fragment& cover,
    const std::vector<const PredicateTerm*>& terms, const Bitmap* prefiltered,
    const std::function<void(size_t, size_t, size_t, Bitmap&)>& consume) {
  Bitmap bm =
      prefiltered != nullptr ? *prefiltered : cover.table->live_bitmap();
  ForEachMorsel(ctx, cover.table->slot_count(),
                [&](size_t m, size_t begin, size_t end) {
                  if (prefiltered == nullptr) {
                    telemetry::ScopedSpan predicate_span("predicate");
                    for (const PredicateTerm* term : terms) {
                      cover.table->FilterRangeSlice(
                          cover.FragColumn(term->column.column), term->range,
                          begin, end, &bm);
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
              [&](size_t m, size_t begin, size_t end, Bitmap& bm) {
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

/// The entry each row a morsel's probe step kept matched, per dimension, in
/// row order.
using Matches = std::vector<std::vector<uint32_t>>;

/// Probes every dimension with the fact key values `fact_value(col)`
/// returns: false on a miss in any of them, else their entries are in
/// `hit`. A dimension whose key repeats the previous probe's (a fact table
/// clustered on the key) reuses that probe's answer.
template <typename Get>
bool ProbeDims(const std::vector<DimTable>& dims, Get&& fact_value,
               std::vector<Value>* keys, std::vector<uint32_t>* hit) {
  keys->resize(dims.size());
  hit->resize(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    Value key = fact_value(dims[d].plan->fact_key);
    if (!(key == (*keys)[d])) {
      (*hit)[d] = dims[d].Find(key);
      (*keys)[d] = std::move(key);
    }
    if ((*hit)[d] == DimTable::kNoEntry) return false;
  }
  return true;
}

/// The probe step: clears from `bm` the rows of [begin, end) that miss a
/// dimension and records the entries the others matched.
void ProbeRange(const Fragment& cover, const std::vector<DimTable>& dims,
                size_t begin, size_t end, Bitmap* bm, Matches* matches) {
  matches->resize(dims.size());
  for (std::vector<uint32_t>& entries : *matches) entries.clear();
  std::vector<Value> keys;
  std::vector<uint32_t> hit;
  // ForEachSetInRange reads each word before visiting its bits, so clearing
  // the visited bit is safe.
  bm->ForEachSetInRange(begin, end, [&](size_t rid) {
    auto fact_value = [&](ColumnId col) {
      return cover.table->GetValue(rid, cover.FragColumn(col));
    };
    if (!ProbeDims(dims, fact_value, &keys, &hit)) return bm->Clear(rid);
    for (size_t d = 0; d < dims.size(); ++d) (*matches)[d].push_back(hit[d]);
  });
}

/// The aggregation kernel (contract in read_path.h): folds the rows of
/// `cover` in morsel [begin, end) selected by `bm` into `totals` or
/// `group_map`. A star join's rows bring their dimension values from the
/// entries `matches` holds for them.
void AggregateRange(const Fragment& cover, const Bitmap& bm, size_t begin,
                    size_t end, const AggregationQuery& q, bool grouped,
                    const std::vector<DimTable>& dims, const Matches& matches,
                    std::vector<AggState>* totals, GroupMap* group_map) {
  const PhysicalTable& table = *cover.table;
  const size_t num_aggs = q.aggregates.size();
  // A dimension column's value in the entry the j-th kept row matched.
  auto dim_value = [&](const ColumnRef& ref, size_t j) -> const Value& {
    const size_t d = static_cast<size_t>(ref.table_index) - 1;
    return dims[d].At(matches[d][j], ref.column);
  };
  if (!grouped) {
    for (size_t i = 0; i < num_aggs; ++i) {
      const AggregateExpr& agg = q.aggregates[i];
      AggState& total = (*totals)[i];
      if (agg.fn == AggFn::kCount) {
        total.AddCount(static_cast<double>(bm.CountInRange(begin, end)));
      } else if (agg.column.table_index != 0) {
        for (size_t j = 0; j < matches[0].size(); ++j) {
          total.Add(dim_value(agg.column, j).AsNumeric());
        }
      } else {
        ForEachNumericInRange(table, cover.FragColumn(agg.column.column), bm,
                              begin, end,
                              [&](RowId, double v) { total.Add(v); });
      }
    }
    return;
  }
  // Dimension group-by columns have no codes in the cover.
  const std::optional<CodeGrouping> code =
      dims.empty() ? PlanCodeGrouping(cover, q) : std::nullopt;
  // Buffers kept by each thread across morsels (at most kMorselRows
  // pointers each): freshly allocated, a morsel-sized buffer (up to
  // 128 KiB) costs an mmap and its page faults on every morsel.
  thread_local std::vector<AggState*> slot_states;
  thread_local std::vector<AggState*> row_states;
  slot_states.assign(code ? code->slots : 0, nullptr);
  row_states.clear();
  GroupKey key;
  size_t j = 0;  // the row's index among the selected (kept) rows
  auto lookup = [&](size_t rid) {
    key.values.clear();
    for (const ColumnRef& ref : q.group_by) {
      key.values.push_back(
          ref.table_index == 0
              ? table.GetValue(rid, cover.FragColumn(ref.column))
              : dim_value(ref, j));
    }
    return GroupStates(group_map, key, num_aggs).data();
  };
  // Resolve every selected row's group states in row order, then decode
  // each aggregate column once into them.
  row_states.reserve(bm.CountInRange(begin, end));
  bm.ForEachSetInRange(begin, end, [&](size_t rid) {
    if (!code || rid >= code->main_rows) {
      row_states.push_back(lookup(rid));
    } else {
      size_t slot = 0;
      for (size_t c = 0; c < code->codes.size(); ++c) {
        slot += code->codes[c]->Get(rid) * code->strides[c];
      }
      AggState*& states = slot_states[slot];
      if (states == nullptr) states = lookup(rid);
      row_states.push_back(states);
    }
    ++j;
  });
  for (size_t i = 0; i < num_aggs; ++i) {
    const AggregateExpr& agg = q.aggregates[i];
    if (agg.fn == AggFn::kCount) {
      for (AggState* states : row_states) states[i].AddCount(1.0);
    } else if (agg.column.table_index != 0) {
      for (j = 0; j < row_states.size(); ++j) {
        row_states[j][i].Add(dim_value(agg.column, j).AsNumeric());
      }
    } else {
      j = 0;
      ForEachNumericInRange(
          table, cover.FragColumn(agg.column.column), bm, begin, end,
          [&](RowId, double v) { row_states[j++][i].Add(v); });
    }
  }
}

/// Per-morsel partial aggregates, merged by the caller in morsel order.
struct MorselAgg {
  std::vector<AggState> totals;
  GroupMap groups;
};

/// Folds a partial in (only one of its totals and groups is non-empty).
void MergePartial(const MorselAgg& partial, std::vector<AggState>* totals,
                  GroupMap* group_map) {
  for (size_t i = 0; i < partial.totals.size(); ++i) {
    (*totals)[i].Merge(partial.totals[i]);
  }
  for (const auto& [key, states] : partial.groups) {
    std::vector<AggState>& dst = GroupStates(group_map, key, states.size());
    for (size_t i = 0; i < states.size(); ++i) dst[i].Merge(states[i]);
  }
}

/// Calls fn(row) for each stitched logical row of `table`'s group `g` that
/// passes `terms`, in row order, until fn returns false: the row-at-a-time
/// fallback of a group no fragment covers.
template <typename Fn>
void ForEachMatchingRow(const LogicalTable& table, size_t g,
                        const std::vector<const PredicateTerm*>& terms,
                        Fn&& fn) {
  table.ForEachRowInGroup(g, [&](const Row& row) {
    for (const PredicateTerm* term : terms) {
      if (!term->range.Contains(row[term->column.column])) return true;
    }
    return fn(row);
  });
}

}  // namespace

void AggregateCover(const ParallelContext& ctx, const Fragment& cover,
                    const std::vector<const PredicateTerm*>& terms,
                    const AggregationQuery& q, bool grouped,
                    const Bitmap* prefiltered,
                    const std::vector<DimTable>& dims,
                    std::vector<AggState>* totals, GroupMap* group_map) {
  telemetry::ScopedSpan par_span("scan_parallel");
  std::vector<MorselAgg> partials(MorselCount(cover.table->slot_count()));
  ScanMorsels(ctx, cover, terms, prefiltered,
              [&](size_t m, size_t begin, size_t end, Bitmap& bm) {
                MorselAgg& partial = partials[m];
                partial.totals.assign(q.aggregates.size(), AggState{});
                thread_local Matches matches;
                if (!dims.empty()) {
                  ProbeRange(cover, dims, begin, end, &bm, &matches);
                }
                AggregateRange(cover, bm, begin, end, q, grouped, dims,
                               matches, &partial.totals, &partial.groups);
              });
  for (const MorselAgg& partial : partials) {
    MergePartial(partial, totals, group_map);
  }
}

void AggregateStitched(const LogicalTable& table, size_t g,
                       const std::vector<const PredicateTerm*>& terms,
                       const AggregationQuery& q, bool grouped,
                       const std::vector<DimTable>& dims,
                       std::vector<AggState>* totals, GroupMap* group_map) {
  MorselAgg partial{std::vector<AggState>(q.aggregates.size()), {}};
  std::vector<Value> keys;
  std::vector<uint32_t> hit;
  GroupKey key;
  ForEachMatchingRow(table, g, terms, [&](const Row& row) {
    auto fact_value = [&](ColumnId col) { return row[col]; };
    if (!ProbeDims(dims, fact_value, &keys, &hit)) return true;
    auto value = [&](const ColumnRef& ref) -> const Value& {
      const int d = ref.table_index - 1;
      return d < 0 ? row[ref.column] : dims[d].At(hit[d], ref.column);
    };
    std::vector<AggState>* states = &partial.totals;
    if (grouped) {
      key.values.clear();
      for (const ColumnRef& ref : q.group_by) key.values.push_back(value(ref));
      states = &GroupStates(&partial.groups, key, q.aggregates.size());
    }
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      const AggregateExpr& agg = q.aggregates[i];
      if (agg.fn == AggFn::kCount) {
        (*states)[i].AddCount(1.0);
      } else {
        (*states)[i].Add(value(agg.column).AsNumeric());
      }
    }
    return true;
  });
  MergePartial(partial, totals, group_map);
}

uint32_t DimTable::Find(const Value& key) const {
  const size_t mask = slots.size() - 1;
  for (size_t s = key.Hash() & mask;; s = (s + 1) & mask) {
    if (slots[s] == kNoEntry || keys[slots[s]] == key) return slots[s];
  }
}

DimTable BuildDim(const DimPlan& dim) {
  DimTable out;
  out.plan = &dim;
  const ColumnId key = dim.table->schema().primary_key()[0];
  // `get(col)` reads one column of the row being added.
  auto add = [&](auto&& get) {
    out.keys.push_back(get(key));
    for (ColumnId col : dim.values) out.values.push_back(get(col));
  };
  for (size_t g = 0; g < dim.groups.size(); ++g) {
    const Fragment* cover = dim.groups[g].cover;
    if (cover == nullptr) {
      ForEachMatchingRow(*dim.table, g, dim.terms, [&](const Row& row) {
        add([&](ColumnId col) { return row[col]; });
        return true;
      });
      continue;
    }
    EvaluateOnFragment(*cover, dim.terms).ForEachSet([&](size_t rid) {
      add([&](ColumnId col) {
        return cover->table->GetValue(rid, cover->FragColumn(col));
      });
    });
  }
  // Open addressing at most half full; keys are unique (primary key).
  out.slots.assign(std::bit_ceil(2 * out.keys.size() + 1), DimTable::kNoEntry);
  const size_t mask = out.slots.size() - 1;
  for (uint32_t e = 0; e < out.keys.size(); ++e) {
    size_t s = out.keys[e].Hash() & mask;
    while (out.slots[s] != DimTable::kNoEntry) s = (s + 1) & mask;
    out.slots[s] = e;
  }
  return out;
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
    // Groups leave in key order: the map's own order follows the scan's
    // row order and morsel boundaries, so it would differ across layouts.
    std::vector<const GroupMap::value_type*> groups;
    groups.reserve(group_map.size());
    for (const auto& entry : group_map) groups.push_back(&entry);
    std::sort(groups.begin(), groups.end(), [](const auto* a, const auto* b) {
      return std::lexicographical_compare(
          a->first.values.begin(), a->first.values.end(),
          b->first.values.begin(), b->first.values.end());
    });
    result.rows.reserve(groups.size());
    for (const auto* group : groups) {
      Row row = group->first.values;
      for (size_t i = 0; i < q.aggregates.size(); ++i) {
        row.push_back(Value(group->second[i].Finalize(q.aggregates[i].fn)));
      }
      result.rows.push_back(std::move(row));
    }
  }
  return result;
}

Status SelectStitched(const LogicalTable& table, size_t g,
                      const std::vector<const PredicateTerm*>& terms,
                      const std::vector<ColumnId>& select_columns,
                      size_t limit, QueryResult* result) {
  if (result->rows.size() >= limit) return Status::OK();
  std::vector<ColumnId> cols;
  for (const PredicateTerm* term : terms) cols.push_back(term->column.column);
  const Fragment* cover = CoveringFragment(table.groups()[g], cols);
  if (cover == nullptr) {
    // The predicate spans the split as well: one stitch per row both
    // filters and projects.
    ForEachMatchingRow(table, g, terms, [&](const Row& row) {
      result->rows.push_back(ProjectRow(row, select_columns));
      return result->rows.size() < limit;
    });
    return Status::OK();
  }
  // The predicate runs on the covering fragment; only the matches within
  // the limit are stitched.
  std::vector<PrimaryKey> pks;
  EvaluateOnFragment(*cover, terms).ForEachSet([&](size_t rid) {
    if (result->rows.size() + pks.size() < limit) {
      pks.push_back(PkOfFragmentRow(*cover, rid));
    }
  });
  for (const PrimaryKey& pk : pks) {
    HSDB_ASSIGN_OR_RETURN(Row row, table.GetByPk(pk));
    result->rows.push_back(ProjectRow(row, select_columns));
  }
  return Status::OK();
}

std::vector<PrimaryKey> MatchingPksInGroup(
    const LogicalTable& table, size_t g,
    const std::vector<const PredicateTerm*>& terms) {
  std::vector<PrimaryKey> out;
  std::vector<ColumnId> cols;
  for (const PredicateTerm* term : terms) cols.push_back(term->column.column);
  if (const Fragment* cover = CoveringFragment(table.groups()[g], cols)) {
    EvaluateOnFragment(*cover, terms).ForEachSet(
        [&](size_t rid) { out.push_back(PkOfFragmentRow(*cover, rid)); });
    return out;
  }
  ForEachMatchingRow(table, g, terms, [&](const Row& row) {
    out.push_back(PrimaryKey::FromRow(table.schema(), row));
    return true;
  });
  return out;
}

}  // namespace readpath
}  // namespace hsdb
