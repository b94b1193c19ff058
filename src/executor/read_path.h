// Shared read-scan machinery: the binder, predicate evaluation and result
// materialization used by the per-statement Executor, the shared-scan
// BatchExecutor and `explain`. Everything here is free-standing and
// stateless — callers pass the fragment, the predicate terms and the
// ParallelContext.
//
// Bind is the one place that validates a statement and picks its access
// path. Its ReadPlan is what every consumer reads: the executor runs the
// plan's path, the batch executor shares exactly the plans marked
// `shareable`, and `explain` prints the plan's path — so none of them can
// describe or take a path the others would not.
//
// A covered scan has one kernel (SelectCover / AggregateCover): the cover
// is cut into kMorselRows-row morsels, and each morsel is filtered and
// then materialized or aggregated in the same ParallelFor body. Every
// degree of parallelism runs it; at DOP 1 the pool has no workers and the
// morsels run inline, in order, on the calling thread. The entry points
// take an optional `prefiltered` bitmap: the batch executor computes one
// selection bitmap per query in a shared predicate pass
// (MultiFilterRangeSlice — one decode of the encoded segment fans out to
// every query), and an index-seeded group computes its bitmap from the
// sorted index. Both then materialize through the same morsels, so the
// morsel structure, partial-merge order and row order — and therefore the
// result bits — are the same on every path and at every thread count.
// Inside a morsel the filter step runs under a `predicate` span and the
// materialize or aggregate step under `decode`; they record on the calling
// thread only (pool workers have no tracer), which at DOP 1 is every morsel.
//
// A star join is its fact table's aggregation plus one DimPlan per
// dimension. Each dimension is built into a DimTable first; a probe step at
// the head of every fact morsel's aggregate step then drops the rows that
// miss a dimension and hands the matched entries to the kernel.
#ifndef HSDB_EXECUTOR_READ_PATH_H_
#define HSDB_EXECUTOR_READ_PATH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/bitmap.h"
#include "executor/aggregate.h"
#include "executor/executor.h"
#include "executor/query.h"
#include "executor/result.h"
#include "storage/logical_table.h"

namespace hsdb {
namespace readpath {

/// Rows per morsel of the scan kernel. A multiple of 64 so that
/// morsel boundaries fall on bitmap word boundaries: each worker then writes
/// a disjoint word range of the shared selection bitmap, and results are
/// bit-identical for every thread count. Fixed (not derived from the thread
/// count) so that per-morsel work — and therefore merged output — is
/// independent of the degree of parallelism.
constexpr size_t kMorselRows = 16384;
static_assert(kMorselRows % 64 == 0, "morsels must be bitmap-word aligned");

inline size_t MorselCount(size_t n) {
  return (n + kMorselRows - 1) / kMorselRows;
}

/// How a bound statement (or one row group of it) reaches its rows. The
/// order is precedence: a statement's path is its highest-ranked group path,
/// so a single stitched or index-seeded group makes the whole statement
/// per-statement-only.
enum class AccessPath : uint8_t {
  kPointPk = 0,  // single equality on a single-column primary key
  kStitch,       // no fragment covers the needed columns: PK stitch
  kIndexSeed,    // row-store sorted index seeds the selection bitmap
  kScan,         // covering fragment scanned morsel by morsel
};
std::string_view AccessPathName(AccessPath path);

/// One row group of a bound statement.
struct GroupPlan {
  /// First fragment storing every needed column; nullptr where the group is
  /// vertically split (path kStitch).
  const Fragment* cover = nullptr;
  AccessPath path = AccessPath::kScan;
};

/// One dimension of a star join: its edge joins `fact_key` to the
/// dimension's single-column primary key.
struct DimPlan {
  LogicalTable* table = nullptr;
  ColumnId fact_key = 0;
  /// Its group-by and aggregate columns: what the build keeps per key.
  std::vector<ColumnId> values;
  std::vector<const PredicateTerm*> terms;
  /// Indexed by row group: the build's cover, or none (kStitch).
  std::vector<GroupPlan> groups;
  AccessPath path = AccessPath::kScan;  // the highest-ranked group path
};

/// A validated statement and its access path. Pointers refer into the bound
/// query and the table versions that were current under the caller's locks;
/// the plan is valid only while both are.
struct ReadPlan {
  /// The statement's table; a star join's fact table.
  LogicalTable* table = nullptr;
  std::vector<const PredicateTerm*> terms;
  /// Indexed by row group; empty on the point-PK path.
  std::vector<GroupPlan> groups;
  AccessPath path = AccessPath::kScan;
  /// A star join's dimensions, indexed by table index - 1; empty for a
  /// single-table statement.
  std::vector<DimPlan> dims;
  /// A single-table read whose every group is a plain covered scan: the
  /// batch executor may answer it from a shared predicate pass.
  bool shareable = false;
};

/// Validates a SELECT, aggregation, UPDATE or DELETE against the live
/// catalog and picks its path. Call under the statement's table locks. A
/// join edge must reach the dimension's single-column primary key and an
/// INSERT has no read plan: NotSupported.
Result<ReadPlan> Bind(const Catalog& catalog, const Query& query);

/// The selection bitmap of an index-seeded group (path kIndexSeed), which
/// the scan kernel then takes as `prefiltered`; nullopt for a plain scan.
std::optional<Bitmap> SeedBitmap(
    const GroupPlan& group, const std::vector<const PredicateTerm*>& terms);

/// Runs fn(m, begin, end) for every morsel m = [begin, end) of `n` slots on
/// the context's pool (inline on the caller at DOP 1) and returns when all
/// are done; counts the dispatch in the context's telemetry (total morsels,
/// and the worker-queue depth: pending tasks already queued plus these
/// morsels). Morsel begins are 64-aligned, so calls for different morsels
/// write disjoint words of a shared bitmap.
void ForEachMorsel(const ParallelContext& ctx, size_t n,
                   const std::function<void(size_t, size_t, size_t)>& fn);

/// SELECT over a covering fragment: each morsel filters and materializes
/// its own row batch; the caller concatenates the batches in morsel order,
/// which is ascending row-id order, up to `limit`. When `prefiltered` is
/// non-null the per-morsel filter step is skipped and rows come from that
/// bitmap instead (already narrowed by the batch executor's shared
/// predicate pass or by a sorted index).
void SelectCover(const ParallelContext& ctx, const Fragment& cover,
                 const std::vector<const PredicateTerm*>& terms,
                 const std::vector<ColumnId>& select_columns, size_t limit,
                 const Bitmap* prefiltered, QueryResult* result);

// AggregateCover folds each morsel with one kernel (AggregateRange in
// read_path.cc): the rows of the morsel selected by the bitmap go into the
// morsel's own totals (ungrouped: one AggState per aggregate) or group map
// (grouped).
//
// Grouped, on a column-store cover whose group-by columns are all
// dictionary- or frame-of-reference-coded with code spaces multiplying to at
// most kMorselRows, main-segment rows group on their packed codes: the codes
// combine mixed-radix into a slot of a flat table, so a group's key is
// materialized (GetValue) only at its first row. Delta rows, RLE or raw
// group-by columns, larger code spaces and row-store covers group on the
// GetValue key of every row. The codec picks the path, nothing else.
//
// Either way groups enter the map in first-seen row-id order, each
// aggregate column is decoded straight into the groups' states in blocks of
// kMorselRows rows, and every AggState receives its rows' Add calls in
// ascending row-id order — so the code path's output (aggregates, group
// rows and their order) is bit-identical to the generic path's.

/// A dimension's hash build. Entry e is a dimension row that passed the
/// terms: its primary key keys[e] and its values of DimPlan::values,
/// entry-major; `slots` indexes the entries by key hash (open addressing).
struct DimTable {
  static constexpr uint32_t kNoEntry = UINT32_MAX;
  const DimPlan* plan = nullptr;
  std::vector<Value> keys;
  std::vector<Value> values;
  std::vector<uint32_t> slots;

  /// The entry whose key equals `key`, or kNoEntry.
  uint32_t Find(const Value& key) const;
  const Value& At(uint32_t entry, ColumnId col) const {
    const auto& cols = plan->values;
    return values[entry * cols.size() +
                  (std::find(cols.begin(), cols.end(), col) - cols.begin())];
  }
};

/// Builds a dimension, reading only the key, the values and the terms'
/// columns from each group's cover (or stitching a group with none).
DimTable BuildDim(const DimPlan& dim);

/// Aggregation over a covering fragment: each morsel runs the kernel into
/// private partials (AggState vector or GroupMap); the caller merges them
/// in morsel order, so floating-point sums associate the same way at every
/// thread count and on every path. `prefiltered` as in SelectCover. With
/// `dims` non-empty (a star join, indexed like ReadPlan::dims) each morsel
/// first probes them and aggregates only the rows that match all of them.
void AggregateCover(const ParallelContext& ctx, const Fragment& cover,
                    const std::vector<const PredicateTerm*>& terms,
                    const AggregationQuery& q, bool grouped,
                    const Bitmap* prefiltered,
                    const std::vector<DimTable>& dims,
                    std::vector<AggState>* totals, GroupMap* group_map);

/// The row-at-a-time stitch of a group no fragment covers, folded into a
/// partial that merges like one morsel's.
void AggregateStitched(const LogicalTable& table, size_t g,
                       const std::vector<const PredicateTerm*>& terms,
                       const AggregationQuery& q, bool grouped,
                       const std::vector<DimTable>& dims,
                       std::vector<AggState>* totals, GroupMap* group_map);

/// Folds accumulated aggregation state into the result shape: one value per
/// aggregate (ungrouped) or one row per group (grouped).
QueryResult FinalizeAggregation(const AggregationQuery& q, bool grouped,
                                const std::vector<AggState>& totals,
                                const GroupMap& group_map);

/// SELECT over a group no fragment covers (a vertical split): appends the
/// projection of the group's matching rows to `result` in row order until
/// it holds `limit` rows. A predicate one fragment holds is evaluated there
/// and only its matches are stitched; one spanning the split is checked on
/// the stitched row, which is projected in the same pass.
Status SelectStitched(const LogicalTable& table, size_t g,
                      const std::vector<const PredicateTerm*>& terms,
                      const std::vector<ColumnId>& select_columns,
                      size_t limit, QueryResult* result);

/// Primary keys of the rows of `table`'s group `g` matching the predicate,
/// in row order: evaluated on the first fragment holding every term column,
/// or, where the terms span a vertical split, by the row-at-a-time stitch.
std::vector<PrimaryKey> MatchingPksInGroup(
    const LogicalTable& table, size_t g,
    const std::vector<const PredicateTerm*>& terms);

}  // namespace readpath
}  // namespace hsdb

#endif  // HSDB_EXECUTOR_READ_PATH_H_
