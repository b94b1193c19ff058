// PhysicalTable: the interface shared by the row store and the column store.
// A physical table owns the bytes of one table (or one partition piece).
//
// Every physical table is keyed: its schema has a non-empty primary key and
// each store keeps a hash index on it (uniqueness checks, FindByPk).
//
// Row ids returned by this interface are *transient*: they identify physical
// slots and stay valid only until the next delta merge (column store) — the
// engine therefore only defers merges to statement boundaries
// (AfterStatement) and never holds row ids across statements.
#ifndef HSDB_STORAGE_PHYSICAL_TABLE_H_
#define HSDB_STORAGE_PHYSICAL_TABLE_H_

#include <optional>
#include <vector>

#include "common/bitmap.h"
#include "common/result.h"
#include "common/row.h"
#include "common/schema.h"
#include "storage/primary_key.h"
#include "storage/store_type.h"
#include "storage/value_range.h"

namespace hsdb {

/// One predicate of a shared scan at the physical-table level: a range on
/// some column and the selection bitmap it narrows. Several of these over
/// the same column evaluate together in MultiFilterRangeSlice.
struct RangeScanTarget {
  const ValueRange* range = nullptr;
  Bitmap* inout = nullptr;
};

class PhysicalTable {
 public:
  virtual ~PhysicalTable() = default;

  virtual StoreType store() const = 0;
  const Schema& schema() const { return schema_; }

  /// Number of physical slots (live + deleted).
  virtual size_t slot_count() const = 0;
  /// Number of live rows.
  virtual size_t live_count() const = 0;
  virtual bool IsLive(RowId rid) const = 0;
  /// Liveness bitmap over all slots; used to seed filter evaluation.
  virtual const Bitmap& live_bitmap() const = 0;

  /// Inserts a row (validated and coerced against the schema). Fails with
  /// AlreadyExists when the primary key is already present — the uniqueness
  /// verification the paper's insert cost term models.
  virtual Result<RowId> Insert(Row row) = 0;

  /// Overwrites the cells `columns` of row `rid` with `values` (parallel
  /// arrays). Primary-key columns must not be updated.
  virtual Status UpdateRow(RowId rid, const std::vector<ColumnId>& columns,
                           const Row& values) = 0;

  virtual Status DeleteRow(RowId rid) = 0;

  /// Point lookup through the primary key.
  virtual std::optional<RowId> FindByPk(const PrimaryKey& pk) const = 0;

  /// Materializes a single cell / a full row. These are the slow generic
  /// accessors; scan kernels use the store-specific fast paths.
  virtual Value GetValue(RowId rid, ColumnId col) const = 0;
  virtual Row GetRow(RowId rid) const = 0;

  /// Narrows `inout` (sized slot_count) to rows whose `col` value lies in
  /// `range`; bits already cleared stay cleared (conjunction semantics).
  virtual void FilterRange(ColumnId col, const ValueRange& range,
                           Bitmap* inout) const = 0;

  /// FilterRange restricted to slots [begin, end): bits outside the slice
  /// are untouched. The parallel scan path evaluates disjoint slices of one
  /// shared bitmap concurrently, so implementations must only read/write
  /// bitmap words inside the slice — guaranteed when `begin` is 64-aligned
  /// (the morsel planner aligns every boundary; only the final `end` may be
  /// unaligned). The default is the slow generic per-row path; both stores
  /// override it with their scan kernels.
  virtual void FilterRangeSlice(ColumnId col, const ValueRange& range,
                                size_t begin, size_t end,
                                Bitmap* inout) const {
    inout->ForEachSetInRange(begin, end, [&](size_t rid) {
      if (!range.Contains(GetValue(rid, col))) inout->Clear(rid);
    });
  }

  /// Shared-scan form of FilterRangeSlice: narrows each target's bitmap to
  /// the rows of [begin, end) whose `col` value lies in that target's
  /// range. Per target the result must be bit-identical to
  /// FilterRangeSlice(col, *t.range, begin, end, t.inout) — same slice,
  /// alignment and conjunction contract. The default evaluates the targets
  /// one by one; the column store overrides it with a single decode pass
  /// over the encoded segment that fans out to every bitmap.
  virtual void MultiFilterRangeSlice(ColumnId col,
                                     const RangeScanTarget* targets, size_t k,
                                     size_t begin, size_t end) const {
    for (size_t i = 0; i < k; ++i) {
      FilterRangeSlice(col, *targets[i].range, begin, end, targets[i].inout);
    }
  }

  /// Compressed-size / plain-size ratio of a column; 1.0 for the row store.
  virtual double CompressionRate(ColumnId col) const = 0;

  /// Heap footprint of the table.
  virtual size_t memory_bytes() const = 0;

  /// Statement-boundary maintenance hook (the column store merges its delta
  /// here once it exceeds the configured threshold).
  virtual void AfterStatement() {}

  /// Statistics version counter: bumped by every mutation that can change
  /// the table's value distribution or physical encoding (insert, update,
  /// delete, delta merge). Analyze()/the EncodingPicker profile of the
  /// table is stale iff this moved — the catalog memoizes statistics
  /// refreshes on it instead of re-profiling every column unconditionally.
  uint64_t data_version() const { return data_version_; }

 protected:
  explicit PhysicalTable(Schema schema) : schema_(std::move(schema)) {
    HSDB_CHECK_MSG(!schema_.primary_key().empty(),
                   "physical tables require a primary key");
  }

  void BumpDataVersion() { ++data_version_; }

  Schema schema_;

 private:
  uint64_t data_version_ = 0;
};

}  // namespace hsdb

#endif  // HSDB_STORAGE_PHYSICAL_TABLE_H_
