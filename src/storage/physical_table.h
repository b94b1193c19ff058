// PhysicalTable: the interface shared by the row store and the column store.
// A physical table owns the bytes of one table (or one partition piece).
//
// Every physical table is keyed: its schema has a non-empty primary key and
// each store keeps a hash index on it (FindByPk; LogicalTable probes it for
// uniqueness before every insert).
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

  // DML. LogicalTable is the one validation boundary: it checks arity and
  // column ranges, coerces every cell to its column's type, rejects updates
  // of key columns and probes the primary key across all row groups before
  // it calls a store. The stores trust that work: they re-check the typing
  // only in Debug builds (HSDB_DCHECK) and keep three release-mode
  // invariants, a live row id, a key that is not yet indexed and no update of
  // a key column (HSDB_CHECK aborts).

  /// Appends `row` and indexes its key. Preconditions: `row` has the
  /// schema's arity and every cell its column's type; its primary key is not
  /// indexed yet (LogicalTable ran the uniqueness probe the paper's insert
  /// cost term models).
  virtual RowId Insert(Row row) = 0;

  /// Overwrites the cells `columns` of row `rid` with `values` (parallel
  /// arrays). Preconditions: `rid` is live; every column is in range and not
  /// a primary-key column; every value has its column's type.
  virtual void UpdateRow(RowId rid, const std::vector<ColumnId>& columns,
                         const Row& values) = 0;

  /// Tombstones row `rid` and drops its key. Precondition: `rid` is live.
  virtual void DeleteRow(RowId rid) = 0;

  /// Primary key of slot `rid`, read from the key cells only.
  PrimaryKey KeyAt(RowId rid) const {
    PrimaryKey pk;
    pk.values.reserve(schema_.primary_key().size());
    for (ColumnId col : schema_.primary_key()) {
      pk.values.push_back(GetValue(rid, col));
    }
    return pk;
  }

  /// Point lookup through the primary key.
  virtual std::optional<RowId> FindByPk(const PrimaryKey& pk) const = 0;

  /// Materializes a single cell / a full row. These are the slow generic
  /// accessors; scan kernels use the store-specific fast paths.
  virtual Value GetValue(RowId rid, ColumnId col) const = 0;
  virtual Row GetRow(RowId rid) const = 0;

  /// Narrows `inout` (sized slot_count) over slots [begin, end) to rows
  /// whose `col` value lies in `range`; bits already cleared stay cleared
  /// (conjunction semantics) and bits outside the slice are untouched. The
  /// parallel scan path evaluates disjoint slices of one shared bitmap
  /// concurrently, so implementations must only read/write bitmap words
  /// inside the slice — guaranteed when `begin` is 64-aligned (the morsel
  /// planner aligns every boundary; only the final `end` may be unaligned).
  /// A whole-table filter is the slice [0, slot_count()).
  virtual void FilterRangeSlice(ColumnId col, const ValueRange& range,
                                size_t begin, size_t end,
                                Bitmap* inout) const = 0;

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

  /// Debug checks of the Insert/UpdateRow preconditions.
  bool IsTypedRow(const Row& row) const {
    bool ok = row.size() == schema_.num_columns();
    for (ColumnId col = 0; ok && col < row.size(); ++col) {
      ok = HasColumnType(col, row[col]);
    }
    return ok;
  }
  bool IsTypedUpdate(const std::vector<ColumnId>& columns,
                     const Row& values) const {
    bool ok = columns.size() == values.size();
    for (size_t i = 0; ok && i < columns.size(); ++i) {
      ok = columns[i] < schema_.num_columns() &&
           HasColumnType(columns[i], values[i]);
    }
    return ok;
  }

  /// Release-mode check that an update leaves the key cells alone.
  bool UpdatesKey(const std::vector<ColumnId>& columns) const {
    for (ColumnId col : columns) {
      if (schema_.IsPrimaryKeyColumn(col)) return true;
    }
    return false;
  }

  Schema schema_;

 private:
  bool HasColumnType(ColumnId col, const Value& value) const {
    return value.is_valid() && value.type() == schema_.column(col).type;
  }

  uint64_t data_version_ = 0;
};

}  // namespace hsdb

#endif  // HSDB_STORAGE_PHYSICAL_TABLE_H_
