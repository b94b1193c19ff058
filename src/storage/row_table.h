// RowTable: the row store. Tuples live back to back in fixed-stride slots
// inside an arena; VARCHAR cells hold 4-byte references into a per-table
// string pool. A hash index over the primary key provides O(1) point access;
// optional B+-tree secondary indexes accelerate range predicates.
//
// Performance profile (the asymmetries the advisor's cost model measures):
//  - inserts: arena append + O(1) index maintenance (fast)
//  - updates: in-place byte writes (fast)
//  - point/range access: hash / B+-tree index, contiguous row copy (fast)
//  - column scans/aggregates: strided access touching every row's full width
//    (slow relative to the column store)
#ifndef HSDB_STORAGE_ROW_TABLE_H_
#define HSDB_STORAGE_ROW_TABLE_H_

#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/string_pool.h"
#include "storage/btree.h"
#include "storage/key_codec.h"
#include "storage/physical_table.h"

namespace hsdb {

class RowTable final : public PhysicalTable {
 public:
  struct Options {
    size_t arena_chunk_bytes = 1 << 20;
  };

  /// Creates an empty row table.
  static std::unique_ptr<RowTable> Create(Schema schema, Options options);
  static std::unique_ptr<RowTable> Create(Schema schema) {
    return Create(std::move(schema), Options{});
  }

  // PhysicalTable interface -------------------------------------------------
  StoreType store() const override { return StoreType::kRow; }
  size_t slot_count() const override { return slots_.size(); }
  size_t live_count() const override { return live_count_; }
  bool IsLive(RowId rid) const override {
    return rid < slots_.size() && live_.Test(rid);
  }
  const Bitmap& live_bitmap() const override { return live_; }

  RowId Insert(Row row) override;
  void UpdateRow(RowId rid, const std::vector<ColumnId>& columns,
                 const Row& values) override;
  void DeleteRow(RowId rid) override;
  std::optional<RowId> FindByPk(const PrimaryKey& pk) const override;
  Value GetValue(RowId rid, ColumnId col) const override;
  Row GetRow(RowId rid) const override;
  void FilterRangeSlice(ColumnId col, const ValueRange& range, size_t begin,
                        size_t end, Bitmap* inout) const override;
  double CompressionRate(ColumnId) const override { return 1.0; }
  size_t memory_bytes() const override;

  // Row-store specific API --------------------------------------------------

  /// Builds a B+-tree index over a numeric column. Existing rows are
  /// indexed; subsequent mutations maintain the index. A second call for
  /// the same column is a no-op.
  Status CreateSortedIndex(ColumnId col);
  bool HasSortedIndex(ColumnId col) const {
    return indexes_.find(col) != indexes_.end();
  }

  /// Index-accelerated range filter; FailedPrecondition when `col` has no
  /// sorted index. The produced bitmap is sized slot_count().
  Result<Bitmap> IndexFilter(ColumnId col, const ValueRange& range) const;

  /// Calls fn(RowId, double) for the numeric `col` value of every rid in
  /// [begin, end) set in `filter`. Reads only the filter words covering the
  /// range, so disjoint ranges may be decoded concurrently (parallel
  /// aggregation morsels).
  template <typename Fn>
  void ForEachNumericRange(ColumnId col, const Bitmap& filter, size_t begin,
                           size_t end, Fn&& fn) const {
    const uint32_t offset = schema_.fixed_offset(col);
    switch (schema_.column(col).type) {
      case DataType::kInt32:
      case DataType::kDate:
        filter.ForEachSetInRange(begin, end, [&](size_t rid) {
          fn(rid, static_cast<double>(LoadAs<int32_t>(slots_[rid] + offset)));
        });
        break;
      case DataType::kInt64:
        filter.ForEachSetInRange(begin, end, [&](size_t rid) {
          fn(rid, static_cast<double>(LoadAs<int64_t>(slots_[rid] + offset)));
        });
        break;
      case DataType::kDouble:
        filter.ForEachSetInRange(begin, end, [&](size_t rid) {
          fn(rid, LoadAs<double>(slots_[rid] + offset));
        });
        break;
      case DataType::kVarchar:
        HSDB_CHECK_MSG(false, "ForEachNumericRange on VARCHAR column");
    }
  }

  /// Calls fn(RowId, std::string_view) for the VARCHAR `col` value of every
  /// rid in [begin, end) set in `filter`. The view refers to the table's
  /// string pool, whose payloads never move.
  template <typename Fn>
  void ForEachStringRange(ColumnId col, const Bitmap& filter, size_t begin,
                          size_t end, Fn&& fn) const {
    HSDB_CHECK_MSG(schema_.column(col).type == DataType::kVarchar,
                   "ForEachStringRange on numeric column");
    const uint32_t offset = schema_.fixed_offset(col);
    filter.ForEachSetInRange(begin, end, [&](size_t rid) {
      fn(rid, strings_.Get(LoadAs<uint32_t>(slots_[rid] + offset)));
    });
  }

  const StringPool& strings() const { return strings_; }

 private:
  RowTable(Schema schema, Options options);

  template <typename T>
  static T LoadAs(const std::byte* p) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  }
  template <typename T>
  static void StoreAs(std::byte* p, T v) {
    std::memcpy(p, &v, sizeof(T));
  }

  /// Writes `value` (already schema-typed) into the cell bytes.
  void WriteCell(std::byte* row, ColumnId col, const Value& value);
  /// Reads a cell as a Value.
  Value ReadCell(const std::byte* row, ColumnId col) const;

  void IndexInsert(ColumnId col, RowId rid);
  void IndexErase(ColumnId col, RowId rid);

  Arena arena_;
  std::vector<std::byte*> slots_;
  Bitmap live_;
  size_t live_count_ = 0;
  StringPool strings_;
  std::unordered_map<PrimaryKey, RowId, PrimaryKeyHash> pk_index_;
  std::map<ColumnId, BPlusTree<IndexKey>> indexes_;
};

}  // namespace hsdb

#endif  // HSDB_STORAGE_ROW_TABLE_H_
