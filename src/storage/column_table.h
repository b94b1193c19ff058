// ColumnTable: the column store. Every column is split into a read-optimized
// compressed "main" segment — encoded with the codec the EncodingPicker
// selects per column (order-preserving dictionary, run-length, frame-of-
// reference or raw; storage/compression/) — and a write-optimized unsorted
// "delta" of raw values. Deletes and updates tombstone the old slot; a merge
// folds the delta into the main, compacts tombstones, re-encodes every
// column segment from one hashing pass over its values, and keeps the
// primary-key index (row ids are remapped only past tombstones).
//
// Performance profile (the asymmetries the advisor's cost model measures):
//  - column scans/aggregates: sequential segment decode (bit-packed ids +
//    small dictionary lookups, run replay, base+delta adds — all
//    cache-friendly)
//  - range predicates: evaluated on the encoded data — dictionary binary
//    search -> id-range comparison (the paper's "implicit index"), RLE run
//    skipping, FOR packed-domain comparison; linear in table size with a
//    small constant, output cost linear in selectivity
//  - inserts: per-column delta appends + primary-key maintenance, plus the
//    amortized cost of merges (slower than the row store)
//  - updates: tombstone + full-width re-insert (tuple reconstruction; slower)
//  - point access / reconstruction: one indirection per column (slower)
#ifndef HSDB_STORAGE_COLUMN_TABLE_H_
#define HSDB_STORAGE_COLUMN_TABLE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "storage/compression/encoded_segment.h"
#include "storage/physical_table.h"

namespace hsdb {

class ColumnTable final : public PhysicalTable {
 public:
  struct Options {
    /// Merge when the delta exceeds max(min_merge_rows,
    /// merge_fraction * main rows) at a statement boundary.
    size_t min_merge_rows = 4096;
    double merge_fraction = 0.05;
    /// Automatic merging at statement boundaries (AfterStatement).
    bool auto_merge = true;
    /// Per-column codec selection for the main segments (adaptive by
    /// default; set encoding.adaptive=false for dictionary-only segments,
    /// or encoding.force to pin one codec).
    compression::EncodingPicker::Options encoding;
    /// Pins the codec of individual columns (this table's column ids; an
    /// unset entry or a shorter vector falls back to `encoding`). This is
    /// how the advisor's cost-derived ENCODING (...) assignment is applied:
    /// merges encode the pinned columns with the requested codec
    /// (dictionary fallback when inapplicable) instead of re-running the
    /// footprint-greedy picker.
    std::vector<std::optional<Encoding>> column_encodings;
  };

  static std::unique_ptr<ColumnTable> Create(Schema schema, Options options);
  static std::unique_ptr<ColumnTable> Create(Schema schema) {
    return Create(std::move(schema), Options{});
  }

  // PhysicalTable interface -------------------------------------------------
  StoreType store() const override { return StoreType::kColumn; }
  size_t slot_count() const override { return live_.size(); }
  size_t live_count() const override { return live_count_; }
  bool IsLive(RowId rid) const override {
    return rid < live_.size() && live_.Test(rid);
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
  void MultiFilterRangeSlice(ColumnId col, const RangeScanTarget* targets,
                             size_t k, size_t begin,
                             size_t end) const override;
  double CompressionRate(ColumnId col) const override;
  size_t memory_bytes() const override;
  void AfterStatement() override;

  // Column-store specific API -----------------------------------------------

  /// Folds the delta into the main part: compacts tombstones and re-encodes
  /// every column's main segment (the EncodingPicker re-selects codecs from
  /// the merged value distribution). The PK index is kept: with no
  /// tombstones no row id changes, otherwise each entry moves to its row's
  /// rank among the live slots. Invalidates row ids past a tombstone.
  void MergeDelta();

  size_t main_rows() const { return main_size_; }
  size_t delta_rows() const { return live_.size() - main_size_; }
  /// Number of merges performed so far (exposed for tests/statistics).
  uint64_t merge_count() const { return merge_count_; }
  /// True when AfterStatement would merge.
  bool NeedsMerge() const;

  /// Distinct values in the main segment of `col` (the dictionary size for
  /// dictionary-encoded segments).
  size_t DictionarySize(ColumnId col) const;

  /// Codec of the main segment of `col` (kDictionary while the main part is
  /// still empty).
  Encoding ColumnEncoding(ColumnId col) const;

  /// Packed codes of the main segment of `col`, covering rows
  /// [0, main_rows()): dictionary value ids or FOR deltas; an empty view for
  /// RLE and raw segments. Valid until the next merge.
  compression::PackedCodes MainCodes(ColumnId col) const {
    return std::visit([](const auto& data) { return data.main.codes(); },
                      columns_[col]);
  }

  /// Size-weighted average compression rate across all columns.
  double TableCompressionRate() const;

  /// Calls fn(RowId, double) for the numeric `col` value of every rid in
  /// [begin, end) set in `filter`. Reads only the filter words covering the
  /// range, so disjoint ranges may be decoded concurrently (parallel
  /// aggregation morsels).
  template <typename Fn>
  void ForEachNumericRange(ColumnId col, const Bitmap& filter, size_t begin,
                           size_t end, Fn&& fn) const;

  /// Calls fn(RowId, std::string_view) for the VARCHAR `col` value of every
  /// rid in [begin, end) set in `filter`. The view refers to the main
  /// segment's dictionary entry or the delta's string and is valid until the
  /// next write to the table.
  template <typename Fn>
  void ForEachStringRange(ColumnId col, const Bitmap& filter, size_t begin,
                          size_t end, Fn&& fn) const;

 private:
  template <typename T>
  struct ColumnData {
    compression::EncodedSegment<T> main;  // encoded main segment
    std::vector<T> delta;                 // raw values, one per delta slot
  };

  using ColumnVariant =
      std::variant<ColumnData<int32_t>, ColumnData<int64_t>,
                   ColumnData<double>, ColumnData<std::string>>;

  ColumnTable(Schema schema, Options options);

  /// Reads slot `rid` of `col` without wrapping in a Value.
  template <typename T>
  T CellAt(const ColumnData<T>& data, RowId rid) const {
    if (rid < main_size_) return data.main.Get(rid);
    return data.delta[rid - main_size_];
  }

  Options options_;
  std::vector<ColumnVariant> columns_;
  size_t main_size_ = 0;
  Bitmap live_;
  size_t live_count_ = 0;
  uint64_t merge_count_ = 0;
  std::unordered_map<PrimaryKey, RowId, PrimaryKeyHash> pk_index_;
};

// Implementation of the templated scan fast path ----------------------------

namespace internal {
template <typename T>
inline double NumericCast(const T& v) {
  return static_cast<double>(v);
}
template <>
inline double NumericCast<std::string>(const std::string&) {
  HSDB_CHECK_MSG(false, "numeric scan over VARCHAR column");
  return 0.0;
}
}  // namespace internal

template <typename Fn>
void ColumnTable::ForEachNumericRange(ColumnId col, const Bitmap& filter,
                                      size_t begin, size_t end,
                                      Fn&& fn) const {
  std::visit(
      [&](const auto& data) {
        // Main part of the range: codec selective decode.
        const size_t main_end = std::min(end, main_size_);
        if (begin < main_end) {
          data.main.ForEachInRange(filter, begin, main_end,
                                   [&](size_t rid, const auto& v) {
                                     fn(rid, internal::NumericCast(v));
                                   });
        }
        // Delta part: raw vector lookups.
        const size_t delta_begin = std::clamp(main_size_, begin, end);
        filter.ForEachSetInRange(delta_begin, end, [&](size_t rid) {
          fn(rid, internal::NumericCast(data.delta[rid - main_size_]));
        });
      },
      columns_[col]);
}

template <typename Fn>
void ColumnTable::ForEachStringRange(ColumnId col, const Bitmap& filter,
                                     size_t begin, size_t end,
                                     Fn&& fn) const {
  const auto* data = std::get_if<ColumnData<std::string>>(&columns_[col]);
  HSDB_CHECK_MSG(data != nullptr, "ForEachStringRange on numeric column");
  const size_t main_end = std::min(end, main_size_);
  if (begin < main_end) {
    data->main.ForEachInRange(filter, begin, main_end,
                              [&](size_t rid, const std::string& v) {
                                fn(rid, std::string_view(v));
                              });
  }
  const size_t delta_begin = std::clamp(main_size_, begin, end);
  filter.ForEachSetInRange(delta_begin, end, [&](size_t rid) {
    fn(rid, std::string_view(data->delta[rid - main_size_]));
  });
}

}  // namespace hsdb

#endif  // HSDB_STORAGE_COLUMN_TABLE_H_
