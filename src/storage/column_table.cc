#include "storage/column_table.h"

#include <algorithm>
#include <utility>

namespace hsdb {

namespace {

/// Extracts the physical representation of a schema-typed Value.
template <typename T>
T PhysicalCast(DataType type, const Value& v);

template <>
int32_t PhysicalCast<int32_t>(DataType type, const Value& v) {
  return type == DataType::kDate ? v.as_date().days : v.as_int32();
}
template <>
int64_t PhysicalCast<int64_t>(DataType, const Value& v) {
  return v.as_int64();
}
template <>
double PhysicalCast<double>(DataType, const Value& v) {
  return v.as_double();
}
template <>
std::string PhysicalCast<std::string>(DataType, const Value& v) {
  return v.as_string();
}

/// Wraps a physical value back into a schema-typed Value.
Value LogicalValue(DataType type, int32_t v) {
  return type == DataType::kDate ? Value(Date{v}) : Value(v);
}
Value LogicalValue(DataType, int64_t v) { return Value(v); }
Value LogicalValue(DataType, double v) { return Value(v); }
Value LogicalValue(DataType, const std::string& v) { return Value(v); }

template <typename T>
size_t PayloadBytes(const std::vector<T>& values) {
  return values.size() * sizeof(T);
}
size_t PayloadBytes(const std::vector<std::string>& values) {
  size_t total = values.size() * sizeof(std::string);
  for (const std::string& s : values) total += s.size();
  return total;
}

/// Resolves a ValueRange into the codec layer's typed bounds. Numeric
/// bounds resolve in double space (identical to the row store's comparison
/// semantics); strings compare lexicographically.
template <typename T>
compression::BoundsPred<T> ToBoundsPred(const ValueRange& range) {
  compression::BoundsPred<T> pred;
  pred.lo_inclusive = range.lo_inclusive;
  pred.hi_inclusive = range.hi_inclusive;
  if constexpr (std::is_same_v<T, std::string>) {
    if (range.lo.has_value()) {
      pred.has_lo = true;
      pred.lo = range.lo->as_string();
    }
    if (range.hi.has_value()) {
      pred.has_hi = true;
      pred.hi = range.hi->as_string();
    }
  } else {
    if (range.lo.has_value()) {
      pred.has_lo = true;
      pred.lo = range.lo->AsNumeric();
    }
    if (range.hi.has_value()) {
      pred.has_hi = true;
      pred.hi = range.hi->AsNumeric();
    }
  }
  return pred;
}

/// Shared delta pass of a multi-predicate slice: reads each delta value of
/// [begin, end) once and decides every predicate whose bit is still set.
template <typename T>
void MultiFilterDelta(
    const std::vector<compression::PredicateTarget<T>>& targets,
    const std::vector<T>& delta, size_t main_size, size_t begin, size_t end) {
  for (size_t rid = begin; rid < end; ++rid) {
    const T& v = delta[rid - main_size];
    for (const compression::PredicateTarget<T>& t : targets) {
      if (t.inout->Test(rid) && !t.pred.Keep(v)) t.inout->Clear(rid);
    }
  }
}

}  // namespace

std::unique_ptr<ColumnTable> ColumnTable::Create(Schema schema,
                                                 Options options) {
  return std::unique_ptr<ColumnTable>(
      new ColumnTable(std::move(schema), options));
}

ColumnTable::ColumnTable(Schema schema, Options options)
    : PhysicalTable(std::move(schema)), options_(options) {
  columns_.reserve(schema_.num_columns());
  for (const ColumnDef& col : schema_.columns()) {
    switch (col.type) {
      case DataType::kInt32:
      case DataType::kDate:
        columns_.emplace_back(ColumnData<int32_t>());
        break;
      case DataType::kInt64:
        columns_.emplace_back(ColumnData<int64_t>());
        break;
      case DataType::kDouble:
        columns_.emplace_back(ColumnData<double>());
        break;
      case DataType::kVarchar:
        columns_.emplace_back(ColumnData<std::string>());
        break;
    }
  }
}

RowId ColumnTable::Insert(Row row) {
  HSDB_DCHECK(IsTypedRow(row));
  const RowId rid = live_.size();
  const bool indexed =
      pk_index_.emplace(PrimaryKey::FromRow(schema_, row), rid).second;
  HSDB_CHECK_MSG(indexed, "duplicate primary key reached the column store");
  for (ColumnId col = 0; col < row.size(); ++col) {
    std::visit(
        [&](auto& data) {
          using T = typename std::decay_t<decltype(data.delta)>::value_type;
          data.delta.push_back(
              PhysicalCast<T>(schema_.column(col).type, row[col]));
        },
        columns_[col]);
  }
  live_.PushBack(true);
  ++live_count_;
  BumpDataVersion();
  return rid;
}

void ColumnTable::UpdateRow(RowId rid, const std::vector<ColumnId>& columns,
                            const Row& values) {
  HSDB_CHECK(IsLive(rid));
  HSDB_CHECK_MSG(!UpdatesKey(columns),
                 "primary-key column update reached the column store");
  HSDB_DCHECK(IsTypedUpdate(columns, values));
  // Tuple reconstruction: read the full row, tombstone it and re-insert the
  // modified tuple into the delta. This is the column store's expensive
  // update path the cost model charges f_affectedColumns for.
  Row row = GetRow(rid);
  for (size_t i = 0; i < columns.size(); ++i) row[columns[i]] = values[i];
  DeleteRow(rid);
  Insert(std::move(row));
}

void ColumnTable::DeleteRow(RowId rid) {
  HSDB_CHECK(IsLive(rid));
  pk_index_.erase(KeyAt(rid));
  live_.Clear(rid);
  --live_count_;
  BumpDataVersion();
}

std::optional<RowId> ColumnTable::FindByPk(const PrimaryKey& pk) const {
  auto it = pk_index_.find(pk);
  if (it == pk_index_.end()) return std::nullopt;
  return it->second;
}

Value ColumnTable::GetValue(RowId rid, ColumnId col) const {
  HSDB_CHECK(rid < live_.size());
  DataType type = schema_.column(col).type;
  return std::visit(
      [&](const auto& data) { return LogicalValue(type, CellAt(data, rid)); },
      columns_[col]);
}

Row ColumnTable::GetRow(RowId rid) const {
  Row row;
  row.reserve(schema_.num_columns());
  for (ColumnId col = 0; col < schema_.num_columns(); ++col) {
    row.push_back(GetValue(rid, col));
  }
  return row;
}

void ColumnTable::FilterRangeSlice(ColumnId col, const ValueRange& range,
                                   size_t begin, size_t end,
                                   Bitmap* inout) const {
  HSDB_CHECK(inout->size() == live_.size());
  HSDB_DCHECK(begin % 64 == 0 && begin <= end && end <= live_.size());
  // The slice may straddle the main/delta boundary (main_size_ is not
  // morsel-aligned): the encoded-segment part covers [begin, main_end), the
  // raw delta part [delta_begin, end) — empty for a slice that ends in main.
  const size_t main_end = std::min(end, main_size_);
  const size_t delta_begin = std::clamp(main_size_, begin, end);
  const DataType type = schema_.column(col).type;
  if (type == DataType::kVarchar) {
    const auto& data = std::get<ColumnData<std::string>>(columns_[col]);
    const auto pred = ToBoundsPred<std::string>(range);
    // Main: predicate evaluation on the encoded segment (dictionary id
    // ranges, run skipping). Delta: raw per-row comparison.
    if (begin < main_end) data.main.FilterRangeSlice(pred, inout, begin, main_end);
    inout->ForEachSetInRange(delta_begin, end, [&](size_t rid) {
      if (!pred.Keep(data.delta[rid - main_size_])) inout->Clear(rid);
    });
    return;
  }
  // Numeric columns: bounds resolve in double space (identical to the row
  // store's comparison semantics), then evaluate on the encoded domain.
  std::visit(
      [&](const auto& data) {
        using VecT = std::decay_t<decltype(data.delta)>;
        if constexpr (std::is_same_v<VecT, std::vector<std::string>>) {
          HSDB_CHECK_MSG(false, "string data in numeric column");
        } else {
          using T = typename VecT::value_type;
          const auto pred = ToBoundsPred<T>(range);
          if (begin < main_end) {
            data.main.FilterRangeSlice(pred, inout, begin, main_end);
          }
          inout->ForEachSetInRange(delta_begin, end, [&](size_t rid) {
            if (!pred.Keep(data.delta[rid - main_size_])) inout->Clear(rid);
          });
        }
      },
      columns_[col]);
}

void ColumnTable::MultiFilterRangeSlice(ColumnId col,
                                        const RangeScanTarget* targets,
                                        size_t k, size_t begin,
                                        size_t end) const {
  if (k == 0) return;
  if (k == 1) {
    // The single-predicate path skips the target materialization and uses
    // the fused kernels.
    FilterRangeSlice(col, *targets[0].range, begin, end, targets[0].inout);
    return;
  }
  HSDB_DCHECK(begin % 64 == 0 && begin <= end && end <= live_.size());
  const size_t main_end = std::min(end, main_size_);
  const size_t delta_begin = std::clamp(main_size_, begin, end);
  const DataType type = schema_.column(col).type;
  if (type == DataType::kVarchar) {
    const auto& data = std::get<ColumnData<std::string>>(columns_[col]);
    std::vector<compression::PredicateTarget<std::string>> preds(k);
    for (size_t i = 0; i < k; ++i) {
      HSDB_CHECK(targets[i].inout->size() == live_.size());
      preds[i].pred = ToBoundsPred<std::string>(*targets[i].range);
      preds[i].inout = targets[i].inout;
    }
    if (begin < main_end) {
      data.main.MultiFilterRangeSlice(preds.data(), k, begin, main_end);
    }
    MultiFilterDelta(preds, data.delta, main_size_, delta_begin, end);
    return;
  }
  std::visit(
      [&](const auto& data) {
        using VecT = std::decay_t<decltype(data.delta)>;
        if constexpr (std::is_same_v<VecT, std::vector<std::string>>) {
          HSDB_CHECK_MSG(false, "string data in numeric column");
        } else {
          using T = typename VecT::value_type;
          std::vector<compression::PredicateTarget<T>> preds(k);
          for (size_t i = 0; i < k; ++i) {
            HSDB_CHECK(targets[i].inout->size() == live_.size());
            preds[i].pred = ToBoundsPred<T>(*targets[i].range);
            preds[i].inout = targets[i].inout;
          }
          if (begin < main_end) {
            data.main.MultiFilterRangeSlice(preds.data(), k, begin, main_end);
          }
          MultiFilterDelta(preds, data.delta, main_size_, delta_begin, end);
        }
      },
      columns_[col]);
}

double ColumnTable::CompressionRate(ColumnId col) const {
  if (live_count_ == 0) return 1.0;
  return std::visit(
      [&](const auto& data) {
        size_t compressed = data.main.payload_bytes() +
                            PayloadBytes(data.delta);
        // Uncompressed estimate: every live row stores a full value (average
        // plain footprint of the values actually present).
        using T = typename std::decay_t<decltype(data.delta)>::value_type;
        double per_value;
        if (data.main.size() > 0) {
          per_value = static_cast<double>(data.main.plain_bytes()) /
                      static_cast<double>(data.main.size());
        } else if (!data.delta.empty()) {
          per_value = static_cast<double>(PayloadBytes(data.delta)) /
                      static_cast<double>(data.delta.size());
        } else {
          per_value = sizeof(T);
        }
        double uncompressed = static_cast<double>(live_count_) * per_value;
        if (uncompressed <= 0.0) return 1.0;
        return static_cast<double>(compressed) / uncompressed;
      },
      columns_[col]);
}

double ColumnTable::TableCompressionRate() const {
  if (schema_.num_columns() == 0) return 1.0;
  double total = 0.0;
  for (ColumnId col = 0; col < schema_.num_columns(); ++col) {
    total += CompressionRate(col);
  }
  return total / schema_.num_columns();
}

size_t ColumnTable::memory_bytes() const {
  size_t bytes = live_.memory_bytes();
  for (const ColumnVariant& column : columns_) {
    bytes += std::visit(
        [&](const auto& data) {
          return data.main.memory_bytes() + PayloadBytes(data.delta);
        },
        column);
  }
  bytes += pk_index_.size() * (sizeof(PrimaryKey) + sizeof(RowId) + 16);
  return bytes;
}

bool ColumnTable::NeedsMerge() const {
  size_t threshold = std::max(
      options_.min_merge_rows,
      static_cast<size_t>(options_.merge_fraction *
                          static_cast<double>(main_size_)));
  return delta_rows() > threshold;
}

void ColumnTable::AfterStatement() {
  if (options_.auto_merge && NeedsMerge()) MergeDelta();
}

void ColumnTable::MergeDelta() {
  const size_t new_n = live_count_;
  const bool compacting = delta_rows() > 0 || new_n != live_.size();
  if (!compacting) return;
  for (ColumnId col = 0; col < columns_.size(); ++col) {
    // A pinned per-column codec (an applied advisor recommendation)
    // overrides the adaptive picker for this column.
    compression::EncodingPicker::Options picker_options = options_.encoding;
    if (col < options_.column_encodings.size() &&
        options_.column_encodings[col].has_value()) {
      picker_options.force = *options_.column_encodings[col];
    }
    const compression::EncodingPicker picker(picker_options);
    std::visit(
        [&](auto& data) {
          using T = typename std::decay_t<decltype(data.delta)>::value_type;
          // Gather surviving values in slot order (main via the codec's
          // selective decode, then the delta, moved).
          std::vector<T> values;
          values.reserve(new_n);
          data.main.ForEachInRange(
              live_, 0, main_size_,
              [&](size_t, const T& v) { values.push_back(v); });
          live_.ForEachSetInRange(main_size_, live_.size(), [&](size_t rid) {
            values.push_back(std::move(data.delta[rid - main_size_]));
          });
          // Re-encode the main segment; the picker re-selects the codec
          // from the merged value distribution.
          data.main = compression::EncodedSegment<T>::Encode(
              std::move(values), picker);
          data.delta.clear();
          data.delta.shrink_to_fit();
        },
        columns_[col]);
  }
  // Compaction shifts every live row down past the tombstones before it:
  // its new id is its rank among the live slots. Without tombstones no id
  // moves and the PK index stays as it is.
  if (new_n != live_.size() && !pk_index_.empty()) {
    std::vector<RowId> new_rid(live_.size());
    RowId next = 0;
    live_.ForEachSet([&](size_t rid) { new_rid[rid] = next++; });
    for (auto& entry : pk_index_) entry.second = new_rid[entry.second];
  }
  main_size_ = new_n;
  live_.Resize(new_n);
  for (size_t i = 0; i < new_n; ++i) live_.Set(i);
  live_count_ = new_n;
  ++merge_count_;
  // A merge re-encodes segments (codecs can change), so statistics derived
  // from the physical encoding are stale even though the values are not.
  BumpDataVersion();
}

size_t ColumnTable::DictionarySize(ColumnId col) const {
  return std::visit(
      [](const auto& data) { return data.main.distinct_count(); },
      columns_[col]);
}

Encoding ColumnTable::ColumnEncoding(ColumnId col) const {
  return std::visit([](const auto& data) { return data.main.encoding(); },
                    columns_[col]);
}

}  // namespace hsdb
