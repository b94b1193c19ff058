#include "storage/row_table.h"

#include <utility>

namespace hsdb {

std::unique_ptr<RowTable> RowTable::Create(Schema schema, Options options) {
  return std::unique_ptr<RowTable>(
      new RowTable(std::move(schema), options));
}

RowTable::RowTable(Schema schema, Options options)
    : PhysicalTable(std::move(schema)), arena_(options.arena_chunk_bytes) {}

RowId RowTable::Insert(Row row) {
  HSDB_DCHECK(IsTypedRow(row));
  const RowId rid = slots_.size();
  const bool indexed =
      pk_index_.emplace(PrimaryKey::FromRow(schema_, row), rid).second;
  HSDB_CHECK_MSG(indexed, "duplicate primary key reached the row store");
  std::byte* slot = arena_.Allocate(schema_.row_stride());
  for (ColumnId col = 0; col < row.size(); ++col) {
    WriteCell(slot, col, row[col]);
  }
  slots_.push_back(slot);
  live_.PushBack(true);
  ++live_count_;
  for (auto& [col, index] : indexes_) {
    (void)index;
    IndexInsert(col, rid);
  }
  BumpDataVersion();
  return rid;
}

void RowTable::UpdateRow(RowId rid, const std::vector<ColumnId>& columns,
                         const Row& values) {
  HSDB_CHECK(IsLive(rid));
  HSDB_CHECK_MSG(!UpdatesKey(columns),
                 "primary-key column update reached the row store");
  HSDB_DCHECK(IsTypedUpdate(columns, values));
  std::byte* slot = slots_[rid];
  for (size_t i = 0; i < columns.size(); ++i) {
    ColumnId col = columns[i];
    if (indexes_.find(col) != indexes_.end()) IndexErase(col, rid);
    WriteCell(slot, col, values[i]);
    if (indexes_.find(col) != indexes_.end()) IndexInsert(col, rid);
  }
  BumpDataVersion();
}

void RowTable::DeleteRow(RowId rid) {
  HSDB_CHECK(IsLive(rid));
  for (auto& [col, index] : indexes_) {
    (void)index;
    IndexErase(col, rid);
  }
  pk_index_.erase(KeyAt(rid));
  live_.Clear(rid);
  --live_count_;
  BumpDataVersion();
}

std::optional<RowId> RowTable::FindByPk(const PrimaryKey& pk) const {
  auto it = pk_index_.find(pk);
  if (it == pk_index_.end()) return std::nullopt;
  return it->second;
}

Value RowTable::GetValue(RowId rid, ColumnId col) const {
  HSDB_CHECK(rid < slots_.size());
  return ReadCell(slots_[rid], col);
}

Row RowTable::GetRow(RowId rid) const {
  HSDB_CHECK(rid < slots_.size());
  Row row;
  row.reserve(schema_.num_columns());
  const std::byte* slot = slots_[rid];
  for (ColumnId col = 0; col < schema_.num_columns(); ++col) {
    row.push_back(ReadCell(slot, col));
  }
  return row;
}

void RowTable::FilterRangeSlice(ColumnId col, const ValueRange& range,
                                size_t begin, size_t end,
                                Bitmap* inout) const {
  HSDB_CHECK(inout->size() == slots_.size());
  HSDB_DCHECK(begin <= end && end <= slots_.size());
  const DataType type = schema_.column(col).type;
  const uint32_t offset = schema_.fixed_offset(col);
  if (type == DataType::kVarchar) {
    // String comparison through the pool; point predicates use interning.
    inout->ForEachSetInRange(begin, end, [&](size_t rid) {
      auto id = LoadAs<uint32_t>(slots_[rid] + offset);
      Value v(std::string(strings_.Get(id)));
      if (!range.Contains(v)) inout->Clear(rid);
    });
    return;
  }
  // Numeric comparison on doubles (all numeric types promote exactly for the
  // value domains the engine generates).
  double lo = range.lo.has_value() ? range.lo->AsNumeric() : 0.0;
  double hi = range.hi.has_value() ? range.hi->AsNumeric() : 0.0;
  const bool has_lo = range.lo.has_value();
  const bool has_hi = range.hi.has_value();
  const bool lo_incl = range.lo_inclusive;
  const bool hi_incl = range.hi_inclusive;
  auto keep_row = [&](RowId rid, double v) {
    bool keep = true;
    if (has_lo) keep = lo_incl ? (v >= lo) : (v > lo);
    if (keep && has_hi) keep = hi_incl ? (v <= hi) : (v < hi);
    if (!keep) inout->Clear(rid);
  };
  switch (type) {
    case DataType::kInt32:
    case DataType::kDate:
      inout->ForEachSetInRange(begin, end, [&](size_t rid) {
        keep_row(rid, static_cast<double>(LoadAs<int32_t>(slots_[rid] + offset)));
      });
      break;
    case DataType::kInt64:
      inout->ForEachSetInRange(begin, end, [&](size_t rid) {
        keep_row(rid, static_cast<double>(LoadAs<int64_t>(slots_[rid] + offset)));
      });
      break;
    case DataType::kDouble:
      inout->ForEachSetInRange(begin, end, [&](size_t rid) {
        keep_row(rid, LoadAs<double>(slots_[rid] + offset));
      });
      break;
    case DataType::kVarchar:
      break;  // handled above
  }
}

size_t RowTable::memory_bytes() const {
  size_t bytes = arena_.reserved_bytes() + slots_.capacity() * sizeof(void*) +
                 live_.memory_bytes() + strings_.memory_bytes();
  bytes += pk_index_.size() * (sizeof(PrimaryKey) + sizeof(RowId) + 16);
  for (const auto& [col, index] : indexes_) {
    (void)col;
    bytes += index.memory_bytes();
  }
  return bytes;
}

Status RowTable::CreateSortedIndex(ColumnId col) {
  if (col >= schema_.num_columns()) {
    return Status::InvalidArgument("column id out of range");
  }
  if (schema_.column(col).type == DataType::kVarchar) {
    return Status::NotSupported("sorted index on VARCHAR column");
  }
  if (HasSortedIndex(col)) return Status::OK();
  auto [it, ok] = indexes_.emplace(col, BPlusTree<IndexKey>());
  (void)ok;
  live_.ForEachSet([&](size_t rid) {
    Value v = GetValue(rid, col);
    it->second.Insert(IndexKey{EncodeValueOrdered(v).value(), rid});
  });
  return Status::OK();
}

Result<Bitmap> RowTable::IndexFilter(ColumnId col,
                                     const ValueRange& range) const {
  auto it = indexes_.find(col);
  if (it == indexes_.end()) {
    return Status::FailedPrecondition("no sorted index on column");
  }
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};
  if (range.lo.has_value()) {
    HSDB_ASSIGN_OR_RETURN(lo, EncodeValueOrdered(*range.lo));
    if (!range.lo_inclusive) ++lo;  // numeric encodings are dense in order
  }
  if (range.hi.has_value()) {
    HSDB_ASSIGN_OR_RETURN(hi, EncodeValueOrdered(*range.hi));
    if (!range.hi_inclusive) --hi;
  }
  Bitmap out(slots_.size());
  if (range.lo.has_value() && range.hi.has_value() && lo > hi) return out;
  it->second.ScanRange(IndexKey{lo, 0}, IndexKey{hi, ~uint64_t{0}},
                       [&](const IndexKey& key) { out.Set(key.row); });
  return out;
}

void RowTable::WriteCell(std::byte* row, ColumnId col, const Value& value) {
  std::byte* p = row + schema_.fixed_offset(col);
  switch (schema_.column(col).type) {
    case DataType::kInt32:
      StoreAs<int32_t>(p, value.as_int32());
      break;
    case DataType::kInt64:
      StoreAs<int64_t>(p, value.as_int64());
      break;
    case DataType::kDouble:
      StoreAs<double>(p, value.as_double());
      break;
    case DataType::kDate:
      StoreAs<int32_t>(p, value.as_date().days);
      break;
    case DataType::kVarchar:
      StoreAs<uint32_t>(p, strings_.Intern(value.as_string()));
      break;
  }
}

Value RowTable::ReadCell(const std::byte* row, ColumnId col) const {
  const std::byte* p = row + schema_.fixed_offset(col);
  switch (schema_.column(col).type) {
    case DataType::kInt32:
      return Value(LoadAs<int32_t>(p));
    case DataType::kInt64:
      return Value(LoadAs<int64_t>(p));
    case DataType::kDouble:
      return Value(LoadAs<double>(p));
    case DataType::kDate:
      return Value(Date{LoadAs<int32_t>(p)});
    case DataType::kVarchar:
      return Value(std::string(strings_.Get(LoadAs<uint32_t>(p))));
  }
  HSDB_CHECK_MSG(false, "unreachable");
  return Value();
}

void RowTable::IndexInsert(ColumnId col, RowId rid) {
  Value v = GetValue(rid, col);
  indexes_.at(col).Insert(IndexKey{EncodeValueOrdered(v).value(), rid});
}

void RowTable::IndexErase(ColumnId col, RowId rid) {
  Value v = GetValue(rid, col);
  indexes_.at(col).Erase(IndexKey{EncodeValueOrdered(v).value(), rid});
}

}  // namespace hsdb
