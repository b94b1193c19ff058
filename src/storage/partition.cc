#include "storage/partition.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace hsdb {

std::string TableLayout::ToString() const {
  std::ostringstream os;
  if (!IsPartitioned()) {
    os << "store=" << StoreTypeName(base_store);
    return os.str();
  }
  os << "base=" << StoreTypeName(base_store);
  if (horizontal.has_value()) {
    os << ", horizontal(col=" << horizontal->column
       << ", boundary=" << horizontal->boundary
       << ", hot=" << StoreTypeName(horizontal->hot_store) << ")";
  }
  if (vertical.has_value()) {
    os << ", vertical(rs_cols=[";
    for (size_t i = 0; i < vertical->row_store_columns.size(); ++i) {
      if (i > 0) os << ",";
      os << vertical->row_store_columns[i];
    }
    os << "])";
  }
  return os.str();
}

Status TableLayout::Validate(const Schema& schema) const {
  if (horizontal.has_value()) {
    if (horizontal->column >= schema.num_columns()) {
      return Status::InvalidArgument("horizontal column out of range");
    }
    if (!IsNumeric(schema.column(horizontal->column).type)) {
      return Status::InvalidArgument(
          "horizontal partition column must be numeric");
    }
  }
  if (vertical.has_value()) {
    if (vertical->row_store_columns.empty()) {
      return Status::InvalidArgument(
          "vertical split requires at least one row-store column");
    }
    std::set<ColumnId> seen;
    for (ColumnId col : vertical->row_store_columns) {
      if (col >= schema.num_columns()) {
        return Status::InvalidArgument("vertical column out of range");
      }
      if (schema.IsPrimaryKeyColumn(col)) {
        return Status::InvalidArgument(
            "primary-key columns are replicated implicitly; do not list them");
      }
      if (!seen.insert(col).second) {
        return Status::InvalidArgument("duplicate vertical column");
      }
    }
    // The other piece must keep at least one non-key column.
    size_t non_key = 0;
    for (ColumnId c = 0; c < schema.num_columns(); ++c) {
      if (!schema.IsPrimaryKeyColumn(c)) ++non_key;
    }
    if (seen.size() >= non_key) {
      return Status::InvalidArgument(
          "vertical split must leave a non-key column in the other piece");
    }
  }
  return Status::OK();
}

bool HasColumnStorePiece(const TableLayout& layout) {
  if (layout.base_store == StoreType::kColumn) return true;
  return layout.horizontal.has_value() &&
         layout.horizontal->hot_store == StoreType::kColumn;
}

LayoutPieces::LayoutPieces(const TableLayout& layout, const Schema& schema)
    : layout_(&layout), schema_(&schema) {
  if (layout.horizontal.has_value()) {
    Group& hot = groups_[num_groups_++];
    hot.hot = true;
    hot.pieces[hot.size++] = {layout.horizontal->hot_store, Columns::kAll};
  }
  Group& cold = groups_[num_groups_++];
  if (layout.vertical.has_value()) {
    cold.pieces[cold.size++] = {StoreType::kRow, Columns::kRowStoreSide};
    cold.pieces[cold.size++] = {layout.base_store, Columns::kBaseSide};
  } else {
    cold.pieces[cold.size++] = {layout.base_store, Columns::kAll};
  }
}

bool LayoutPieces::Holds(const Piece& piece, ColumnId col) const {
  if (col >= schema_->num_columns()) return false;
  if (piece.columns == Columns::kAll || schema_->IsPrimaryKeyColumn(col)) {
    return true;
  }
  const std::vector<ColumnId>& rs = layout_->vertical->row_store_columns;
  const bool in_rs = std::find(rs.begin(), rs.end(), col) != rs.end();
  return in_rs == (piece.columns == Columns::kRowStoreSide);
}

const LayoutPieces::Piece* LayoutPieces::Cover(
    const Group& group, const std::vector<ColumnId>& columns) const {
  for (const Piece& piece : group) {
    if (std::all_of(columns.begin(), columns.end(),
                    [&](ColumnId col) { return Holds(piece, col); })) {
      return &piece;
    }
  }
  return nullptr;
}

bool ColumnInColumnStorePiece(const LayoutPieces& pieces, ColumnId col) {
  const LayoutPieces::Group& cold = *(pieces.end() - 1);
  return HasColumnStorePiece(pieces.layout()) && pieces.Holds(cold.base(), col);
}

}  // namespace hsdb
