#include "common/row.h"

namespace hsdb {

Status ValidateAndCoerceRow(const Schema& schema, Row* row) {
  if (row->size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row->size()) +
        " does not match schema arity " +
        std::to_string(schema.num_columns()));
  }
  for (ColumnId id = 0; id < row->size(); ++id) {
    HSDB_RETURN_IF_ERROR(CoerceCell(schema.column(id), &(*row)[id]));
  }
  return Status::OK();
}

Status CoerceCell(const ColumnDef& column, Value* cell) {
  if (!cell->is_valid()) {
    return Status::InvalidArgument("invalid value for column " + column.name);
  }
  if (cell->type() == column.type) return Status::OK();
  Value coerced;
  if (!cell->CoerceTo(column.type, &coerced)) {
    return Status::InvalidArgument(
        "type mismatch for column " + column.name + ": got " +
        std::string(DataTypeName(cell->type())) + ", want " +
        std::string(DataTypeName(column.type)));
  }
  *cell = std::move(coerced);
  return Status::OK();
}

Row ProjectRow(const Row& row, const std::vector<ColumnId>& column_ids) {
  Row out;
  out.reserve(column_ids.size());
  for (ColumnId id : column_ids) {
    out.push_back(row.at(id));
  }
  return out;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace hsdb
