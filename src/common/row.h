// Row: a materialized tuple at the engine API boundary, plus helpers.
#ifndef HSDB_COMMON_ROW_H_
#define HSDB_COMMON_ROW_H_

#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace hsdb {

/// A materialized tuple: one Value per schema column, in schema order.
using Row = std::vector<Value>;

/// Validates that `row` matches `schema` (arity and per-column types, with
/// lossless numeric coercion applied in place).
Status ValidateAndCoerceRow(const Schema& schema, Row* row);

/// Coerces one cell in place to `column`'s type (lossless numeric coercion);
/// InvalidArgument for an invalid value or one that does not convert.
Status CoerceCell(const ColumnDef& column, Value* cell);

/// Returns the subset of `row` at `column_ids`, in the given order.
Row ProjectRow(const Row& row, const std::vector<ColumnId>& column_ids);

/// Debug representation: "(v0, v1, ...)".
std::string RowToString(const Row& row);

}  // namespace hsdb

#endif  // HSDB_COMMON_ROW_H_
