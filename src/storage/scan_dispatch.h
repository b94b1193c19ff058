// Store dispatch for the typed scan fast paths shared by the executor and
// statistics collection: one call site, the right kernel per store.
#ifndef HSDB_STORAGE_SCAN_DISPATCH_H_
#define HSDB_STORAGE_SCAN_DISPATCH_H_

#include "storage/column_table.h"
#include "storage/row_table.h"

namespace hsdb {

/// Calls fn(RowId, double) for the numeric `col` value of every rid in
/// [begin, end) set in `filter`. Safe to call concurrently for disjoint
/// ranges of one shared filter bitmap (the parallel aggregation path
/// decodes one morsel per call).
template <typename Fn>
void ForEachNumericInRange(const PhysicalTable& table, ColumnId col,
                           const Bitmap& filter, size_t begin, size_t end,
                           Fn&& fn) {
  if (table.store() == StoreType::kRow) {
    static_cast<const RowTable&>(table).ForEachNumericRange(
        col, filter, begin, end, std::forward<Fn>(fn));
  } else {
    static_cast<const ColumnTable&>(table).ForEachNumericRange(
        col, filter, begin, end, std::forward<Fn>(fn));
  }
}

/// Calls fn(RowId, std::string_view) for the VARCHAR `col` value of every
/// rid in [begin, end) set in `filter`, without copying the string. The view
/// is valid until the next write to `table`.
template <typename Fn>
void ForEachStringInRange(const PhysicalTable& table, ColumnId col,
                          const Bitmap& filter, size_t begin, size_t end,
                          Fn&& fn) {
  if (table.store() == StoreType::kRow) {
    static_cast<const RowTable&>(table).ForEachStringRange(
        col, filter, begin, end, std::forward<Fn>(fn));
  } else {
    static_cast<const ColumnTable&>(table).ForEachStringRange(
        col, filter, begin, end, std::forward<Fn>(fn));
  }
}

}  // namespace hsdb

#endif  // HSDB_STORAGE_SCAN_DISPATCH_H_
