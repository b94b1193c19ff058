// Table statistics: the "data characteristics" input of the storage advisor
// (paper §3/§4). Basic statistics cover row counts and per-column
// distinct/min/max/compression; they are computed by Analyze() and kept in
// the system catalog.
#ifndef HSDB_CATALOG_STATISTICS_H_
#define HSDB_CATALOG_STATISTICS_H_

#include <optional>
#include <string>
#include <vector>

#include "storage/compression/encoding.h"
#include "storage/compression/encoding_picker.h"
#include "storage/logical_table.h"

namespace hsdb {

/// Per-column statistics.
struct ColumnStatistics {
  DataType type = DataType::kInt64;
  uint64_t distinct_count = 0;
  /// Numeric min/max (unset for VARCHAR columns).
  std::optional<double> min;
  std::optional<double> max;
  /// Compressed/plain size ratio when stored column-oriented; 1.0 row-based.
  double compression_rate = 1.0;
  /// Average maximal-run length in physical row order — the run-structure
  /// input of the encoding picker. 1.0 when unknown (sampled VARCHAR scans).
  double avg_run_length = 1.0;
  /// Average in-memory bytes of one plain value (string header + payload
  /// for VARCHAR) — must match the store-side encoding profile so the
  /// advisor predicts the codec the store will actually pick.
  double avg_plain_bytes = 8.0;
  /// Codec the compression subsystem has chosen (column-store resident) or
  /// would choose (hypothetical move costed by the advisor) for the main
  /// segment of this column.
  Encoding encoding = Encoding::kDictionary;
};

/// Per-table statistics.
struct TableStatistics {
  uint64_t row_count = 0;
  std::vector<ColumnStatistics> columns;
  /// Size-weighted mean column compression rate (the paper's per-table
  /// f_compression input).
  double table_compression_rate = 1.0;
  size_t memory_bytes = 0;

  const ColumnStatistics& column(ColumnId id) const { return columns.at(id); }

  /// Fraction of rows selected by `range` on column `col`, estimated from
  /// min/max under a uniformity assumption (classic selectivity estimate).
  double EstimateSelectivity(ColumnId col, const ValueRange& range) const;

  std::string ToString() const;
};

/// Scans a logical table and computes fresh statistics. Each column is read
/// once, from the fragment of each row group that holds it, through the
/// stores' ranged decode: numeric cells as doubles, VARCHAR cells as
/// std::string_view into the dictionary, delta or string pool, so no cell
/// is copied. Distinct values are counted in an open-addressing set of
/// 64-bit keys: a numeric value's double bits with -0.0 folded onto 0.0
/// (the two compare equal, and the column store's dictionary keeps one of
/// them), a string's std::hash. Counts are exact for tables below
/// `exact_distinct_limit` rows and estimated from a sample above it.
TableStatistics Analyze(const LogicalTable& table,
                        size_t exact_distinct_limit = 2'000'000);

/// Encoding-picker profile of a column as seen through its statistics: the
/// advisor-side approximation of the exact per-segment profile the store
/// computes at encode time. This is the bridge the encoding search uses to
/// enumerate feasible codecs and estimate per-codec footprints
/// (compression::CandidateEncodings / compression::EstimateEncodedBytes)
/// without touching the physical data.
compression::EncodingProfile StatisticsEncodingProfile(
    const ColumnStatistics& cs, uint64_t row_count);

}  // namespace hsdb

#endif  // HSDB_CATALOG_STATISTICS_H_
