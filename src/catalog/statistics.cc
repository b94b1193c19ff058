#include "catalog/statistics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/bitpack.h"
#include "common/hash.h"
#include "storage/compression/encoding_picker.h"
#include "storage/scan_dispatch.h"

namespace hsdb {

double TableStatistics::EstimateSelectivity(ColumnId col,
                                            const ValueRange& range) const {
  const ColumnStatistics& cs = columns.at(col);
  if (row_count == 0) return 0.0;
  if (range.IsPoint()) {
    return cs.distinct_count == 0 ? 0.0 : 1.0 / cs.distinct_count;
  }
  if (!cs.min.has_value() || !cs.max.has_value()) {
    // No numeric bounds (VARCHAR range): fall back to a fixed guess.
    return 0.3;
  }
  double mn = *cs.min;
  double mx = *cs.max;
  if (mx <= mn) return 1.0;
  double lo = range.lo.has_value() ? range.lo->AsNumeric() : mn;
  double hi = range.hi.has_value() ? range.hi->AsNumeric() : mx;
  double overlap = std::min(hi, mx) - std::max(lo, mn);
  if (overlap < 0) return 0.0;
  return std::clamp(overlap / (mx - mn), 0.0, 1.0);
}

std::string TableStatistics::ToString() const {
  std::ostringstream os;
  os << "rows=" << row_count
     << ", compression=" << table_compression_rate
     << ", bytes=" << memory_bytes << ", columns=[";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) os << ", ";
    os << i << ":{distinct=" << columns[i].distinct_count
       << ", compr=" << columns[i].compression_rate
       << ", enc=" << EncodingName(columns[i].encoding) << "}";
  }
  os << "]";
  return os.str();
}

compression::EncodingProfile StatisticsEncodingProfile(
    const ColumnStatistics& cs, uint64_t rows) {
  compression::EncodingProfile p;
  p.row_count = rows;
  p.distinct_count = cs.distinct_count;
  double runs = cs.avg_run_length <= 1.0
                    ? static_cast<double>(rows)
                    : static_cast<double>(rows) / cs.avg_run_length;
  p.run_count = static_cast<uint64_t>(std::max(1.0, runs));
  p.is_integer = cs.type == DataType::kInt32 ||
                 cs.type == DataType::kInt64 || cs.type == DataType::kDate;
  // The double-typed stats bounds only translate into an exact integer
  // domain while they round-trip; near ±2^63 the cast would be UB, so FOR
  // is simply not offered there (the picker treats it as inapplicable).
  constexpr double kSafeInt64 = 9.0e18;
  if (p.is_integer && rows > 0 && cs.min.has_value() &&
      cs.max.has_value() && *cs.min >= -kSafeInt64 &&
      *cs.max <= kSafeInt64) {
    p.min_value = static_cast<int64_t>(*cs.min);
    p.max_value = static_cast<int64_t>(*cs.max);
  } else if (rows > 0) {
    p.is_integer = false;
  }
  p.plain_value_bytes = cs.avg_plain_bytes;
  return p;
}

namespace {

/// Analytic compression estimate for a column *if* it were stored
/// column-oriented under `encoding`. Used for columns currently resident in
/// the row store, so the advisor can cost the hypothetical move.
double EstimateCsCompression(const compression::EncodingProfile& profile,
                             Encoding encoding) {
  if (profile.row_count == 0 || profile.distinct_count == 0) return 1.0;
  double plain_bytes =
      static_cast<double>(profile.row_count) * profile.plain_value_bytes;
  if (plain_bytes <= 0.0) return 1.0;
  return compression::EstimateEncodedBytes(encoding, profile) / plain_bytes;
}

/// Set of distinct 64-bit keys: open addressing with linear probing over a
/// power-of-two table that doubles once half full (the probing scheme of
/// compression::ProfileValues). A slot holding 0 is empty, so the key 0 —
/// the bits of an integer or double zero — is tracked by a flag.
class DistinctKeys {
 public:
  void Insert(uint64_t key) {
    if (key == 0) {
      has_zero_ = true;
      return;
    }
    size_t s = Home(key);
    while (slots_[s] != 0) {
      if (slots_[s] == key) return;
      s = (s + 1) & mask_;
    }
    slots_[s] = key;
    if (2 * ++count_ > slots_.size()) Grow();
  }

  uint64_t size() const { return count_ + (has_zero_ ? 1 : 0); }

 private:
  /// Multiplicative hashing: the top bits of the product depend on every
  /// key bit, and one multiply is cheaper than a full mixer.
  size_t Home(uint64_t key) const {
    return (key * 0x9e3779b97f4a7c15ull) >> shift_;
  }

  void Grow() {
    std::vector<uint64_t> grown(2 * slots_.size());
    mask_ = grown.size() - 1;
    --shift_;
    for (uint64_t key : slots_) {
      if (key == 0) continue;
      size_t t = Home(key);
      while (grown[t] != 0) t = (t + 1) & mask_;
      grown[t] = key;
    }
    slots_ = std::move(grown);
  }

  std::vector<uint64_t> slots_ = std::vector<uint64_t>(64);
  size_t mask_ = 63;
  int shift_ = 64 - 6;  // 64 - log2(slots_.size())
  size_t count_ = 0;
  bool has_zero_ = false;
};

}  // namespace

TableStatistics Analyze(const LogicalTable& table,
                        size_t exact_distinct_limit) {
  const Schema& schema = table.schema();
  TableStatistics stats;
  stats.row_count = table.row_count();
  stats.memory_bytes = table.memory_bytes();
  stats.columns.resize(schema.num_columns());

  const size_t stride =
      stats.row_count <= exact_distinct_limit
          ? 1
          : (stats.row_count + exact_distinct_limit - 1) /
                exact_distinct_limit;

  for (ColumnId col = 0; col < schema.num_columns(); ++col) {
    ColumnStatistics& cs = stats.columns[col];
    cs.type = schema.column(col).type;
    const bool numeric = IsNumeric(cs.type);
    DistinctKeys distinct;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    size_t seen = 0;
    size_t sampled = 0;
    size_t run_count = 0;
    size_t run_rows = 0;
    size_t string_payload = 0;
    double measured_rate = 0.0;
    size_t measured_pieces = 0;
    std::optional<Encoding> measured_encoding;

    for (const RowGroup& group : table.groups()) {
      for (const Fragment& frag : group.fragments) {
        if (!frag.Contains(col)) continue;
        ColumnId fc = frag.FragColumn(col);
        if (frag.table->store() == StoreType::kColumn) {
          measured_rate += frag.table->CompressionRate(fc);
          ++measured_pieces;
          const auto& ct = static_cast<const ColumnTable&>(*frag.table);
          if (!measured_encoding.has_value() && ct.main_rows() > 0) {
            measured_encoding = ct.ColumnEncoding(fc);
          }
        }
        // Pseudo-random sampling (hash of the running position) instead of a
        // fixed stride: systematic sampling aliases with periodic data.
        auto take_sample = [&](size_t position) {
          return stride == 1 || Mix64(position) % stride == 0;
        };
        const PhysicalTable& piece = *frag.table;
        if (numeric) {
          bool in_run = false;
          double prev = 0.0;
          ForEachNumericInRange(piece, fc, piece.live_bitmap(), 0,
                                piece.slot_count(), [&](RowId, double v) {
            mn = std::min(mn, v);
            mx = std::max(mx, v);
            // Exact run structure in physical order (the encoding picker's
            // RLE input); fragments restart the run.
            if (!in_run || v != prev) {
              ++run_count;
              in_run = true;
              prev = v;
            }
            ++run_rows;
            if (take_sample(seen++)) {
              ++sampled;
              // -0.0 == 0.0, as in the column store's dictionary.
              distinct.Insert(std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v));
            }
          });
        } else {
          bool in_run = false;
          uint64_t prev_hash = 0;
          ForEachStringInRange(piece, fc, piece.live_bitmap(), 0,
                               piece.slot_count(),
                               [&](RowId, std::string_view v) {
            if (!take_sample(seen++)) return;
            ++sampled;
            string_payload += v.size();
            uint64_t h = std::hash<std::string_view>{}(v);
            distinct.Insert(h);
            // Exact runs only in full-scan mode; a strided sample breaks
            // runs apart and would undercount their length.
            if (stride == 1) {
              if (!in_run || h != prev_hash) {
                ++run_count;
                in_run = true;
                prev_hash = h;
              }
              ++run_rows;
            }
          });
        }
        break;  // one fragment per group holds the column's authoritative copy
      }
    }

    // Scale sampled distinct counts back up, capped by the row count.
    uint64_t d = distinct.size();
    if (stride > 1 && sampled > 0) {
      double scale = static_cast<double>(stats.row_count) / sampled;
      // Low-cardinality columns saturate the sample; only scale when the
      // sample looks close to all-distinct.
      if (d > sampled / 2) {
        d = static_cast<uint64_t>(static_cast<double>(d) * scale);
      }
    }
    cs.distinct_count = std::min<uint64_t>(d, stats.row_count);
    if (numeric && mn <= mx) {
      cs.min = mn;
      cs.max = mx;
    }
    if (run_count > 0) {
      cs.avg_run_length =
          static_cast<double>(run_rows) / static_cast<double>(run_count);
    }
    // Plain footprint of one value, matching compression::ProfileValues:
    // the physical width for numerics, string header + mean payload for
    // VARCHAR (from the sample).
    if (numeric) {
      cs.avg_plain_bytes = FixedWidth(cs.type);
    } else {
      cs.avg_plain_bytes =
          sizeof(std::string) +
          (sampled > 0 ? static_cast<double>(string_payload) /
                             static_cast<double>(sampled)
                       : 0.0);
    }
    // Encoding: what the column store picked where it holds the column, or
    // what the picker would choose for the hypothetical move.
    compression::EncodingProfile profile =
        StatisticsEncodingProfile(cs, stats.row_count);
    cs.encoding = measured_encoding.has_value()
                      ? *measured_encoding
                      : compression::EncodingPicker().Pick(profile);
    if (measured_pieces > 0) {
      cs.compression_rate = measured_rate / measured_pieces;
    } else {
      cs.compression_rate = EstimateCsCompression(profile, cs.encoding);
    }
  }

  if (!stats.columns.empty()) {
    double total = 0.0;
    for (const ColumnStatistics& cs : stats.columns) {
      total += cs.compression_rate;
    }
    stats.table_compression_rate = total / stats.columns.size();
  }
  return stats;
}

}  // namespace hsdb
