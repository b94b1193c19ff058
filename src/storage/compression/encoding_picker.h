// EncodingPicker: chooses the codec of one column segment from the column's
// value distribution — distinct count (dictionary payoff), run structure
// (RLE payoff) and value range (frame-of-reference payoff). The same
// decision runs in two places: at delta-merge time on exact per-segment
// profiles (ColumnTable), and inside the advisor on catalog statistics, so
// recommendations name the encoding the store would actually pick.
#ifndef HSDB_STORAGE_COMPRESSION_ENCODING_PICKER_H_
#define HSDB_STORAGE_COMPRESSION_ENCODING_PICKER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/compression/encoding.h"

namespace hsdb {
namespace compression {

/// The codec-relevant shape of one column's values. Computed exactly by
/// ProfileValues() at encode time, or approximately from catalog statistics
/// (ColumnStatistics) by the advisor.
struct EncodingProfile {
  uint64_t row_count = 0;
  uint64_t distinct_count = 0;
  /// Number of maximal runs of equal adjacent values in physical order.
  uint64_t run_count = 0;
  /// True for the integer-family physical types (INT32/INT64/DATE).
  bool is_integer = false;
  /// Integer value bounds; meaningful only when is_integer and row_count>0.
  int64_t min_value = 0;
  int64_t max_value = 0;
  /// Bytes of one plain value (average payload for strings).
  double plain_value_bytes = 8.0;

  double AvgRunLength() const {
    return run_count == 0 ? 1.0
                          : static_cast<double>(row_count) /
                                static_cast<double>(run_count);
  }
};

/// The distinct values of a value vector in first-seen order: code c is the
/// c-th distinct value met walking the rows, first occurring at row
/// first_rows[c]; codes[i] is the code of row i. Dictionary encoding sorts
/// only the distinct values and maps each row through its code.
struct FirstSeenCodes {
  std::vector<uint32_t> codes;       // one per row
  std::vector<uint32_t> first_rows;  // one per distinct value
};

/// Exact profile of a typed value vector (in physical order), computed in
/// one pass through an open-addressing hash table of the distinct values
/// (doubles compare with ==, so -0.0 and 0.0 are one value). When `codes`
/// is non-null it receives each row's first-seen code. Instantiated for the
/// four physical types (int32_t, int64_t, double, std::string).
template <typename T>
EncodingProfile ProfileValues(const std::vector<T>& values,
                              FirstSeenCodes* codes = nullptr);

/// True when `encoding` can represent a column with this profile at all
/// (frame-of-reference needs an integer domain).
bool EncodingApplicable(Encoding encoding, const EncodingProfile& profile);

/// Estimated payload bytes of the segment under `encoding`; the picker's
/// objective function. Returns +inf for inapplicable encodings.
double EstimateEncodedBytes(Encoding encoding, const EncodingProfile& profile);

class EncodingPicker {
 public:
  struct Options {
    /// With false, always pick the dictionary codec (the pre-compression
    /// column-store behavior); segments stay scannable either way.
    bool adaptive = true;
    /// Overrides the choice entirely (benchmarks, A/B tests). Falls back to
    /// kDictionary when the forced codec is inapplicable to the column.
    std::optional<Encoding> force;
    /// RLE is only considered once runs average at least this long;
    /// below it run skipping loses to the dictionary's implicit index.
    double min_avg_run_length = 3.0;
  };

  /// Default picker: adaptive, no forced codec, RLE past 3-value runs.
  EncodingPicker() : EncodingPicker(Options{}) {}
  explicit EncodingPicker(Options options) : options_(options) {}

  /// The pruning rules this picker applies (mirrored by the advisor's
  /// encoding search so it only proposes codecs the store would accept).
  const Options& options() const { return options_; }

  /// Smallest-estimated-size applicable codec; ties break toward the
  /// dictionary (fastest predicate path).
  Encoding Pick(const EncodingProfile& profile) const;

 private:
  Options options_;
};

/// Codecs that may represent a column with this profile, pruned by the
/// picker's rules (RLE only past min_avg_run_length, frame-of-reference
/// only on integer domains; force/non-adaptive collapse to one entry). The
/// dictionary is always present and first — this is the advisor's
/// per-column candidate set when it searches over encodings, so the search
/// explores exactly the choices the store would accept.
std::vector<Encoding> CandidateEncodings(const EncodingProfile& profile,
                                         const EncodingPicker::Options& options);

}  // namespace compression
}  // namespace hsdb

#endif  // HSDB_STORAGE_COMPRESSION_ENCODING_PICKER_H_
