#include "storage/compression/encoding_picker.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <string_view>
#include <type_traits>

#include "common/bitpack.h"
#include "common/hash.h"
#include "common/macros.h"

namespace hsdb {
namespace compression {

namespace {

/// Hash of one value for the profiling table: numeric values hash their
/// bits (-0.0 folded onto 0.0, which == treats as equal), strings their
/// bytes.
uint64_t HashValue(int32_t v) { return Mix64(static_cast<uint64_t>(v)); }
uint64_t HashValue(int64_t v) { return Mix64(static_cast<uint64_t>(v)); }
uint64_t HashValue(double v) {
  return Mix64(std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v));
}
uint64_t HashValue(const std::string& v) {
  return std::hash<std::string_view>{}(v);
}

}  // namespace

template <typename T>
EncodingProfile ProfileValues(const std::vector<T>& values,
                              FirstSeenCodes* codes) {
  const size_t n = values.size();
  EncodingProfile p;
  p.row_count = n;
  p.is_integer = std::is_integral_v<T>;
  p.plain_value_bytes = sizeof(T);
  FirstSeenCodes local;
  FirstSeenCodes& out = codes != nullptr ? *codes : local;
  out.codes.resize(n);
  out.first_rows.clear();
  if (n == 0) return p;
  HSDB_CHECK(n < std::numeric_limits<uint32_t>::max());

  // Open addressing with linear probing over a power-of-two table that
  // doubles once half full. A slot holds code + 1 (0 = empty) and the
  // code's first row, so a probe compares against values[row] directly.
  struct Slot {
    uint32_t code_plus_one = 0;
    uint32_t row = 0;
  };
  std::vector<Slot> slots(64);
  size_t mask = slots.size() - 1;
  size_t payload = 0;
  if constexpr (std::is_integral_v<T>) {
    p.min_value = p.max_value = values[0];
  }
  for (size_t i = 0; i < n; ++i) {
    const T& v = values[i];
    if constexpr (std::is_same_v<T, std::string>) payload += v.size();
    if constexpr (std::is_integral_v<T>) {
      p.min_value = std::min<int64_t>(p.min_value, v);
      p.max_value = std::max<int64_t>(p.max_value, v);
    }
    size_t s = HashValue(v) & mask;
    while (slots[s].code_plus_one != 0 && !(values[slots[s].row] == v)) {
      s = (s + 1) & mask;
    }
    if (slots[s].code_plus_one != 0) {
      out.codes[i] = slots[s].code_plus_one - 1;
      continue;
    }
    const auto code = static_cast<uint32_t>(out.first_rows.size());
    out.codes[i] = code;
    out.first_rows.push_back(static_cast<uint32_t>(i));
    slots[s] = {code + 1, static_cast<uint32_t>(i)};
    if (2 * out.first_rows.size() > slots.size()) {
      std::vector<Slot> grown(2 * slots.size());
      mask = grown.size() - 1;
      for (const Slot& old : slots) {
        if (old.code_plus_one == 0) continue;
        size_t t = HashValue(values[old.row]) & mask;
        while (grown[t].code_plus_one != 0) t = (t + 1) & mask;
        grown[t] = old;
      }
      slots = std::move(grown);
    }
  }
  p.distinct_count = out.first_rows.size();
  p.run_count = 1;
  for (size_t i = 1; i < n; ++i) {
    if (out.codes[i] != out.codes[i - 1]) ++p.run_count;
  }
  if constexpr (std::is_same_v<T, std::string>) {
    p.plain_value_bytes = sizeof(std::string) + static_cast<double>(payload) /
                                                    static_cast<double>(n);
  }
  return p;
}

template EncodingProfile ProfileValues(const std::vector<int32_t>&,
                                       FirstSeenCodes*);
template EncodingProfile ProfileValues(const std::vector<int64_t>&,
                                       FirstSeenCodes*);
template EncodingProfile ProfileValues(const std::vector<double>&,
                                       FirstSeenCodes*);
template EncodingProfile ProfileValues(const std::vector<std::string>&,
                                       FirstSeenCodes*);

bool EncodingApplicable(Encoding encoding, const EncodingProfile& profile) {
  if (encoding == Encoding::kFrameOfReference) {
    if (!profile.is_integer) return false;
    // The delta domain must fit 64 unsigned bits.
    uint64_t span = static_cast<uint64_t>(profile.max_value) -
                    static_cast<uint64_t>(profile.min_value);
    return span < std::numeric_limits<uint64_t>::max();
  }
  return true;
}

double EstimateEncodedBytes(Encoding encoding,
                            const EncodingProfile& profile) {
  if (!EncodingApplicable(encoding, profile)) {
    return std::numeric_limits<double>::infinity();
  }
  const double n = static_cast<double>(profile.row_count);
  const double d = static_cast<double>(std::max<uint64_t>(
      1, std::min(profile.distinct_count, profile.row_count)));
  switch (encoding) {
    case Encoding::kDictionary: {
      double id_bits = d <= 1.0 ? 1.0
                                : BitPackedVector::WidthFor(
                                      static_cast<uint64_t>(d) - 1);
      return d * profile.plain_value_bytes + n * id_bits / 8.0;
    }
    case Encoding::kRle: {
      // One (value, start offset) pair per run.
      double runs = static_cast<double>(std::max<uint64_t>(
          1, std::min(profile.run_count, profile.row_count)));
      return runs * (profile.plain_value_bytes + sizeof(uint32_t));
    }
    case Encoding::kFrameOfReference: {
      uint64_t span = static_cast<uint64_t>(profile.max_value) -
                      static_cast<uint64_t>(profile.min_value);
      double delta_bits = BitPackedVector::WidthFor(span);
      return sizeof(int64_t) + n * delta_bits / 8.0;
    }
    case Encoding::kRaw:
      return n * profile.plain_value_bytes;
  }
  return std::numeric_limits<double>::infinity();
}

std::vector<Encoding> CandidateEncodings(
    const EncodingProfile& profile, const EncodingPicker::Options& options) {
  if (options.force.has_value()) {
    return {EncodingApplicable(*options.force, profile)
                ? *options.force
                : Encoding::kDictionary};
  }
  if (!options.adaptive || profile.row_count == 0) {
    return {Encoding::kDictionary};
  }
  // Candidate order breaks ties toward faster predicate evaluation
  // (dictionary id ranges, then run skipping).
  std::vector<Encoding> candidates = {Encoding::kDictionary};
  if (profile.AvgRunLength() >= options.min_avg_run_length) {
    candidates.push_back(Encoding::kRle);
  }
  if (EncodingApplicable(Encoding::kFrameOfReference, profile)) {
    candidates.push_back(Encoding::kFrameOfReference);
  }
  candidates.push_back(Encoding::kRaw);
  return candidates;
}

Encoding EncodingPicker::Pick(const EncodingProfile& profile) const {
  // Smallest estimated footprint among the candidate codecs wins.
  Encoding best = Encoding::kDictionary;
  double best_bytes = std::numeric_limits<double>::infinity();
  for (Encoding e : CandidateEncodings(profile, options_)) {
    double bytes = EstimateEncodedBytes(e, profile);
    if (bytes < best_bytes) {
      best = e;
      best_bytes = bytes;
    }
  }
  return best;
}

}  // namespace compression
}  // namespace hsdb
