// The column codecs of the compressed column-store subsystem. Every codec
// stores one immutable segment of values (the read-optimized "main" part of
// one column) and supports the access patterns the engine needs:
//
//   Get(i)              random access (tuple reconstruction, point lookups)
//   ForEachInRange(bm, b, e, fn)
//                       decode of the selected rows of one slice: the one
//                       decode form (scans, statistics, encoding probes)
//   FilterRangeSlice(p, bm, b, e)
//                       predicate evaluation on the *encoded* data of one
//                       slice: dictionary-domain id ranges, RLE run
//                       skipping, frame-of-reference packed-domain
//                       comparison
//
// Predicate semantics must match the row store bit for bit: numeric bounds
// compare in double space, strings lexicographically (BoundsPred).
#ifndef HSDB_STORAGE_COMPRESSION_CODECS_H_
#define HSDB_STORAGE_COMPRESSION_CODECS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bitmap.h"
#include "common/bitpack.h"
#include "common/macros.h"
#include "storage/compression/encoding_picker.h"
#include "storage/compression/simd/bitunpack.h"

namespace hsdb {
namespace compression {

/// Resolved typed range predicate. Numeric instantiations compare in double
/// space (exactly like the row store's ValueRange path); the std::string
/// specialization compares lexicographically.
template <typename T>
struct BoundsPred {
  bool has_lo = false;
  bool has_hi = false;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  double lo = 0.0;
  double hi = 0.0;

  bool BelowLo(const T& v) const {
    if (!has_lo) return false;
    double d = static_cast<double>(v);
    return lo_inclusive ? d < lo : d <= lo;
  }
  bool AboveHi(const T& v) const {
    if (!has_hi) return false;
    double d = static_cast<double>(v);
    return hi_inclusive ? d > hi : d >= hi;
  }
  bool Keep(const T& v) const { return !BelowLo(v) && !AboveHi(v); }
};

template <>
struct BoundsPred<std::string> {
  bool has_lo = false;
  bool has_hi = false;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  std::string lo;
  std::string hi;

  bool BelowLo(const std::string& v) const {
    if (!has_lo) return false;
    return lo_inclusive ? v < lo : v <= lo;
  }
  bool AboveHi(const std::string& v) const {
    if (!has_hi) return false;
    return hi_inclusive ? v > hi : v >= hi;
  }
  bool Keep(const std::string& v) const { return !BelowLo(v) && !AboveHi(v); }
};

/// One predicate of a shared scan at the codec level: the resolved typed
/// bounds and the selection bitmap they narrow. The codecs'
/// MultiFilterRangeSlice evaluates many of these in one decode pass; per
/// target the result is bit-identical to FilterRangeSlice(pred, inout, ...).
template <typename T>
struct PredicateTarget {
  BoundsPred<T> pred;
  Bitmap* inout = nullptr;
};

/// Read-only view of a segment's packed codes, the keys of code-keyed
/// grouping: dense, order-preserving integers in [0, space) that map one to
/// one onto the segment's values — dictionary value ids or frame-of-
/// reference deltas. `packed` is null for codecs without such codes (RLE,
/// raw); `space` saturates at UINT64_MAX for full-range 64-bit deltas.
struct PackedCodes {
  const BitPackedVector* packed = nullptr;
  uint64_t space = 0;
};

namespace internal {

inline size_t PlainBytes(const std::vector<std::string>& values) {
  size_t total = values.size() * sizeof(std::string);
  for (const std::string& s : values) total += s.size();
  return total;
}
template <typename T>
size_t PlainBytes(const std::vector<T>& values) {
  return values.size() * sizeof(T);
}

}  // namespace internal

/// Order-preserving dictionary: sorted distinct values + bit-packed ids.
/// The dictionary doubles as the column store's implicit index — range
/// predicates binary-search the dictionary once and then compare packed ids.
template <typename T>
class DictionaryCodec {
 public:
  /// Encodes from the values' first-seen codes (ProfileValues): only the
  /// distinct values are sorted, and each row's id is the rank of its code.
  /// The dictionary takes the distinct values out of `values`.
  static DictionaryCodec Encode(std::vector<T> values,
                                const FirstSeenCodes& codes) {
    const size_t d = codes.first_rows.size();
    std::vector<T> distinct;
    distinct.reserve(d);
    for (uint32_t row : codes.first_rows) {
      distinct.push_back(std::move(values[row]));
    }
    std::vector<uint32_t> order(d);
    for (uint32_t code = 0; code < d; ++code) order[code] = code;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return distinct[a] < distinct[b];
    });
    DictionaryCodec c;
    std::vector<uint32_t> rank(d);
    c.dict_.reserve(d);
    for (uint32_t r = 0; r < d; ++r) {
      rank[order[r]] = r;
      c.dict_.push_back(std::move(distinct[order[r]]));
    }
    c.ids_ = BitPackedVector(d == 0 ? 1 : BitPackedVector::WidthFor(d - 1));
    c.ids_.Reserve(codes.codes.size());
    for (uint32_t code : codes.codes) c.ids_.Append(rank[code]);
    return c;
  }

  size_t size() const { return ids_.size(); }
  T Get(size_t i) const { return dict_[ids_.Get(i)]; }

  /// fn(i, value) for every set bit of `bits` in [begin, min(end, size())):
  /// reads only the bitmap words covering the range (morsel-local decode).
  template <typename Fn>
  void ForEachInRange(const Bitmap& bits, size_t begin, size_t end,
                      Fn&& fn) const {
    bits.ForEachSetInRange(begin, std::min(end, size()),
                           [&](size_t i) { fn(i, dict_[ids_.Get(i)]); });
  }

  /// Clears the bits of rows in [begin, end) whose value fails `pred`; bits
  /// outside the slice are untouched, so disjoint slices may be evaluated
  /// concurrently into one shared bitmap. `begin` must be 64-aligned — the
  /// slice then starts on a packed-word boundary (begin·width ≡ 0 mod 64)
  /// and writes only whole bitmap words of its own, which is what makes
  /// concurrent slices safe.
  void FilterRangeSlice(const BoundsPred<T>& pred, Bitmap* inout,
                        size_t begin, size_t end) const {
    HSDB_DCHECK(begin % 64 == 0 && begin <= end && end <= size());
    HSDB_DCHECK(inout->size() >= size());
    if (begin >= end) return;
    const auto [id_lo, id_hi] = IdInterval(pred);
    // Compare the packed ids against the translated interval without
    // decoding: the kernel ANDs 64-row match masks into the bitmap words.
    // The kernel leaves bits at or beyond its n untouched, so an offset
    // call covers exactly the slice; reads past the last partial word stay
    // inside the ids array's trailing slack words.
    const uint32_t width = ids_.bit_width();
    simd::FilterPackedRange(ids_.words() + begin * width / 64, end - begin,
                            width, id_lo, id_hi,
                            inout->mutable_words() + begin / 64);
  }

  /// Shared-scan form of FilterRangeSlice: every predicate translates to an
  /// id interval up front, then one pass of the multi-predicate kernel
  /// decodes each 64-row block at most once and narrows every target's
  /// bitmap. Per target the result is bit-identical to FilterRangeSlice.
  void MultiFilterRangeSlice(const PredicateTarget<T>* targets, size_t k,
                             size_t begin, size_t end) const {
    HSDB_DCHECK(begin % 64 == 0 && begin <= end && end <= size());
    if (begin >= end || k == 0) return;
    std::vector<simd::PackedPredicate> packed(k);
    for (size_t i = 0; i < k; ++i) {
      HSDB_DCHECK(targets[i].inout->size() >= size());
      const auto [id_lo, id_hi] = IdInterval(targets[i].pred);
      packed[i] = {id_lo, id_hi,
                   targets[i].inout->mutable_words() + begin / 64};
    }
    const uint32_t width = ids_.bit_width();
    simd::FilterPackedRangeMulti(ids_.words() + begin * width / 64,
                                 end - begin, width, packed.data(), k);
  }

  size_t distinct_count() const { return dict_.size(); }
  size_t payload_bytes() const {
    return internal::PlainBytes(dict_) + size() * ids_.bit_width() / 8;
  }
  size_t memory_bytes() const {
    return internal::PlainBytes(dict_) + ids_.memory_bytes();
  }

  const std::vector<T>& dict() const { return dict_; }

  /// The value ids: code i decodes to dict()[i].
  PackedCodes codes() const { return {&ids_, dict_.size()}; }

 private:
  /// Translates resolved bounds into the half-open dictionary-id interval
  /// [id_lo, id_hi) whose codes satisfy the predicate (the dictionary is
  /// sorted, so the matching ids are contiguous).
  std::pair<uint64_t, uint64_t> IdInterval(const BoundsPred<T>& pred) const {
    size_t id_lo = 0;
    size_t id_hi = dict_.size();
    if (pred.has_lo) {
      id_lo = std::partition_point(
                  dict_.begin(), dict_.end(),
                  [&](const T& v) { return pred.BelowLo(v); }) -
              dict_.begin();
    }
    if (pred.has_hi) {
      id_hi = std::partition_point(
                  dict_.begin(), dict_.end(),
                  [&](const T& v) { return !pred.AboveHi(v); }) -
              dict_.begin();
    }
    return {id_lo, id_hi};
  }

  std::vector<T> dict_;
  BitPackedVector ids_;
};

/// Run-length encoding: one (value, start offset) pair per maximal run.
/// Predicates decide each run once and skip or clear it whole.
template <typename T>
class RleCodec {
 public:
  static RleCodec Encode(const std::vector<T>& values) {
    HSDB_CHECK(values.size() < std::numeric_limits<uint32_t>::max());
    RleCodec c;
    c.n_ = values.size();
    for (size_t i = 0; i < values.size(); ++i) {
      if (i == 0 || values[i] != values[i - 1]) {
        c.values_.push_back(values[i]);
        c.starts_.push_back(static_cast<uint32_t>(i));
      }
    }
    c.values_.shrink_to_fit();
    c.starts_.shrink_to_fit();
    return c;
  }

  size_t size() const { return n_; }
  size_t run_count() const { return values_.size(); }

  T Get(size_t i) const {
    HSDB_DCHECK(i < n_);
    size_t run = std::upper_bound(starts_.begin(), starts_.end(),
                                  static_cast<uint32_t>(i)) -
                 starts_.begin() - 1;
    return values_[run];
  }

  /// fn(i, value) for every set bit of `bits` in [begin, min(end, size())).
  /// The run cursor starts at the run containing `begin` (binary search
  /// once) and advances monotonically with the ascending set-bit iteration:
  /// O(k + runs) instead of the O(k log runs) of a Get() per bit.
  template <typename Fn>
  void ForEachInRange(const Bitmap& bits, size_t begin, size_t end,
                      Fn&& fn) const {
    if (begin >= n_) return;
    size_t run = std::upper_bound(starts_.begin(), starts_.end(),
                                  static_cast<uint32_t>(begin)) -
                 starts_.begin();
    if (run > 0) --run;
    bits.ForEachSetInRange(begin, std::min(end, n_), [&](size_t i) {
      while (RunEnd(run) <= i) ++run;
      fn(i, values_[run]);
    });
  }

  /// Clears the bits of rows in [begin, end) whose value fails `pred`:
  /// binary-searches the first run intersecting the slice, then decides
  /// runs until one starts at or past `end`, clearing only the run∩slice
  /// intersection. Bits outside the slice are untouched (64-aligned `begin`
  /// keeps concurrent slices on disjoint bitmap words — ClearRange masks
  /// partial edge words, so the alignment of `end` at the final morsel's
  /// tail is irrelevant for the slice's own words).
  void FilterRangeSlice(const BoundsPred<T>& pred, Bitmap* inout,
                        size_t begin, size_t end) const {
    HSDB_DCHECK(begin % 64 == 0 && begin <= end && end <= size());
    if (begin >= end) return;
    size_t run = std::upper_bound(starts_.begin(), starts_.end(),
                                  static_cast<uint32_t>(begin)) -
                 starts_.begin();
    if (run > 0) --run;  // the run containing `begin`
    for (; run < values_.size() && starts_[run] < end; ++run) {
      if (!pred.Keep(values_[run])) {
        inout->ClearRange(std::max<size_t>(starts_[run], begin),
                          std::min(RunEnd(run), end));
      }
    }
  }

  /// Shared-scan form of FilterRangeSlice: one run walk decides every
  /// predicate per run (k Keep calls per run instead of k binary searches
  /// plus k walks). Per target the result is bit-identical to
  /// FilterRangeSlice.
  void MultiFilterRangeSlice(const PredicateTarget<T>* targets, size_t k,
                             size_t begin, size_t end) const {
    HSDB_DCHECK(begin % 64 == 0 && begin <= end && end <= size());
    if (begin >= end || k == 0) return;
    size_t run = std::upper_bound(starts_.begin(), starts_.end(),
                                  static_cast<uint32_t>(begin)) -
                 starts_.begin();
    if (run > 0) --run;  // the run containing `begin`
    for (; run < values_.size() && starts_[run] < end; ++run) {
      const size_t clear_lo = std::max<size_t>(starts_[run], begin);
      const size_t clear_hi = std::min(RunEnd(run), end);
      for (size_t i = 0; i < k; ++i) {
        if (!targets[i].pred.Keep(values_[run])) {
          targets[i].inout->ClearRange(clear_lo, clear_hi);
        }
      }
    }
  }

  PackedCodes codes() const { return {}; }

  size_t payload_bytes() const {
    return internal::PlainBytes(values_) +
           starts_.size() * sizeof(uint32_t);
  }
  size_t memory_bytes() const {
    return internal::PlainBytes(values_) +
           starts_.capacity() * sizeof(uint32_t);
  }

 private:
  size_t RunEnd(size_t run) const {
    return run + 1 < starts_.size() ? starts_[run + 1] : n_;
  }

  std::vector<T> values_;   // one value per run
  std::vector<uint32_t> starts_;  // run start offsets, parallel to values_
  size_t n_ = 0;
};

/// Frame-of-reference: minimum value as the base + bit-packed unsigned
/// deltas. Integer-family columns only; decode preserves order, so range
/// predicates translate into the packed delta domain once and compare
/// without decoding.
template <typename T>
class ForCodec {
 public:
  static ForCodec Encode(const std::vector<T>& values) {
    static_assert(std::is_integral_v<T>,
                  "frame-of-reference requires an integer domain");
    ForCodec c;
    if (values.empty()) return c;
    auto [mn, mx] = std::minmax_element(values.begin(), values.end());
    c.base_ = static_cast<int64_t>(*mn);
    c.max_delta_ = Delta(*mx, c.base_);
    BitPackedVector deltas(BitPackedVector::WidthFor(c.max_delta_));
    deltas.Reserve(values.size());
    for (const T& v : values) deltas.Append(Delta(v, c.base_));
    c.deltas_ = std::move(deltas);
    return c;
  }

  size_t size() const { return deltas_.size(); }
  T Get(size_t i) const { return Decode(deltas_.Get(i)); }

  /// fn(i, value) for every set bit of `bits` in [begin, min(end, size())).
  template <typename Fn>
  void ForEachInRange(const Bitmap& bits, size_t begin, size_t end,
                      Fn&& fn) const {
    bits.ForEachSetInRange(begin, std::min(end, size()),
                           [&](size_t i) { fn(i, Decode(deltas_.Get(i))); });
  }

  /// Clears the bits of rows in [begin, end) whose value fails `pred`; bits
  /// outside the slice are untouched, so disjoint 64-aligned slices may run
  /// concurrently into one shared bitmap (same contract as
  /// DictionaryCodec::FilterRangeSlice).
  void FilterRangeSlice(const BoundsPred<T>& pred, Bitmap* inout,
                        size_t begin, size_t end) const {
    HSDB_DCHECK(begin % 64 == 0 && begin <= end && end <= size());
    HSDB_DCHECK(inout->size() >= size());
    if (begin >= end) return;
    const DeltaInterval iv = IntervalFor(pred);
    if (iv.empty) {
      inout->ClearRange(begin, end);
      return;
    }
    if (iv.d_hi_incl == ~uint64_t{0}) {
      // The exclusive-bound kernel cannot express "everything up to
      // UINT64_MAX"; only reachable at bit width 64 (full-range deltas).
      if (iv.d_lo == 0) return;  // every row matches
      inout->ForEachSetInRange(begin, end, [&](size_t rid) {
        if (deltas_.Get(rid) < iv.d_lo) inout->Clear(rid);
      });
      return;
    }
    // Compare the packed deltas against the translated interval without
    // decoding: the kernel ANDs 64-row match masks into the bitmap words
    // of the slice only (see DictionaryCodec::FilterRangeSlice for why the
    // offset call is exact and in-bounds).
    const uint32_t width = deltas_.bit_width();
    simd::FilterPackedRange(deltas_.words() + begin * width / 64,
                            end - begin, width, iv.d_lo, iv.d_hi_incl + 1,
                            inout->mutable_words() + begin / 64);
  }

  /// Shared-scan form of FilterRangeSlice: every predicate translates to a
  /// packed-delta interval up front; the kernel-representable ones share one
  /// decode pass, the degenerate ones (empty match, full-range 64-bit
  /// deltas) resolve individually exactly like FilterRangeSlice does.
  void MultiFilterRangeSlice(const PredicateTarget<T>* targets, size_t k,
                             size_t begin, size_t end) const {
    HSDB_DCHECK(begin % 64 == 0 && begin <= end && end <= size());
    if (begin >= end || k == 0) return;
    std::vector<simd::PackedPredicate> packed;
    packed.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      HSDB_DCHECK(targets[i].inout->size() >= size());
      Bitmap* inout = targets[i].inout;
      const DeltaInterval iv = IntervalFor(targets[i].pred);
      if (iv.empty) {
        inout->ClearRange(begin, end);
        continue;
      }
      if (iv.d_hi_incl == ~uint64_t{0}) {
        if (iv.d_lo == 0) continue;  // every row matches
        inout->ForEachSetInRange(begin, end, [&](size_t rid) {
          if (deltas_.Get(rid) < iv.d_lo) inout->Clear(rid);
        });
        continue;
      }
      packed.push_back({iv.d_lo, iv.d_hi_incl + 1,
                        inout->mutable_words() + begin / 64});
    }
    if (packed.empty()) return;
    const uint32_t width = deltas_.bit_width();
    simd::FilterPackedRangeMulti(deltas_.words() + begin * width / 64,
                                 end - begin, width, packed.data(),
                                 packed.size());
  }

  /// The packed deltas: code d decodes to base + d.
  PackedCodes codes() const {
    return {&deltas_,
            max_delta_ == ~uint64_t{0} ? max_delta_ : max_delta_ + 1};
  }

  size_t payload_bytes() const {
    return sizeof(base_) + size() * deltas_.bit_width() / 8;
  }
  size_t memory_bytes() const {
    return sizeof(base_) + deltas_.memory_bytes();
  }

 private:
  /// A predicate translated into the packed delta domain. Decode is
  /// increasing in the packed delta, so the matching set is a contiguous
  /// delta interval [d_lo, d_hi_incl]. Inclusive bounds with explicit
  /// emptiness: max_delta_ + 1 would wrap to 0 when the delta span is the
  /// full 64-bit range, silently clearing every row.
  struct DeltaInterval {
    uint64_t d_lo = 0;
    uint64_t d_hi_incl = 0;
    bool empty = false;
  };

  DeltaInterval IntervalFor(const BoundsPred<T>& pred) const {
    DeltaInterval iv;
    iv.d_hi_incl = max_delta_;
    if (pred.has_lo) {
      if (pred.BelowLo(Decode(max_delta_))) {
        iv.empty = true;  // even the largest value is below the lower bound
        return iv;
      }
      iv.d_lo =
          FirstDelta([&](uint64_t d) { return !pred.BelowLo(Decode(d)); });
    }
    if (pred.has_hi) {
      if (pred.AboveHi(Decode(0))) {
        iv.empty = true;  // even the smallest value is above the upper bound
        return iv;
      }
      // Last delta not above the bound; FirstDelta >= 1 here, and a
      // not-found result (max_delta_ + 1, possibly wrapped to 0) minus
      // one lands back on max_delta_ either way.
      iv.d_hi_incl =
          FirstDelta([&](uint64_t d) { return pred.AboveHi(Decode(d)); }) - 1;
    }
    return iv;
  }

  static uint64_t Delta(T v, int64_t base) {
    // Two's-complement subtraction handles negative bases without overflow.
    return static_cast<uint64_t>(static_cast<int64_t>(v)) -
           static_cast<uint64_t>(base);
  }
  T Decode(uint64_t delta) const {
    return static_cast<T>(static_cast<int64_t>(
        static_cast<uint64_t>(base_) + delta));
  }

  /// Smallest delta in [0, max_delta_] satisfying the monotone predicate
  /// `p`, or max_delta_ + 1 when none does. The search stays inside the
  /// inclusive range, so it is exact even when max_delta_ + 1 wraps to 0
  /// (full 64-bit delta span); only the not-found return can wrap, and
  /// IntervalFor rules that case out before calling.
  template <typename Pred>
  uint64_t FirstDelta(Pred p) const {
    if (!p(max_delta_)) return max_delta_ + 1;
    uint64_t lo = 0;
    uint64_t hi = max_delta_;  // invariant: p(hi) holds
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      if (p(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  int64_t base_ = 0;
  uint64_t max_delta_ = 0;
  BitPackedVector deltas_{1};
};

/// Specializations so ForCodec<T> participates in the segment variant for
/// every physical type; the picker never selects FOR for these, and forcing
/// it falls back to the dictionary (EncodingApplicable).
template <>
class ForCodec<double> {
 public:
  static ForCodec Encode(const std::vector<double>&) {
    HSDB_CHECK_MSG(false, "frame-of-reference over DOUBLE column");
    return ForCodec();
  }
  size_t size() const { return 0; }
  double Get(size_t) const { return 0.0; }
  template <typename Fn>
  void ForEachInRange(const Bitmap&, size_t, size_t, Fn&&) const {}
  void FilterRangeSlice(const BoundsPred<double>&, Bitmap*, size_t,
                        size_t) const {}
  void MultiFilterRangeSlice(const PredicateTarget<double>*, size_t, size_t,
                             size_t) const {}
  PackedCodes codes() const { return {}; }
  size_t payload_bytes() const { return 0; }
  size_t memory_bytes() const { return 0; }
};

template <>
class ForCodec<std::string> {
 public:
  static ForCodec Encode(const std::vector<std::string>&) {
    HSDB_CHECK_MSG(false, "frame-of-reference over VARCHAR column");
    return ForCodec();
  }
  size_t size() const { return 0; }
  std::string Get(size_t) const { return {}; }
  template <typename Fn>
  void ForEachInRange(const Bitmap&, size_t, size_t, Fn&&) const {}
  void FilterRangeSlice(const BoundsPred<std::string>&, Bitmap*, size_t,
                        size_t) const {}
  void MultiFilterRangeSlice(const PredicateTarget<std::string>*, size_t,
                             size_t, size_t) const {}
  PackedCodes codes() const { return {}; }
  size_t payload_bytes() const { return 0; }
  size_t memory_bytes() const { return 0; }
};

/// Uncompressed plain vector: the fallback when no codec pays for itself,
/// and the baseline the compression benchmarks measure against.
template <typename T>
class RawCodec {
 public:
  static RawCodec Encode(std::vector<T> values) {
    RawCodec c;
    c.values_ = std::move(values);
    c.values_.shrink_to_fit();
    return c;
  }

  size_t size() const { return values_.size(); }
  T Get(size_t i) const { return values_[i]; }

  /// fn(i, value) for every set bit of `bits` in [begin, min(end, size())).
  template <typename Fn>
  void ForEachInRange(const Bitmap& bits, size_t begin, size_t end,
                      Fn&& fn) const {
    bits.ForEachSetInRange(begin, std::min(end, size()),
                           [&](size_t i) { fn(i, values_[i]); });
  }

  /// Clears the bits of rows in [begin, end) whose value fails `pred`; bits
  /// outside the slice are untouched, so disjoint 64-aligned slices may run
  /// concurrently into one shared bitmap.
  void FilterRangeSlice(const BoundsPred<T>& pred, Bitmap* inout,
                        size_t begin, size_t end) const {
    HSDB_DCHECK(begin % 64 == 0 && begin <= end && end <= size());
    inout->ForEachSetInRange(begin, end, [&](size_t rid) {
      if (!pred.Keep(values_[rid])) inout->Clear(rid);
    });
  }

  /// Shared-scan form of FilterRangeSlice: walks the union of the targets'
  /// candidate rows once, reading each value a single time and deciding
  /// every predicate whose bit is still set. Per target the result is
  /// bit-identical to FilterRangeSlice.
  void MultiFilterRangeSlice(const PredicateTarget<T>* targets, size_t k,
                             size_t begin, size_t end) const {
    HSDB_DCHECK(begin % 64 == 0 && begin <= end && end <= size());
    if (begin >= end || k == 0) return;
    for (size_t wi = begin / 64; wi * 64 < end; ++wi) {
      uint64_t any = 0;
      for (size_t i = 0; i < k; ++i) any |= targets[i].inout->words()[wi];
      const size_t base = wi * 64;
      if (end - base < 64) any &= ~uint64_t{0} >> (64 - (end - base));
      while (any != 0) {
        const unsigned b = std::countr_zero(any);
        any &= any - 1;
        const size_t rid = base + b;
        const T& v = values_[rid];
        for (size_t i = 0; i < k; ++i) {
          if (((targets[i].inout->words()[wi] >> b) & 1) != 0 &&
              !targets[i].pred.Keep(v)) {
            targets[i].inout->Clear(rid);
          }
        }
      }
    }
  }

  PackedCodes codes() const { return {}; }

  size_t payload_bytes() const { return internal::PlainBytes(values_); }
  size_t memory_bytes() const {
    return internal::PlainBytes(values_) +
           (values_.capacity() - values_.size()) * sizeof(T);
  }

 private:
  std::vector<T> values_;
};

}  // namespace compression
}  // namespace hsdb

#endif  // HSDB_STORAGE_COMPRESSION_CODECS_H_
