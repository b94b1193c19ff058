// EncodedSegment<T>: one immutable compressed column segment — the
// read-optimized main part of one ColumnTable column. Wraps the concrete
// codec behind a variant and records the segment-level facts the rest of
// the stack reads (chosen encoding, distinct count, plain footprint).
#ifndef HSDB_STORAGE_COMPRESSION_ENCODED_SEGMENT_H_
#define HSDB_STORAGE_COMPRESSION_ENCODED_SEGMENT_H_

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "storage/compression/codecs.h"
#include "storage/compression/encoding.h"
#include "storage/compression/encoding_picker.h"

namespace hsdb {
namespace compression {

template <typename T>
class EncodedSegment {
 public:
  /// Empty dictionary segment (a freshly created column has no main part).
  EncodedSegment() : codec_(DictionaryCodec<T>()) {}

  /// Profiles `values` in one hashing pass, asks `picker` for the codec
  /// and encodes. A dictionary segment sorts only the distinct values the
  /// pass found; a raw segment keeps `values` itself.
  static EncodedSegment Encode(std::vector<T> values,
                               const EncodingPicker& picker) {
    FirstSeenCodes codes;
    const EncodingProfile profile = ProfileValues(values, &codes);
    EncodedSegment seg;
    seg.encoding_ = picker.Pick(profile);
    seg.distinct_ = static_cast<size_t>(profile.distinct_count);
    seg.plain_bytes_ = internal::PlainBytes(values);
    switch (seg.encoding_) {
      case Encoding::kDictionary:
        seg.codec_ = DictionaryCodec<T>::Encode(std::move(values), codes);
        break;
      case Encoding::kRle:
        seg.codec_ = RleCodec<T>::Encode(values);
        break;
      case Encoding::kFrameOfReference:
        seg.codec_ = ForCodec<T>::Encode(values);
        break;
      case Encoding::kRaw:
        seg.codec_ = RawCodec<T>::Encode(std::move(values));
        break;
    }
    return seg;
  }

  /// Encodes with a fixed codec (benchmarks, tests). Falls back to the
  /// dictionary when `encoding` cannot represent the column.
  static EncodedSegment Encode(std::vector<T> values, Encoding encoding) {
    EncodingPicker::Options forced;
    forced.force = encoding;
    return Encode(std::move(values), EncodingPicker(forced));
  }

  Encoding encoding() const { return encoding_; }
  size_t size() const {
    return std::visit([](const auto& c) { return c.size(); }, codec_);
  }

  /// Random access (tuple reconstruction, point lookups).
  T Get(size_t i) const {
    return std::visit([&](const auto& c) { return c.Get(i); }, codec_);
  }

  /// Selective decode: fn(index, const T&) for every set bit of `bits` in
  /// [begin, min(end, size())). Dispatches once and uses the codec's
  /// selective fast path (RLE walks a monotone run cursor instead of
  /// binary-searching per row). Reads only the bitmap words covering the
  /// range, so disjoint ranges may be decoded concurrently (parallel
  /// aggregation morsels).
  template <typename Fn>
  void ForEachInRange(const Bitmap& bits, size_t begin, size_t end,
                      Fn&& fn) const {
    std::visit(
        [&](const auto& c) {
          c.ForEachInRange(bits, begin, end, std::forward<Fn>(fn));
        },
        codec_);
  }

  /// Narrows `inout` over rows [begin, end) to rows whose value satisfies
  /// `pred`; bits outside the slice are untouched. Conjunction semantics:
  /// already cleared bits stay cleared. With `begin` 64-aligned, disjoint
  /// slices write disjoint bitmap words, so concurrent morsels may share one
  /// bitmap (the parallel scan path relies on this).
  void FilterRangeSlice(const BoundsPred<T>& pred, Bitmap* inout,
                        size_t begin, size_t end) const {
    std::visit(
        [&](const auto& c) { c.FilterRangeSlice(pred, inout, begin, end); },
        codec_);
  }

  /// Shared-scan form of FilterRangeSlice: one codec dispatch evaluates all
  /// `k` predicates in a single decode pass over rows [begin, end). Per
  /// target the result is bit-identical to FilterRangeSlice(t.pred,
  /// t.inout, begin, end), including the slice/alignment contract.
  void MultiFilterRangeSlice(const PredicateTarget<T>* targets, size_t k,
                             size_t begin, size_t end) const {
    std::visit(
        [&](const auto& c) { c.MultiFilterRangeSlice(targets, k, begin, end); },
        codec_);
  }

  /// The codec's packed codes (dictionary ids, FOR deltas); empty for RLE
  /// and raw segments.
  PackedCodes codes() const {
    return std::visit([](const auto& c) { return c.codes(); }, codec_);
  }

  /// Distinct values in the segment (the main "dictionary size" even for
  /// non-dictionary codecs).
  size_t distinct_count() const { return distinct_; }

  /// Bytes of encoded payload / of plain storage for the same values.
  size_t payload_bytes() const {
    return std::visit([](const auto& c) { return c.payload_bytes(); },
                      codec_);
  }
  size_t plain_bytes() const { return plain_bytes_; }
  size_t memory_bytes() const {
    return std::visit([](const auto& c) { return c.memory_bytes(); }, codec_);
  }

 private:
  using Variant = std::variant<DictionaryCodec<T>, RleCodec<T>, ForCodec<T>,
                               RawCodec<T>>;

  Variant codec_;
  Encoding encoding_ = Encoding::kDictionary;
  size_t distinct_ = 0;
  size_t plain_bytes_ = 0;
};

}  // namespace compression
}  // namespace hsdb

#endif  // HSDB_STORAGE_COMPRESSION_ENCODED_SEGMENT_H_
