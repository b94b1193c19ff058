// Fixed-width bit-packed integer vector: the physical representation of
// dictionary value-id columns in the column store.
#ifndef HSDB_COMMON_BITPACK_H_
#define HSDB_COMMON_BITPACK_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace hsdb {

/// Packs unsigned integers of a fixed bit width (1..64) back to back into a
/// word array. Append-only plus random-access get/set of existing slots.
class BitPackedVector {
 public:
  /// `bit_width` must be in [1, 64]. Width 0 (single-value dictionary) is
  /// represented by width 1 for simplicity.
  explicit BitPackedVector(uint32_t bit_width = 32)
      : bit_width_(bit_width == 0 ? 1 : bit_width) {
    HSDB_CHECK(bit_width_ >= 1 && bit_width_ <= 64);
  }

  /// Smallest width able to represent values in [0, max_value].
  static uint32_t WidthFor(uint64_t max_value);

  uint32_t bit_width() const { return bit_width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends `v`; CHECK-fails if `v` does not fit the configured width.
  void Append(uint64_t v);

  /// Value at `i`.
  uint64_t Get(size_t i) const {
    HSDB_DCHECK(i < size_);
    size_t bit = i * bit_width_;
    size_t word = bit >> 6;
    uint32_t shift = static_cast<uint32_t>(bit & 63);
    uint64_t value = words_[word] >> shift;
    if (shift + bit_width_ > 64) {
      value |= words_[word + 1] << (64 - shift);
    }
    return value & mask();
  }

  /// Overwrites slot `i` with `v` (used by in-place id rewrites).
  void Set(size_t i, uint64_t v);

  /// Raw little-endian word array for the packed filter kernels
  /// (storage/compression/simd/bitunpack.h). Invariant: the array always
  /// extends at least kSlackWords past the word holding the last value's
  /// first bit, so the kernels' 16-byte window loads never run off the end.
  const uint64_t* words() const { return words_.data(); }

  /// Trailing slack words Append maintains past the last value (the decode
  /// kernels' over-read allowance; see simd::kPackedSlackWords).
  static constexpr size_t kSlackWords = 2;

  /// Bytes of payload storage currently reserved.
  size_t memory_bytes() const { return words_.capacity() * sizeof(uint64_t); }

  void Reserve(size_t n) {
    words_.reserve((n * bit_width_ + 63) / 64 + kSlackWords);
  }

 private:
  uint64_t mask() const {
    return bit_width_ == 64 ? ~uint64_t{0}
                            : ((uint64_t{1} << bit_width_) - 1);
  }

  uint32_t bit_width_;
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace hsdb

#endif  // HSDB_COMMON_BITPACK_H_
