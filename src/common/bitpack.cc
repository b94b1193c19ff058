#include "common/bitpack.h"

#include <bit>

namespace hsdb {

uint32_t BitPackedVector::WidthFor(uint64_t max_value) {
  if (max_value == 0) return 1;
  return static_cast<uint32_t>(64 - std::countl_zero(max_value));
}

void BitPackedVector::Append(uint64_t v) {
  HSDB_DCHECK((v & ~mask()) == 0);
  size_t bit = size_ * bit_width_;
  size_t word = bit >> 6;
  uint32_t shift = static_cast<uint32_t>(bit & 63);
  // Keep kSlackWords of zeroed slack past the value's first word: the packed
  // filter kernels load whole 16-byte windows and may read past the last
  // value's bits (see words()).
  if (word + kSlackWords >= words_.size()) {
    words_.resize(word + kSlackWords + 1, 0);
  }
  words_[word] |= v << shift;
  if (shift + bit_width_ > 64) {
    words_[word + 1] |= v >> (64 - shift);
  }
  ++size_;
}

void BitPackedVector::Set(size_t i, uint64_t v) {
  HSDB_CHECK(i < size_);
  HSDB_DCHECK((v & ~mask()) == 0);
  size_t bit = i * bit_width_;
  size_t word = bit >> 6;
  uint32_t shift = static_cast<uint32_t>(bit & 63);
  words_[word] &= ~(mask() << shift);
  words_[word] |= v << shift;
  if (shift + bit_width_ > 64) {
    uint32_t hi_bits = shift + bit_width_ - 64;
    uint64_t hi_mask = (uint64_t{1} << hi_bits) - 1;
    words_[word + 1] &= ~hi_mask;
    words_[word + 1] |= v >> (64 - shift);
  }
}

}  // namespace hsdb
