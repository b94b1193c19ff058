// Internal per-tier entry points of the packed-domain filter kernels. The
// public dispatchers in bitunpack.cc select among these by ActiveLevel();
// each tier's functions live in their own translation unit so the SIMD
// bodies carry `target` attributes without global ISA flags. Not an
// installed header — include bitunpack.h instead.
#ifndef HSDB_STORAGE_COMPRESSION_SIMD_KERNELS_H_
#define HSDB_STORAGE_COMPRESSION_SIMD_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "storage/compression/simd/bitunpack.h"
#include "storage/compression/simd/dispatch.h"

namespace hsdb {
namespace compression {
namespace simd {
namespace internal {

/// Calls emit(i, code) for the `count` packed codes starting at value index
/// `start`, each the zero-extended `width`-bit value: the scalar code
/// extraction both tiers share (the AVX2 tier for its tails and wide
/// widths). Branch-free byte-granular extraction on little-endian targets
/// (one unaligned 64-bit load + shift + mask per value, no word-boundary
/// branch) while the remaining in-byte shift (<= 7) plus the width fits one
/// 64-bit load; a two-word extraction loop everywhere else.
template <typename Emit>
inline void ExtractLoop(const uint64_t* words, size_t start, size_t count,
                        uint32_t width, Emit&& emit) {
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  size_t bit = start * width;
  if constexpr (std::endian::native == std::endian::little) {
    if (width <= 57) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(words);
      for (size_t i = 0; i < count; ++i, bit += width) {
        uint64_t chunk;
        std::memcpy(&chunk, bytes + (bit >> 3), sizeof(chunk));
        emit(i, (chunk >> (bit & 7)) & mask);
      }
      return;
    }
  }
  for (size_t i = 0; i < count; ++i, bit += width) {
    size_t word = bit >> 6;
    uint32_t shift = static_cast<uint32_t>(bit & 63);
    uint64_t value = words[word] >> shift;
    if (shift + width > 64) value |= words[word + 1] << (64 - shift);
    emit(i, value & mask);
  }
}

// Scalar tier (bitunpack.cc): the portable reference the AVX2 tier must
// match bit for bit. Handles all widths 1..64.
void FilterPackedRangeScalar(const uint64_t* words, size_t n, uint32_t width,
                             uint64_t lo, uint64_t hi, uint64_t* bm_words);
void FilterPackedRangeMultiScalar(const uint64_t* words, size_t n,
                                  uint32_t width, const PackedPredicate* preds,
                                  size_t num_preds);

#if HSDB_SIMD_X86
// AVX2 tier (bitunpack_avx2.cc): vpshufb + vpsrlvd for widths <= 16, 64-bit
// gathers + vpsrlvq for widths 17..32; wider widths fall through to the
// scalar tier internally.
void FilterPackedRangeAvx2(const uint64_t* words, size_t n, uint32_t width,
                           uint64_t lo, uint64_t hi, uint64_t* bm_words);
void FilterPackedRangeMultiAvx2(const uint64_t* words, size_t n,
                                uint32_t width, const PackedPredicate* preds,
                                size_t num_preds);
#endif  // HSDB_SIMD_X86

}  // namespace internal
}  // namespace simd
}  // namespace compression
}  // namespace hsdb

#endif  // HSDB_STORAGE_COMPRESSION_SIMD_KERNELS_H_
