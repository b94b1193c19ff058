// Public dispatchers + the scalar tier of the bit-unpack kernels. The
// scalar tier is the portable reference implementation: branch-free
// byte-granular extraction on little-endian targets (one unaligned 64-bit
// load + shift + mask per value, no word-boundary branch), a two-word
// extraction loop everywhere else and for widths the byte trick cannot
// carry (width > 57: shift-in-byte + width may exceed 64 loaded bits).
#include "storage/compression/simd/bitunpack.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/macros.h"
#include "storage/compression/simd/kernels.h"

namespace hsdb {
namespace compression {
namespace simd {
namespace internal {

namespace {

inline uint64_t MaskOf(uint32_t width) {
  return width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

/// Calls emit(i, value) for the `count` packed values starting at `start`.
/// The byte-granular fast path needs little-endian layout and the remaining
/// in-byte shift (<= 7) plus the width to fit one 64-bit load.
template <typename Emit>
inline void ExtractLoop(const uint64_t* words, size_t start, size_t count,
                        uint32_t width, Emit&& emit) {
  const uint64_t mask = MaskOf(width);
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

}  // namespace

void UnpackBitsScalar(const uint64_t* words, size_t start, size_t count,
                      uint32_t width, uint64_t* out) {
  ExtractLoop(words, start, count, width,
              [&](size_t i, uint64_t v) { out[i] = v; });
}

void UnpackDict64Scalar(const uint64_t* words, size_t start, size_t count,
                        uint32_t width, const int64_t* dict, int64_t* out) {
  ExtractLoop(words, start, count, width,
              [&](size_t i, uint64_t v) { out[i] = dict[v]; });
}

void UnpackForDeltasScalar(const uint64_t* words, size_t start, size_t count,
                           uint32_t width, int64_t base, int64_t* out) {
  const uint64_t ubase = static_cast<uint64_t>(base);
  ExtractLoop(words, start, count, width, [&](size_t i, uint64_t v) {
    out[i] = static_cast<int64_t>(ubase + v);
  });
}

void FilterPackedRangeScalar(const uint64_t* words, size_t n, uint32_t width,
                             uint64_t lo, uint64_t hi, uint64_t* bm_words) {
  const size_t n_words = (n + 63) / 64;
  for (size_t wi = 0; wi < n_words; ++wi) {
    if (bm_words[wi] == 0) continue;  // conjunction: nothing left to narrow
    const size_t row0 = wi * 64;
    const size_t m = std::min<size_t>(64, n - row0);
    uint64_t match = 0;
    ExtractLoop(words, row0, m, width, [&](size_t j, uint64_t c) {
      match |= static_cast<uint64_t>(c >= lo && c < hi) << j;
    });
    if (m < 64) match |= ~uint64_t{0} << m;  // rows >= n untouched
    bm_words[wi] &= match;
  }
}

namespace {

/// Packs eight 0/1 byte flags (little-endian in one loaded word) into bits
/// [0, 8): the multiplier places flag i's bit at position 56 + i with no
/// carry collisions (all partial-product exponents 7 + 8i + 7j are
/// distinct), so one multiply + shift replaces eight shift-or steps.
inline uint64_t PackBools8(const unsigned char* flags) {
  uint64_t x;
  std::memcpy(&x, flags, sizeof(x));
  return (x * UINT64_C(0x0102040810204080)) >> 56;
}

}  // namespace

void FilterPackedRangeMultiScalar(const uint64_t* words, size_t n,
                                  uint32_t width, const PackedPredicate* preds,
                                  size_t num_preds) {
  const size_t n_words = (n + 63) / 64;
  // Codes of one block, plus a 32-bit copy when they fit: the compare loop
  // over 32-bit lanes auto-vectorizes twice as wide.
  uint64_t buf[64];
  uint32_t buf32[64];
  unsigned char flags[64];
  const bool narrow = width <= 32;
  const uint64_t cap = narrow ? uint64_t{1} << width : 0;
  for (size_t wi = 0; wi < n_words; ++wi) {
    bool any = false;
    for (size_t p = 0; p < num_preds && !any; ++p) {
      any = preds[p].bm_words[wi] != 0;
    }
    if (!any) continue;  // conjunction: no predicate has bits left here
    const size_t row0 = wi * 64;
    const size_t m = std::min<size_t>(64, n - row0);
    UnpackBitsScalar(words, row0, m, width, buf);
    if (narrow) {
      for (size_t j = 0; j < m; ++j) {
        buf32[j] = static_cast<uint32_t>(buf[j]);
      }
    }
    // Block min/max, computed once and shared: a predicate whose interval
    // contains [bmin, bmax] matches the whole block, one that misses it
    // matches nothing — either way the per-lane compares are skipped. This
    // costs one extra pass over the block, so it only pays when several
    // predicates share the decode (and it pays enormously when the column
    // is clustered — e.g. a sorted key — where per predicate all but the
    // two boundary blocks prechecks away).
    const bool zoned = num_preds >= 3;
    uint64_t bmin = ~uint64_t{0};
    uint64_t bmax = 0;
    if (zoned) {
      for (size_t j = 0; j < m; ++j) {
        bmin = std::min(bmin, buf[j]);
        bmax = std::max(bmax, buf[j]);
      }
    }
    if (m < 64) std::memset(flags + m, 0, 64 - m);
    const uint64_t tail = m < 64 ? ~uint64_t{0} << m : uint64_t{0};
    for (size_t p = 0; p < num_preds; ++p) {
      uint64_t& word = preds[p].bm_words[wi];
      if (word == 0) continue;
      const uint64_t lo = preds[p].lo;
      uint64_t match;
      if (zoned && (lo >= preds[p].hi || bmax < lo || bmin >= preds[p].hi)) {
        match = 0;
      } else if (zoned && bmin >= lo && bmax < preds[p].hi) {
        match = ~uint64_t{0};
      } else if (narrow) {
        // Clamp the interval into the code domain [0, 2^width) so the
        // wrap-around trick (c - lo < hi - lo, all unsigned) is exact in
        // 32 bits; the full-domain interval needs no compare at all.
        const uint64_t eff_hi = std::min(preds[p].hi, cap);
        if (lo >= eff_hi) {
          match = 0;
        } else if (lo == 0 && eff_hi == cap) {
          match = ~uint64_t{0};
        } else {
          const uint32_t lo32 = static_cast<uint32_t>(lo);
          const uint32_t range32 = static_cast<uint32_t>(eff_hi - lo);
          for (size_t j = 0; j < m; ++j) {
            flags[j] = static_cast<unsigned char>(
                static_cast<uint32_t>(buf32[j] - lo32) < range32);
          }
          match = 0;
          for (size_t k = 0; k < m; k += 8) {
            match |= PackBools8(flags + k) << k;
          }
        }
      } else {
        const uint64_t hi = preds[p].hi;
        if (lo >= hi) {
          match = 0;
        } else {
          const uint64_t range = hi - lo;
          for (size_t j = 0; j < m; ++j) {
            flags[j] = static_cast<unsigned char>(buf[j] - lo < range);
          }
          match = 0;
          for (size_t k = 0; k < m; k += 8) {
            match |= PackBools8(flags + k) << k;
          }
        }
      }
      word &= match | tail;  // rows >= n untouched
    }
  }
}

}  // namespace internal

void UnpackBits(const uint64_t* words, size_t start, size_t count,
                uint32_t width, uint64_t* out) {
  HSDB_DCHECK(width >= 1 && width <= 64);
  if (count == 0) return;
#if HSDB_SIMD_X86
  switch (ActiveLevel()) {
    case SimdLevel::kAvx2:
      internal::UnpackBitsAvx2(words, start, count, width, out);
      return;
    case SimdLevel::kScalar:
      break;
  }
#endif
  internal::UnpackBitsScalar(words, start, count, width, out);
}

void UnpackDict64(const uint64_t* words, size_t start, size_t count,
                  uint32_t width, const int64_t* dict, int64_t* out) {
  HSDB_DCHECK(width >= 1 && width <= 64);
  if (count == 0) return;
#if HSDB_SIMD_X86
  switch (ActiveLevel()) {
    case SimdLevel::kAvx2:
      internal::UnpackDict64Avx2(words, start, count, width, dict, out);
      return;
    case SimdLevel::kScalar:
      break;
  }
#endif
  internal::UnpackDict64Scalar(words, start, count, width, dict, out);
}

void UnpackForDeltas(const uint64_t* words, size_t start, size_t count,
                     uint32_t width, int64_t base, int64_t* out) {
  HSDB_DCHECK(width >= 1 && width <= 64);
  if (count == 0) return;
#if HSDB_SIMD_X86
  switch (ActiveLevel()) {
    case SimdLevel::kAvx2:
      internal::UnpackForDeltasAvx2(words, start, count, width, base, out);
      return;
    case SimdLevel::kScalar:
      break;
  }
#endif
  internal::UnpackForDeltasScalar(words, start, count, width, base, out);
}

void FilterPackedRange(const uint64_t* words, size_t n, uint32_t width,
                       uint64_t lo, uint64_t hi, uint64_t* bm_words) {
  HSDB_DCHECK(width >= 1 && width <= 64);
  if (n == 0) return;
#if HSDB_SIMD_X86
  switch (ActiveLevel()) {
    case SimdLevel::kAvx2:
      internal::FilterPackedRangeAvx2(words, n, width, lo, hi, bm_words);
      return;
    case SimdLevel::kScalar:
      break;
  }
#endif
  internal::FilterPackedRangeScalar(words, n, width, lo, hi, bm_words);
}

void FilterPackedRangeMulti(const uint64_t* words, size_t n, uint32_t width,
                            const PackedPredicate* preds, size_t num_preds) {
  HSDB_DCHECK(width >= 1 && width <= 64);
  if (n == 0 || num_preds == 0) return;
  if (num_preds == 1) {
    // The fused single-predicate kernel skips the code materialization.
    FilterPackedRange(words, n, width, preds[0].lo, preds[0].hi,
                      preds[0].bm_words);
    return;
  }
#if HSDB_SIMD_X86
  switch (ActiveLevel()) {
    case SimdLevel::kAvx2:
      internal::FilterPackedRangeMultiAvx2(words, n, width, preds, num_preds);
      return;
    case SimdLevel::kScalar:
      break;
  }
#endif
  internal::FilterPackedRangeMultiScalar(words, n, width, preds, num_preds);
}

}  // namespace simd
}  // namespace compression
}  // namespace hsdb
