// Public dispatchers + the scalar tier of the packed-domain filter kernels.
// The scalar tier is the portable reference implementation, built on the
// shared code extraction (ExtractLoop, kernels.h).
#include "storage/compression/simd/bitunpack.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "storage/compression/simd/kernels.h"

namespace hsdb {
namespace compression {
namespace simd {
namespace internal {

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
    ExtractLoop(words, row0, m, width,
                [&](size_t j, uint64_t c) { buf[j] = c; });
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
