// AVX2 tier of the packed-domain filter kernels. Two decode shapes:
//
//  - width <= 16 ("window" path): eight consecutive values span at most
//    127 bits, so one 16-byte load covers them. The window is broadcast to
//    both 128-bit halves, vpshufb gathers each value's bytes into its own
//    32-bit lane, vpsrlvd aligns the field and a mask isolates it — eight
//    codes per ~5 instructions.
//  - 17 <= width <= 32 ("gather" path): four values per iteration via a
//    byte-granular vpgatherqq (each lane loads the 8 bytes holding its
//    value), vpsrlvq + mask isolate the fields.
//
// Widths above 32 fall through to the scalar tier (they are not produced by
// realistic dictionaries/deltas and the 64-bit lanes stop paying off).
//
// All functions carry the `target("avx2")` attribute so this file compiles
// without global -mavx2; the dispatcher only calls them after a cpuid check.
#include "storage/compression/simd/kernels.h"

#if HSDB_SIMD_X86

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace hsdb {
namespace compression {
namespace simd {
namespace internal {

namespace {

#define HSDB_TARGET_AVX2 __attribute__((target("avx2")))

/// Precomputed per-call state of the window path: the vpshufb control that
/// routes window bytes into 32-bit lanes and the per-lane field shifts.
/// Valid for any value index congruent to `start` modulo 8 (the bit phase
/// within the window's first byte repeats every 8 values).
struct WindowPlan {
  alignas(32) uint8_t shuffle[32];
  alignas(32) uint32_t shifts[8];
};

WindowPlan MakeWindowPlan(size_t start, uint32_t width) {
  WindowPlan plan;
  const uint32_t phase = static_cast<uint32_t>((start * width) & 7);
  for (uint32_t j = 0; j < 8; ++j) {
    const uint32_t r = phase + j * width;
    plan.shifts[j] = r & 7;
    const uint32_t s = r >> 3;
    for (uint32_t k = 0; k < 4; ++k) {
      const uint32_t idx = s + k;
      // Byte layout of the vpshufb control: lane j of each 128-bit half
      // reads from the same broadcast window; indexes past the 16-byte
      // window select zero (safe: those bits are masked out anyway).
      const uint32_t pos = (j / 4) * 16 + (j % 4) * 4 + k;
      plan.shuffle[pos] = idx <= 15 ? static_cast<uint8_t>(idx) : 0x80;
    }
  }
  return plan;
}

/// Decodes the eight codes at value indexes [v, v+8) into 32-bit lanes.
/// `ctrl`/`vshift` must come from a WindowPlan whose phase matches v mod 8.
HSDB_TARGET_AVX2 inline __m256i DecodeWindow(const unsigned char* bytes,
                                             size_t v, uint32_t width,
                                             __m256i ctrl, __m256i vshift,
                                             __m256i vmask) {
  const __m128i win = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(bytes + ((v * width) >> 3)));
  const __m256i grp =
      _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(win), ctrl);
  return _mm256_and_si256(_mm256_srlv_epi32(grp, vshift), vmask);
}

/// Gather-path state (17 <= width <= 32): per-lane bit cursors plus the
/// constants the decode step needs.
struct GatherPlan {
  __m256i vbit;   // bit offset of each lane's next value
  __m256i vstep;  // 4 * width
  __m256i v7;
  __m256i vmask;
};

HSDB_TARGET_AVX2 inline GatherPlan MakeGatherPlan(size_t start,
                                                  uint32_t width) {
  const uint64_t w = width;
  GatherPlan plan;
  plan.vbit =
      _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(start * w)),
                       _mm256_set_epi64x(3 * w, 2 * w, w, 0));
  plan.vstep = _mm256_set1_epi64x(static_cast<long long>(4 * w));
  plan.v7 = _mm256_set1_epi64x(7);
  plan.vmask = _mm256_set1_epi64x((uint64_t{1} << width) - 1);
  return plan;
}

/// Decodes the four codes at the plan's cursor into 64-bit lanes (one
/// byte-granular 8-byte load per lane) and advances the cursor.
HSDB_TARGET_AVX2 inline __m256i DecodeGatherQuad(const unsigned char* bytes,
                                                 GatherPlan& plan) {
  const __m256i voff = _mm256_srli_epi64(plan.vbit, 3);
  const __m256i vsh = _mm256_and_si256(plan.vbit, plan.v7);
  __m256i v = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(bytes), voff, 1);
  v = _mm256_and_si256(_mm256_srlv_epi64(v, vsh), plan.vmask);
  plan.vbit = _mm256_add_epi64(plan.vbit, plan.vstep);
  return v;
}

}  // namespace

HSDB_TARGET_AVX2
void FilterPackedRangeAvx2(const uint64_t* words, size_t n, uint32_t width,
                           uint64_t lo, uint64_t hi, uint64_t* bm_words) {
  if (width > 32) {
    FilterPackedRangeScalar(words, n, width, lo, hi, bm_words);
    return;
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(words);
  const size_t n_words = (n + 63) / 64;
  const size_t full_words = n / 64;
  if (width <= 16) {
    // Codes fit 16 bits, so the interval bounds can be clamped into the
    // signed 32-bit lane domain without changing any comparison result.
    const uint64_t cap = uint64_t{1} << 17;
    const __m256i vlo =
        _mm256_set1_epi32(static_cast<int>(std::min(lo, cap)));
    const __m256i vhi =
        _mm256_set1_epi32(static_cast<int>(std::min(hi, cap)));
    // Row 0 starts the packing, so the window phase is 0 for every group
    // of eight rows (64*width bits per bitmap word is byte-aligned).
    const WindowPlan plan = MakeWindowPlan(0, width);
    const __m256i ctrl =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(plan.shuffle));
    const __m256i vshift =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(plan.shifts));
    const __m256i vmask = _mm256_set1_epi32((1 << width) - 1);
    for (size_t wi = 0; wi < full_words; ++wi) {
      if (bm_words[wi] == 0) continue;
      const size_t row0 = wi * 64;
      uint64_t match = 0;
      for (uint32_t k = 0; k < 8; ++k) {
        const __m256i codes = DecodeWindow(bytes, row0 + 8 * k, width,
                                           ctrl, vshift, vmask);
        const __m256i keep = _mm256_andnot_si256(
            _mm256_cmpgt_epi32(vlo, codes), _mm256_cmpgt_epi32(vhi, codes));
        const auto m8 = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(keep)));
        match |= static_cast<uint64_t>(m8) << (8 * k);
      }
      bm_words[wi] &= match;
    }
  } else {
    // Codes fit 32 bits: clamp the bounds into the signed 64-bit domain.
    const uint64_t cap = uint64_t{1} << 33;
    const __m256i vlo = _mm256_set1_epi64x(
        static_cast<long long>(std::min(lo, cap)));
    const __m256i vhi = _mm256_set1_epi64x(
        static_cast<long long>(std::min(hi, cap)));
    for (size_t wi = 0; wi < full_words; ++wi) {
      if (bm_words[wi] == 0) continue;
      const size_t row0 = wi * 64;
      uint64_t match = 0;
      GatherPlan plan = MakeGatherPlan(row0, width);
      for (uint32_t k = 0; k < 16; ++k) {
        const __m256i codes = DecodeGatherQuad(bytes, plan);
        const __m256i keep = _mm256_andnot_si256(
            _mm256_cmpgt_epi64(vlo, codes), _mm256_cmpgt_epi64(vhi, codes));
        const auto m4 = static_cast<uint32_t>(
            _mm256_movemask_pd(_mm256_castsi256_pd(keep)));
        match |= static_cast<uint64_t>(m4) << (4 * k);
      }
      bm_words[wi] &= match;
    }
  }
  // Partial trailing bitmap word: scalar, preserving bits at or past n.
  if (full_words < n_words && bm_words[full_words] != 0) {
    const size_t row0 = full_words * 64;
    const size_t m = n - row0;
    uint64_t buf[64];
    ExtractLoop(words, row0, m, width,
                [&](size_t j, uint64_t c) { buf[j] = c; });
    uint64_t match = ~uint64_t{0} << m;
    for (size_t j = 0; j < m; ++j) {
      match |= static_cast<uint64_t>(buf[j] >= lo && buf[j] < hi) << j;
    }
    bm_words[full_words] &= match;
  }
}

HSDB_TARGET_AVX2
void FilterPackedRangeMultiAvx2(const uint64_t* words, size_t n,
                                uint32_t width, const PackedPredicate* preds,
                                size_t num_preds) {
  if (width > 32) {
    FilterPackedRangeMultiScalar(words, n, width, preds, num_preds);
    return;
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(words);
  const size_t n_words = (n + 63) / 64;
  const size_t full_words = n / 64;
  if (width <= 16) {
    // Window path: decode each 64-row block once into eight 8-lane vectors
    // (codes in 32-bit lanes), then every predicate compares against the
    // decoded block — the decode cost is paid once per block, not once per
    // predicate. Bounds clamp into the signed 32-bit lane domain exactly as
    // in FilterPackedRangeAvx2.
    const uint64_t cap = uint64_t{1} << 17;
    const WindowPlan plan = MakeWindowPlan(0, width);
    const __m256i ctrl =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(plan.shuffle));
    const __m256i vshift =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(plan.shifts));
    const __m256i vmask = _mm256_set1_epi32((1 << width) - 1);
    for (size_t wi = 0; wi < full_words; ++wi) {
      bool any = false;
      for (size_t p = 0; p < num_preds && !any; ++p) {
        any = preds[p].bm_words[wi] != 0;
      }
      if (!any) continue;
      const size_t row0 = wi * 64;
      __m256i codes[8];
      for (uint32_t k = 0; k < 8; ++k) {
        codes[k] = DecodeWindow(bytes, row0 + 8 * k, width, ctrl, vshift,
                                vmask);
      }
      // Block min/max, shared by every predicate: fully-contained and
      // fully-missed blocks skip the per-lane compares (see the generic
      // kernel). One min+max pass costs about as much as one predicate's
      // compare pass, so it pays from a few predicates up.
      uint64_t bmin = 0;
      uint64_t bmax = ~uint64_t{0};
      const bool zoned = num_preds >= 3;
      if (zoned) {
        __m256i vmn = codes[0];
        __m256i vmx = codes[0];
        for (uint32_t k = 1; k < 8; ++k) {
          vmn = _mm256_min_epu32(vmn, codes[k]);
          vmx = _mm256_max_epu32(vmx, codes[k]);
        }
        alignas(32) uint32_t mn[8], mx[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(mn), vmn);
        _mm256_store_si256(reinterpret_cast<__m256i*>(mx), vmx);
        bmin = mn[0];
        bmax = mx[0];
        for (int j = 1; j < 8; ++j) {
          bmin = std::min<uint64_t>(bmin, mn[j]);
          bmax = std::max<uint64_t>(bmax, mx[j]);
        }
      }
      for (size_t p = 0; p < num_preds; ++p) {
        uint64_t& word = preds[p].bm_words[wi];
        if (word == 0) continue;
        if (zoned) {
          if (preds[p].lo >= preds[p].hi || bmax < preds[p].lo ||
              bmin >= preds[p].hi) {
            word = 0;
            continue;
          }
          if (bmin >= preds[p].lo && bmax < preds[p].hi) continue;
        }
        const __m256i vlo =
            _mm256_set1_epi32(static_cast<int>(std::min(preds[p].lo, cap)));
        const __m256i vhi =
            _mm256_set1_epi32(static_cast<int>(std::min(preds[p].hi, cap)));
        uint64_t match = 0;
        for (uint32_t k = 0; k < 8; ++k) {
          const __m256i keep =
              _mm256_andnot_si256(_mm256_cmpgt_epi32(vlo, codes[k]),
                                  _mm256_cmpgt_epi32(vhi, codes[k]));
          const auto m8 = static_cast<uint32_t>(
              _mm256_movemask_ps(_mm256_castsi256_ps(keep)));
          match |= static_cast<uint64_t>(m8) << (8 * k);
        }
        word &= match;
      }
    }
  } else {
    // Gather path (17 <= width <= 32): the byte-granular gathers dominate,
    // so sharing the decoded block across predicates pays off the most
    // here. Bounds clamp into the signed 64-bit lane domain.
    const uint64_t cap = uint64_t{1} << 33;
    for (size_t wi = 0; wi < full_words; ++wi) {
      bool any = false;
      for (size_t p = 0; p < num_preds && !any; ++p) {
        any = preds[p].bm_words[wi] != 0;
      }
      if (!any) continue;
      const size_t row0 = wi * 64;
      __m256i codes[16];
      GatherPlan plan = MakeGatherPlan(row0, width);
      for (uint32_t k = 0; k < 16; ++k) {
        codes[k] = DecodeGatherQuad(bytes, plan);
      }
      // Block min/max shared by every predicate (see the window path). The
      // codes sit in 64-bit lanes with zeroed high dwords (width <= 32), so
      // the 32-bit unsigned min/max of the lane pairs IS the 64-bit min/max:
      // high dwords stay zero and low dwords reduce correctly.
      uint64_t bmin = 0;
      uint64_t bmax = ~uint64_t{0};
      const bool zoned = num_preds >= 3;
      if (zoned) {
        __m256i vmn = codes[0];
        __m256i vmx = codes[0];
        for (uint32_t k = 1; k < 16; ++k) {
          vmn = _mm256_min_epu32(vmn, codes[k]);
          vmx = _mm256_max_epu32(vmx, codes[k]);
        }
        alignas(32) uint64_t mn[4], mx[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(mn), vmn);
        _mm256_store_si256(reinterpret_cast<__m256i*>(mx), vmx);
        bmin = std::min(std::min(mn[0], mn[1]), std::min(mn[2], mn[3]));
        bmax = std::max(std::max(mx[0], mx[1]), std::max(mx[2], mx[3]));
      }
      for (size_t p = 0; p < num_preds; ++p) {
        uint64_t& word = preds[p].bm_words[wi];
        if (word == 0) continue;
        if (zoned) {
          if (preds[p].lo >= preds[p].hi || bmax < preds[p].lo ||
              bmin >= preds[p].hi) {
            word = 0;
            continue;
          }
          if (bmin >= preds[p].lo && bmax < preds[p].hi) continue;
        }
        const __m256i vlo = _mm256_set1_epi64x(
            static_cast<long long>(std::min(preds[p].lo, cap)));
        const __m256i vhi = _mm256_set1_epi64x(
            static_cast<long long>(std::min(preds[p].hi, cap)));
        uint64_t match = 0;
        for (uint32_t k = 0; k < 16; ++k) {
          const __m256i keep =
              _mm256_andnot_si256(_mm256_cmpgt_epi64(vlo, codes[k]),
                                  _mm256_cmpgt_epi64(vhi, codes[k]));
          const auto m4 = static_cast<uint32_t>(
              _mm256_movemask_pd(_mm256_castsi256_pd(keep)));
          match |= static_cast<uint64_t>(m4) << (4 * k);
        }
        word &= match;
      }
    }
  }
  // Partial trailing bitmap word: one scalar decode shared by every
  // predicate, preserving bits at or past n.
  if (full_words < n_words) {
    const size_t row0 = full_words * 64;
    const size_t m = n - row0;
    uint64_t buf[64];
    bool decoded = false;
    for (size_t p = 0; p < num_preds; ++p) {
      uint64_t& word = preds[p].bm_words[full_words];
      if (word == 0) continue;
      if (!decoded) {
        ExtractLoop(words, row0, m, width,
                [&](size_t j, uint64_t c) { buf[j] = c; });
        decoded = true;
      }
      uint64_t match = ~uint64_t{0} << m;
      for (size_t j = 0; j < m; ++j) {
        match |= static_cast<uint64_t>(buf[j] >= preds[p].lo &&
                                       buf[j] < preds[p].hi)
                 << j;
      }
      word &= match;
    }
  }
}

#undef HSDB_TARGET_AVX2

}  // namespace internal
}  // namespace simd
}  // namespace compression
}  // namespace hsdb

#endif  // HSDB_SIMD_X86
