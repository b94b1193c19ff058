// Packed-domain filter kernels for the bit-packed paths of the column
// codecs. The dictionary codec stores bit-packed value ids and the
// frame-of-reference codec bit-packed deltas (common/bitpack.h); these
// kernels evaluate range predicates on the packed codes with
// runtime-dispatched (AVX2 / scalar, storage/compression/simd/dispatch.h)
// routines:
//
//   FilterPackedRange   predicate evaluation directly on the packed codes:
//                       compare against a translated literal interval and
//                       narrow a selection bitmap, no value materialization
//   FilterPackedRangeMulti
//                       shared-scan form of FilterPackedRange: one decode
//                       pass over the packed codes fans out to N predicate
//                       intervals, each narrowing its own selection bitmap
//
// Value decode has no kernel: the codecs' ForEachInRange reads one packed
// code per selected row (BitPackedVector::Get), which beats unpacking whole
// 64-row words at the selectivities scans run with.
//
// Shared contract ("packed layout"): values are unsigned `width`-bit
// integers (1 <= width <= 64) packed back to back, value i occupying bits
// [i*width, (i+1)*width) of the little-endian word array `words`. The array
// must stay readable for at least TWO 64-bit words past the word holding
// the first bit of the last touched value — the AVX2 tier reads whole
// 16-byte windows. BitPackedVector guarantees exactly this slack; hand-built
// arrays (tests) must over-allocate kPackedSlackWords words.
#ifndef HSDB_STORAGE_COMPRESSION_SIMD_BITUNPACK_H_
#define HSDB_STORAGE_COMPRESSION_SIMD_BITUNPACK_H_

#include <cstddef>
#include <cstdint>

#include "storage/compression/simd/dispatch.h"

namespace hsdb {
namespace compression {
namespace simd {

/// Trailing 64-bit words a packed array must keep readable past the word
/// holding the last value's first bit (see the layout contract above).
inline constexpr size_t kPackedSlackWords = 2;

/// Predicate evaluation on the packed codes: narrows the selection bitmap
/// `bm_words` (word i covers rows [64i, 64i+64)) to rows whose code lies in
/// the half-open interval [lo, hi), over rows [0, n). Conjunction
/// semantics: already-cleared bits stay cleared, bits at or beyond `n` are
/// untouched, and all-zero bitmap words are skipped without decoding.
/// `bm_words` must cover at least `n` bits.
void FilterPackedRange(const uint64_t* words, size_t n, uint32_t width,
                       uint64_t lo, uint64_t hi, uint64_t* bm_words);

/// One predicate of a shared scan: the half-open code interval [lo, hi)
/// and the selection bitmap it narrows. Bitmap word i covers rows
/// [64i, 64i+64); distinct predicates may alias the same bitmap only if
/// the caller accepts the conjunction of their intervals.
struct PackedPredicate {
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t* bm_words = nullptr;
};

/// Shared-scan predicate evaluation: decodes every 64-row block of the
/// packed codes at most once and narrows each predicate's bitmap to its
/// interval, over rows [0, n). Per predicate the result is bit-identical
/// to FilterPackedRange(words, n, width, p.lo, p.hi, p.bm_words),
/// including the conjunction semantics and the bits-at-or-beyond-n
/// guarantee. A block is skipped entirely when every predicate's bitmap
/// word for it is already zero.
void FilterPackedRangeMulti(const uint64_t* words, size_t n, uint32_t width,
                            const PackedPredicate* preds, size_t num_preds);

}  // namespace simd
}  // namespace compression
}  // namespace hsdb

#endif  // HSDB_STORAGE_COMPRESSION_SIMD_BITUNPACK_H_
