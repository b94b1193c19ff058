// Internal per-tier entry points of the bit-unpack kernels. The public
// dispatchers in bitunpack.cc select among these by ActiveLevel(); each
// tier's functions live in their own translation unit so the SIMD bodies
// carry `target` attributes without global ISA flags. Not an installed
// header — include bitunpack.h instead.
#ifndef HSDB_STORAGE_COMPRESSION_SIMD_KERNELS_H_
#define HSDB_STORAGE_COMPRESSION_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "storage/compression/simd/bitunpack.h"
#include "storage/compression/simd/dispatch.h"

namespace hsdb {
namespace compression {
namespace simd {
namespace internal {

// Scalar tier (bitunpack.cc): the portable reference the AVX2 tier must
// match bit for bit. Handles all widths 1..64.
void UnpackBitsScalar(const uint64_t* words, size_t start, size_t count,
                      uint32_t width, uint64_t* out);
void UnpackDict64Scalar(const uint64_t* words, size_t start, size_t count,
                        uint32_t width, const int64_t* dict, int64_t* out);
void UnpackForDeltasScalar(const uint64_t* words, size_t start, size_t count,
                           uint32_t width, int64_t base, int64_t* out);
void FilterPackedRangeScalar(const uint64_t* words, size_t n, uint32_t width,
                             uint64_t lo, uint64_t hi, uint64_t* bm_words);
void FilterPackedRangeMultiScalar(const uint64_t* words, size_t n,
                                  uint32_t width, const PackedPredicate* preds,
                                  size_t num_preds);

#if HSDB_SIMD_X86
// AVX2 tier (bitunpack_avx2.cc): vpshufb + vpsrlvd for widths <= 16, 64-bit
// gathers + vpsrlvq for widths 17..32; wider widths fall through to the
// scalar tier internally.
void UnpackBitsAvx2(const uint64_t* words, size_t start, size_t count,
                    uint32_t width, uint64_t* out);
void UnpackDict64Avx2(const uint64_t* words, size_t start, size_t count,
                      uint32_t width, const int64_t* dict, int64_t* out);
void UnpackForDeltasAvx2(const uint64_t* words, size_t start, size_t count,
                         uint32_t width, int64_t base, int64_t* out);
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
