// Runtime SIMD dispatch for the packed-domain filter kernels
// (storage/compression/simd/bitunpack.h). The kernels are compiled in two
// tiers — AVX2 and a portable scalar fallback — and every public entry
// point selects AVX2 at runtime when the CPU supports it, so one binary
// runs everywhere and uses the widest units available.
//
// Force-scalar switches (the fallback path must stay testable everywhere):
//   - compile time: -DHSDB_FORCE_SCALAR=ON (CMake option) compiles the AVX2
//     tier out entirely — the build contains only the scalar kernels.
//   - per scope: ScopedSimdLevel caps the tier programmatically
//     (equivalence tests, benchmarks comparing tiers).
#ifndef HSDB_STORAGE_COMPRESSION_SIMD_DISPATCH_H_
#define HSDB_STORAGE_COMPRESSION_SIMD_DISPATCH_H_

#include <cstdint>
#include <optional>
#include <string_view>

// True when the x86 SIMD tier is compiled into this binary. The kernels
// use GCC/Clang `target` function attributes, so no global -mavx2 flags are
// needed and the binary still runs on CPUs without AVX2.
#if !defined(HSDB_FORCE_SCALAR) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
#define HSDB_SIMD_X86 1
#else
#define HSDB_SIMD_X86 0
#endif

namespace hsdb {
namespace compression {
namespace simd {

/// Kernel tiers, ordered: a CPU supporting a tier supports all lower ones.
enum class SimdLevel : uint8_t {
  kScalar = 0,  ///< portable fallback, compiled on every platform
  kAvx2 = 1,    ///< 256-bit: vpshufb + variable shifts, gathers
};

/// "SCALAR", "AVX2" (benchmark labels, logs).
std::string_view SimdLevelName(SimdLevel level);

/// Best tier this CPU supports (cpuid probe, cached). Always kScalar on
/// non-x86 builds and under -DHSDB_FORCE_SCALAR.
SimdLevel DetectedLevel();

/// Tier the kernels actually dispatch to: DetectedLevel() capped by
/// SetLevelCap.
SimdLevel ActiveLevel();

/// Caps ActiveLevel() at `cap` (nullopt removes the cap). Returns the
/// previously set cap so scoped users can restore it. Test/benchmark hook —
/// not thread-safe against concurrent scans.
std::optional<SimdLevel> SetLevelCap(std::optional<SimdLevel> cap);

/// RAII tier cap: forces ActiveLevel() <= `cap` for the scope's lifetime,
/// then restores the previous cap. Nested guards compose — the effective
/// cap only tightens, so an inner guard with a looser cap cannot un-cap an
/// outer scalar-forced scope.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel cap) : previous_(SetLevelCap(cap)) {
    if (previous_.has_value() && *previous_ < cap) {
      SetLevelCap(previous_);  // keep the tighter enclosing cap
    }
  }
  ~ScopedSimdLevel() { SetLevelCap(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  std::optional<SimdLevel> previous_;
};

}  // namespace simd
}  // namespace compression
}  // namespace hsdb

#endif  // HSDB_STORAGE_COMPRESSION_SIMD_DISPATCH_H_
