#include "storage/compression/simd/dispatch.h"

#include <atomic>

namespace hsdb {
namespace compression {
namespace simd {

namespace {

/// "No cap" sentinel distinct from every tier, so adding a wider tier
/// later cannot be silently capped by a default.
constexpr uint8_t kNoCap = 0xff;

std::atomic<uint8_t> g_cap{kNoCap};

}  // namespace

std::string_view SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "SCALAR";
    case SimdLevel::kAvx2:
      return "AVX2";
  }
  return "UNKNOWN";
}

SimdLevel DetectedLevel() {
#if HSDB_SIMD_X86
  static const SimdLevel level = __builtin_cpu_supports("avx2")
                                      ? SimdLevel::kAvx2
                                      : SimdLevel::kScalar;
  return level;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ActiveLevel() {
  const SimdLevel level = DetectedLevel();
  const uint8_t cap = g_cap.load(std::memory_order_relaxed);
  if (cap != kNoCap && static_cast<SimdLevel>(cap) < level) {
    return static_cast<SimdLevel>(cap);
  }
  return level;
}

std::optional<SimdLevel> SetLevelCap(std::optional<SimdLevel> cap) {
  const uint8_t previous = g_cap.exchange(
      cap.has_value() ? static_cast<uint8_t>(*cap) : kNoCap,
      std::memory_order_relaxed);
  if (previous == kNoCap) return std::nullopt;
  return static_cast<SimdLevel>(previous);
}

}  // namespace simd
}  // namespace compression
}  // namespace hsdb
