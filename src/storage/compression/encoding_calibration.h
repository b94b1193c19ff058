// Per-codec decode microprobes: measure the scan throughput of each column
// codec's ranged decode (ForEachInRange, the one decode form scans run) on a
// column shaped for it (the data a sane picker would give that codec) and
// return scan-cost multipliers normalized to the
// dictionary codec = 1. The calibration step (core/calibration.cc) installs
// the result as StoreCostParams::c_encoding_scan, so the advisor costs
// compressed column-store scans with the throughput this machine actually
// delivers.
#ifndef HSDB_STORAGE_COMPRESSION_ENCODING_CALIBRATION_H_
#define HSDB_STORAGE_COMPRESSION_ENCODING_CALIBRATION_H_

#include <array>
#include <cstddef>

#include "storage/compression/encoding.h"

namespace hsdb {
namespace compression {

/// Encodes `rows` synthetic INT64 values per codec and times a decode+sum
/// pass over every row (median of a few repetitions). Returns multipliers
/// normalized to the dictionary codec, clamped to a sane range.
std::array<double, kNumEncodings> MeasureEncodingScanMultipliers(
    size_t rows = 1 << 17);

/// Times a full profile+encode pass per codec over the same run-structured
/// column — the work a delta merge repeats for every column segment.
/// Returns multipliers normalized to the dictionary codec, clamped to a
/// sane range; installed as StoreCostParams::c_encoding_reencode so the
/// advisor's insert term reflects the merge cost of each codec choice.
std::array<double, kNumEncodings> MeasureEncodingReencodeMultipliers(
    size_t rows = 1 << 16);

}  // namespace compression
}  // namespace hsdb

#endif  // HSDB_STORAGE_COMPRESSION_ENCODING_CALIBRATION_H_
