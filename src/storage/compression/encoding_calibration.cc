#include "storage/compression/encoding_calibration.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitmap.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "storage/compression/encoded_segment.h"

namespace hsdb {
namespace compression {

namespace {

/// Decode+sum pass over every row of one segment through the ranged decode
/// the served scans run (ForEachInRange under an all-set selection); the sum
/// defeats dead-code elimination via the volatile sink.
double ScanMs(const EncodedSegment<int64_t>& segment) {
  const Bitmap all(segment.size(), true);
  volatile int64_t sink = 0;
  return MedianTimeMs(
      [&] {
        int64_t sum = 0;
        segment.ForEachInRange(all, 0, segment.size(),
                               [&](size_t, int64_t v) { sum += v; });
        sink = sink + sum;
      },
      5);
}

}  // namespace

std::array<double, kNumEncodings> MeasureEncodingScanMultipliers(
    size_t rows) {
  Rng rng(20120831);  // fixed seed: probe data is part of the protocol

  // Low-cardinality spread values: natural dictionary (and raw baseline)
  // territory.
  std::vector<int64_t> low_card(rows);
  for (int64_t& v : low_card) {
    v = static_cast<int64_t>(rng.UniformInt(0, 1023)) * 1'000'003;
  }
  // Sorted copy: long runs, natural RLE territory.
  std::vector<int64_t> sorted = low_card;
  std::sort(sorted.begin(), sorted.end());
  // Dense integer domain: natural frame-of-reference territory.
  std::vector<int64_t> dense(rows);
  for (size_t i = 0; i < rows; ++i) dense[i] = static_cast<int64_t>(i);
  for (size_t i = rows; i > 1; --i) {
    std::swap(dense[i - 1], dense[rng.Index(i)]);
  }

  const auto dict =
      EncodedSegment<int64_t>::Encode(low_card, Encoding::kDictionary);
  const auto rle = EncodedSegment<int64_t>::Encode(sorted, Encoding::kRle);
  const auto fr =
      EncodedSegment<int64_t>::Encode(dense, Encoding::kFrameOfReference);
  const auto raw = EncodedSegment<int64_t>::Encode(low_card, Encoding::kRaw);

  double dict_ms = std::max(ScanMs(dict), 1e-6);
  std::array<double, kNumEncodings> multipliers;
  multipliers[static_cast<int>(Encoding::kDictionary)] = 1.0;
  multipliers[static_cast<int>(Encoding::kRle)] = ScanMs(rle) / dict_ms;
  multipliers[static_cast<int>(Encoding::kFrameOfReference)] =
      ScanMs(fr) / dict_ms;
  multipliers[static_cast<int>(Encoding::kRaw)] = ScanMs(raw) / dict_ms;
  for (double& m : multipliers) m = std::clamp(m, 0.2, 3.0);
  return multipliers;
}

std::array<double, kNumEncodings> MeasureEncodingReencodeMultipliers(
    size_t rows) {
  Rng rng(20120832);  // fixed seed: probe data is part of the protocol

  // One run-structured low-cardinality column every codec can represent, so
  // the measured difference is the codec's encode work, not the data shape.
  std::vector<int64_t> values(rows);
  for (size_t i = 0; i < rows; ++i) {
    values[i] = static_cast<int64_t>(i / 64) % 1024;
  }
  // Light shuffling keeps some run structure while defeating pathological
  // branch-prediction-friendly monotone input.
  for (size_t i = 0; i < rows / 16; ++i) {
    std::swap(values[rng.Index(rows)], values[rng.Index(rows)]);
  }

  auto encode_ms = [&](Encoding encoding) {
    volatile size_t sink = 0;
    return MedianTimeMs(
        [&] {
          auto seg = EncodedSegment<int64_t>::Encode(values, encoding);
          sink = sink + seg.payload_bytes();
        },
        5);
  };

  double dict_ms = std::max(encode_ms(Encoding::kDictionary), 1e-6);
  std::array<double, kNumEncodings> multipliers;
  multipliers[static_cast<int>(Encoding::kDictionary)] = 1.0;
  multipliers[static_cast<int>(Encoding::kRle)] =
      encode_ms(Encoding::kRle) / dict_ms;
  multipliers[static_cast<int>(Encoding::kFrameOfReference)] =
      encode_ms(Encoding::kFrameOfReference) / dict_ms;
  multipliers[static_cast<int>(Encoding::kRaw)] =
      encode_ms(Encoding::kRaw) / dict_ms;
  for (double& m : multipliers) m = std::clamp(m, 0.2, 3.0);
  return multipliers;
}

}  // namespace compression
}  // namespace hsdb
