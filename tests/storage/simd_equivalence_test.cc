// SIMD/scalar equivalence: property-style tests asserting that every
// dispatch tier the CPU supports produces bit-identical selection bitmaps
// for all packed bit widths 1..32 (plus scalar-only wide widths), including
// unaligned lengths and tail elements, and that the segments' decode and
// filters agree across tiers. The scalar tier is the reference; under
// -DHSDB_FORCE_SCALAR or on non-AVX2 hardware the AVX2 tier is skipped
// automatically (DetectedLevel caps the list), so the suite is green on
// every platform.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/bitmap.h"
#include "common/bitpack.h"
#include "common/random.h"
#include "storage/compression/encoded_segment.h"
#include "storage/compression/simd/bitunpack.h"

namespace hsdb {
namespace compression {
namespace {

using simd::DetectedLevel;
using simd::ScopedSimdLevel;
using simd::SimdLevel;

/// Dispatch tiers this machine can run, lowest first.
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

uint64_t MaskOf(uint32_t width) {
  return width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

/// Packed vector of `n` random width-bit values (plus the slack words the
/// kernels' contract requires, via BitPackedVector).
BitPackedVector RandomPacked(uint32_t width, size_t n, uint64_t seed,
                             std::vector<uint64_t>* expected) {
  Rng rng(seed);
  BitPackedVector packed(width);
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = rng.Next() & MaskOf(width);
    packed.Append(v);
    expected->push_back(v);
  }
  return packed;
}

class SimdEquivalence : public ::testing::TestWithParam<uint32_t> {};

/// Checks a segment's ranged decode against `values` under every tier: an
/// all-set selection from unaligned starts (every window phase, tails) and a
/// sparse selection. The ranged decode reads one packed code per selected
/// row and has no tiered kernel of its own; the tier loop pins that any
/// future one must decode identically.
template <typename Segment>
void ExpectRangedDecode(const Segment& segment,
                        const std::vector<int64_t>& values, uint32_t width,
                        uint64_t seed) {
  const size_t n = values.size();
  ASSERT_EQ(segment.size(), n);
  const Bitmap all(n, true);
  Bitmap sparse(n, false);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Chance(0.27)) sparse.Set(i);
  }
  const size_t starts[] = {0, 1, 7, 8, 13, 64, n - 1, n};
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    for (size_t start : starts) {
      size_t next = start;
      segment.ForEachInRange(all, start, n, [&](size_t i, int64_t v) {
        ASSERT_EQ(i, next) << "level=" << static_cast<int>(level)
                           << " width=" << width << " start=" << start;
        ASSERT_EQ(v, values[i]) << "level=" << static_cast<int>(level)
                                << " width=" << width << " i=" << i;
        ++next;
      });
      EXPECT_EQ(next, n) << "width=" << width << " start=" << start;
    }
    size_t visited = 0;
    segment.ForEachInRange(sparse, 0, n, [&](size_t i, int64_t v) {
      ASSERT_TRUE(sparse.Test(i)) << "width=" << width << " i=" << i;
      ASSERT_EQ(v, values[i]) << "level=" << static_cast<int>(level)
                              << " width=" << width << " i=" << i;
      ++visited;
    });
    EXPECT_EQ(visited, sparse.Count()) << "width=" << width;
  }
}

TEST_P(SimdEquivalence, UnpackBitsMatchesGetAcrossTiers) {
  const uint32_t width = GetParam();
  // Deliberately not a multiple of any vector block; exercises the tail.
  const size_t n = 1000 + width * 7 + 3;
  std::vector<uint64_t> codes;
  RandomPacked(width, n, width * 7919 + 1, &codes);
  // Below width 64 a zero code pins the frame's base at 0, so the segment's
  // packed deltas are the codes themselves and the ranged decode unpacks
  // them (at width 64 the codes wrap to negative values and shift the base).
  codes[0] = 0;
  std::vector<int64_t> values(codes.begin(), codes.end());
  const auto codec = ForCodec<int64_t>::Encode(values);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(static_cast<uint64_t>(codec.Get(i)), codes[i]) << "i=" << i;
  }
  ExpectRangedDecode(codec, values, width, width * 7919 + 2);
}

TEST_P(SimdEquivalence, ForReconstructionMatchesAcrossTiers) {
  const uint32_t width = GetParam();
  const size_t n = 777 + width * 5;
  std::vector<uint64_t> codes;
  RandomPacked(width, n, width * 104729 + 2, &codes);

  // Negative and positive bases, including one that wraps intermediate
  // sums through the unsigned domain.
  const int64_t bases[] = {0, 42, -12345, int64_t{-1} << 40};
  for (int64_t base : bases) {
    std::vector<int64_t> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] =
          static_cast<int64_t>(static_cast<uint64_t>(base) + codes[i]);
    }
    const auto segment =
        EncodedSegment<int64_t>::Encode(values, Encoding::kFrameOfReference);
    ExpectRangedDecode(segment, values, width, width * 104729 + 3);
  }
}

TEST_P(SimdEquivalence, DictMaterializationMatchesAcrossTiers) {
  const uint32_t width = GetParam();
  if (width > 24) return;  // 2^width dictionary entries get too large
  const size_t n = 500 + width * 11;
  std::vector<uint64_t> codes;
  RandomPacked(width, n, width * 31 + 3, &codes);

  Rng rng(width * 17 + 4);
  std::vector<int64_t> dict(size_t{1} << width);
  for (int64_t& d : dict) d = static_cast<int64_t>(rng.Next());
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = dict[codes[i]];
  const auto segment =
      EncodedSegment<int64_t>::Encode(values, Encoding::kDictionary);
  ExpectRangedDecode(segment, values, width, width * 31 + 5);
}

TEST_P(SimdEquivalence, FilterPackedRangeMatchesAcrossTiers) {
  const uint32_t width = GetParam();
  // Covers several full bitmap words plus a partial trailing word.
  const size_t n = 64 * 3 + 17 + width;
  std::vector<uint64_t> expected;
  BitPackedVector packed = RandomPacked(width, n, width * 6151 + 5,
                                        &expected);

  const uint64_t top = MaskOf(width);
  struct Interval {
    uint64_t lo, hi;
  };
  const Interval intervals[] = {
      {0, top + 1},            // everything matches (modulo width-64 wrap)
      {0, 0},                  // nothing matches
      {top / 3, 2 * top / 3},  // middle band
      {top, top + 1},          // single top code
      {5, 3},                  // inverted: nothing matches
  };

  Rng rng(width * 13 + 6);
  for (const Interval& iv : intervals) {
    // A sparse pre-narrowed bitmap (conjunction input) and a dense one.
    for (int dense = 0; dense < 2; ++dense) {
      Bitmap input(n + 70);  // longer than the segment: tail bits untouched
      for (size_t i = 0; i < input.size(); ++i) {
        if (dense != 0 || rng.Next() % 3 == 0) input.Set(i);
      }
      // Reference result from the expected values.
      Bitmap reference = input;
      for (size_t i = 0; i < n; ++i) {
        if (!(expected[i] >= iv.lo && expected[i] < iv.hi)) {
          reference.Clear(i);
        }
      }
      for (SimdLevel level : AvailableLevels()) {
        ScopedSimdLevel guard(level);
        Bitmap bm = input;
        simd::FilterPackedRange(packed.words(), n, width, iv.lo, iv.hi,
                                bm.mutable_words());
        for (size_t i = 0; i < bm.size(); ++i) {
          ASSERT_EQ(bm.Test(i), reference.Test(i))
              << "level=" << static_cast<int>(level) << " width=" << width
              << " lo=" << iv.lo << " hi=" << iv.hi << " dense=" << dense
              << " i=" << i;
        }
      }
    }
  }
}

TEST_P(SimdEquivalence, FilterPackedRangeMultiMatchesSinglePredicate) {
  const uint32_t width = GetParam();
  // Covers several full bitmap words plus a partial trailing word.
  const size_t n = 64 * 5 + 29 + width;
  std::vector<uint64_t> expected;
  BitPackedVector packed = RandomPacked(width, n, width * 7907 + 7,
                                        &expected);

  const uint64_t top = MaskOf(width);
  // A batch mixing every interval shape, including degenerate ones, plus
  // more bands than any vector block holds.
  std::vector<std::pair<uint64_t, uint64_t>> intervals = {
      {0, top == ~uint64_t{0} ? top : top + 1},  // (almost) everything
      {0, 0},                                    // nothing
      {top, top + 1},                            // single top code
      {9, 4},                                    // inverted: nothing
  };
  for (uint64_t b = 0; b < 12; ++b) {
    intervals.emplace_back(b * top / 16, (b + 5) * top / 16);
  }

  Rng rng(width * 23 + 8);
  // Per-predicate input bitmaps: dense, sparse and one all-zero (the skip
  // path must leave it untouched and must not suppress the others).
  std::vector<Bitmap> inputs;
  for (size_t p = 0; p < intervals.size(); ++p) {
    Bitmap input(n + 70);  // longer than the segment: tail bits untouched
    if (p % 4 != 3) {
      for (size_t i = 0; i < input.size(); ++i) {
        if (p % 4 == 0 || rng.Next() % 3 == 0) input.Set(i);
      }
    }
    inputs.push_back(std::move(input));
  }

  // Reference: the fused single-predicate scalar kernel, per predicate.
  std::vector<Bitmap> reference = inputs;
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    for (size_t p = 0; p < intervals.size(); ++p) {
      simd::FilterPackedRange(packed.words(), n, width, intervals[p].first,
                              intervals[p].second,
                              reference[p].mutable_words());
    }
  }

  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    std::vector<Bitmap> bms = inputs;
    std::vector<simd::PackedPredicate> preds(intervals.size());
    for (size_t p = 0; p < intervals.size(); ++p) {
      preds[p] = {intervals[p].first, intervals[p].second,
                  bms[p].mutable_words()};
    }
    simd::FilterPackedRangeMulti(packed.words(), n, width, preds.data(),
                                 preds.size());
    for (size_t p = 0; p < intervals.size(); ++p) {
      for (size_t i = 0; i < bms[p].size(); ++i) {
        ASSERT_EQ(bms[p].Test(i), reference[p].Test(i))
            << "level=" << static_cast<int>(level) << " width=" << width
            << " pred=" << p << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPackedWidths, SimdEquivalence,
                         ::testing::Range(1u, 33u));
// Wide widths always take the scalar path inside every tier; keep them
// covered so the fallthrough cannot rot.
INSTANTIATE_TEST_SUITE_P(WideWidths, SimdEquivalence,
                         ::testing::Values(33u, 40u, 48u, 57u, 63u, 64u));

// Segment-level equivalence: the production entry points (EncodedSegment
// ForEachInRange / FilterRangeSlice) must produce identical scans and
// selections on every tier, for every codec that touches the bit-packed
// paths.
class SegmentTierEquivalence : public ::testing::TestWithParam<Encoding> {};

TEST_P(SegmentTierEquivalence, ScanAndFilterMatchAcrossTiers) {
  const Encoding encoding = GetParam();
  Rng rng(20260731);
  std::vector<int64_t> values(10'000 + 37);
  for (int64_t& v : values) {
    v = static_cast<int64_t>(rng.UniformInt(0, 5000)) - 1000;
  }
  std::sort(values.begin(), values.begin() + values.size() / 2);  // runs
  const auto segment = EncodedSegment<int64_t>::Encode(values, encoding);

  BoundsPred<int64_t> pred;
  pred.has_lo = pred.has_hi = true;
  pred.lo = -500.0;
  pred.hi = 2500.0;

  std::vector<int64_t> reference_scan;
  Bitmap reference_bm;
  bool first = true;
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    std::vector<int64_t> scan;
    const Bitmap all(values.size(), true);
    segment.ForEachInRange(all, 0, values.size(), [&](size_t i, int64_t v) {
      ASSERT_EQ(i, scan.size());
      scan.push_back(v);
    });
    Bitmap bm(values.size(), true);
    segment.FilterRangeSlice(pred, &bm, 0, values.size());
    if (first) {
      reference_scan = std::move(scan);
      reference_bm = std::move(bm);
      first = false;
      ASSERT_EQ(reference_scan.size(), values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        ASSERT_EQ(reference_scan[i], values[i]) << "i=" << i;
      }
      continue;
    }
    ASSERT_EQ(scan, reference_scan)
        << "level=" << static_cast<int>(level);
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(bm.Test(i), reference_bm.Test(i))
          << "level=" << static_cast<int>(level) << " i=" << i;
    }
  }
}

TEST_P(SegmentTierEquivalence, MultiFilterMatchesPerPredicateFilter) {
  const Encoding encoding = GetParam();
  Rng rng(20260808);
  std::vector<int64_t> values(8'000 + 53);  // unaligned tail word
  for (int64_t& v : values) {
    v = static_cast<int64_t>(rng.UniformInt(0, 5000)) - 1000;
  }
  std::sort(values.begin(), values.begin() + values.size() / 2);  // runs
  const auto segment = EncodedSegment<int64_t>::Encode(values, encoding);

  // A batch of bands including empty and all-covering ones.
  std::vector<BoundsPred<int64_t>> preds;
  for (int p = 0; p < 9; ++p) {
    BoundsPred<int64_t> pred;
    pred.has_lo = p != 7;  // one lower-unbounded predicate
    pred.has_hi = p != 8;  // one upper-unbounded predicate
    pred.lo = -1200.0 + 450.0 * p;
    pred.hi = pred.lo + (p == 3 ? -10.0 : 900.0);  // one empty band
    pred.lo_inclusive = p % 2 == 0;
    pred.hi_inclusive = p % 3 == 0;
    preds.push_back(pred);
  }

  // Slices exercise offset starts and the unaligned tail.
  const size_t slices[][2] = {{0, values.size()},
                              {64 * 10, values.size()},
                              {64 * 2, 64 * 77 + 11}};
  for (const auto& slice : slices) {
    // Reference: the fused per-predicate path on the scalar tier.
    std::vector<Bitmap> reference;
    {
      ScopedSimdLevel guard(SimdLevel::kScalar);
      for (const auto& pred : preds) {
        Bitmap bm(values.size(), true);
        segment.FilterRangeSlice(pred, &bm, slice[0], slice[1]);
        reference.push_back(std::move(bm));
      }
    }
    for (SimdLevel level : AvailableLevels()) {
      ScopedSimdLevel guard(level);
      std::vector<Bitmap> bms(preds.size());
      std::vector<PredicateTarget<int64_t>> targets(preds.size());
      for (size_t p = 0; p < preds.size(); ++p) {
        bms[p] = Bitmap(values.size(), true);
        targets[p] = {preds[p], &bms[p]};
      }
      segment.MultiFilterRangeSlice(targets.data(), targets.size(), slice[0],
                                    slice[1]);
      for (size_t p = 0; p < preds.size(); ++p) {
        for (size_t i = 0; i < values.size(); ++i) {
          ASSERT_EQ(bms[p].Test(i), reference[p].Test(i))
              << "level=" << static_cast<int>(level) << " pred=" << p
              << " slice=[" << slice[0] << "," << slice[1] << ") i=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, SegmentTierEquivalence,
                         ::testing::Values(Encoding::kDictionary,
                                           Encoding::kRle,
                                           Encoding::kFrameOfReference,
                                           Encoding::kRaw));

// Regression: a frame-of-reference codec whose delta span is the full
// 64-bit range used to wrap its exclusive upper bound (max_delta_ + 1 == 0)
// and clear every row. The picker never selects FOR for such a profile
// (EncodingApplicable requires span < 2^64 - 1), so exercise the public
// codec API directly.
TEST(ForCodecFullRange, FilterRangeAtFullDeltaSpan) {
  const std::vector<int64_t> values = {
      std::numeric_limits<int64_t>::min(), -1, 0, 1,
      std::numeric_limits<int64_t>::max()};
  const auto codec = ForCodec<int64_t>::Encode(values);
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(codec.Get(i), values[i]) << i;  // round-trips at width 64
  }

  {
    BoundsPred<int64_t> lo_only;  // v >= 0: keeps {0, 1, INT64_MAX}
    lo_only.has_lo = true;
    lo_only.lo = 0.0;
    Bitmap bm(values.size(), true);
    codec.FilterRangeSlice(lo_only, &bm, 0, values.size());
    const bool expected[] = {false, false, true, true, true};
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(bm.Test(i), expected[i]) << "lo-only i=" << i;
    }
  }
  {
    BoundsPred<int64_t> hi_only;  // v <= 0: keeps {INT64_MIN, -1, 0}
    hi_only.has_hi = true;
    hi_only.hi = 0.0;
    Bitmap bm(values.size(), true);
    codec.FilterRangeSlice(hi_only, &bm, 0, values.size());
    const bool expected[] = {true, true, true, false, false};
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(bm.Test(i), expected[i]) << "hi-only i=" << i;
    }
  }
  {
    BoundsPred<int64_t> unbounded;  // no bounds: keeps everything
    Bitmap bm(values.size(), true);
    codec.FilterRangeSlice(unbounded, &bm, 0, values.size());
    EXPECT_EQ(bm.Count(), values.size());
  }
}

// ScopedSimdLevel must compose: an inner guard with a looser cap cannot
// un-cap the outer scope (neither while alive nor by destructing), so a
// scalar-capped test calling a capped helper stays scalar throughout.
TEST(ScopedSimdLevelTest, NestedGuardsComposeAndRestore) {
  ScopedSimdLevel outer(SimdLevel::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), SimdLevel::kScalar);
  {
    ScopedSimdLevel inner(DetectedLevel());
    EXPECT_EQ(simd::ActiveLevel(), SimdLevel::kScalar);  // only tightens
  }
  EXPECT_EQ(simd::ActiveLevel(), SimdLevel::kScalar);  // restored, not unset
}

}  // namespace
}  // namespace compression
}  // namespace hsdb
