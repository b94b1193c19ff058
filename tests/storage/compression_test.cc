// Codec round-trip/property tests for the compressed column-store
// subsystem: per-codec encode/decode, predicate evaluation on encoded data
// against a naive reference, the encoding picker's selection rules, and the
// bitmap range primitives the codecs rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/column_table.h"
#include "storage/compression/encoded_segment.h"
#include "storage/compression/encoding_calibration.h"

namespace hsdb {
namespace compression {
namespace {

// ---- Bitmap range primitives ----------------------------------------------

TEST(BitmapRangeTest, ClearRangeWordAligned) {
  Bitmap bm(256, true);
  bm.ClearRange(64, 192);
  EXPECT_EQ(bm.Count(), 128u);
  EXPECT_TRUE(bm.Test(63));
  EXPECT_FALSE(bm.Test(64));
  EXPECT_FALSE(bm.Test(191));
  EXPECT_TRUE(bm.Test(192));
}

TEST(BitmapRangeTest, ClearRangeWithinOneWord) {
  Bitmap bm(64, true);
  bm.ClearRange(10, 20);
  EXPECT_EQ(bm.Count(), 54u);
  EXPECT_TRUE(bm.Test(9));
  EXPECT_FALSE(bm.Test(10));
  EXPECT_FALSE(bm.Test(19));
  EXPECT_TRUE(bm.Test(20));
}

TEST(BitmapRangeTest, ClearRangeRandomAgainstReference) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 1 + rng.Index(300);
    Bitmap bm(n);
    std::vector<bool> ref(n, false);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.6)) {
        bm.Set(i);
        ref[i] = true;
      }
    }
    size_t a = rng.Index(n + 1);
    size_t b = rng.Index(n + 1);
    if (a > b) std::swap(a, b);
    bm.ClearRange(a, b);
    for (size_t i = a; i < b; ++i) ref[i] = false;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bm.Test(i), ref[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(BitmapRangeTest, ForEachSetInRangeMatchesReference) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 1 + rng.Index(300);
    Bitmap bm(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.5)) bm.Set(i);
    }
    size_t a = rng.Index(n + 1);
    size_t b = rng.Index(n + 1);
    if (a > b) std::swap(a, b);
    std::vector<size_t> got;
    bm.ForEachSetInRange(a, b, [&](size_t i) { got.push_back(i); });
    std::vector<size_t> want;
    for (size_t i = a; i < b; ++i) {
      if (bm.Test(i)) want.push_back(i);
    }
    ASSERT_EQ(got, want) << "n=" << n << " [" << a << "," << b << ")";
  }
}

// ---- Value profiles --------------------------------------------------------

TEST(EncodingProfileTest, CountsDistinctRunsAndRange) {
  std::vector<int64_t> values = {5, 5, 5, -2, -2, 9, 5};
  EncodingProfile p = ProfileValues(values);
  EXPECT_EQ(p.row_count, 7u);
  EXPECT_EQ(p.distinct_count, 3u);
  EXPECT_EQ(p.run_count, 4u);
  EXPECT_TRUE(p.is_integer);
  EXPECT_EQ(p.min_value, -2);
  EXPECT_EQ(p.max_value, 9);
  EXPECT_DOUBLE_EQ(p.AvgRunLength(), 7.0 / 4.0);
}

TEST(EncodingProfileTest, StringsProfileWithoutIntegerDomain) {
  std::vector<std::string> values = {"b", "b", "a", "a", "a", "c"};
  EncodingProfile p = ProfileValues(values);
  EXPECT_EQ(p.distinct_count, 3u);
  EXPECT_EQ(p.run_count, 3u);
  EXPECT_FALSE(p.is_integer);
  EXPECT_FALSE(EncodingApplicable(Encoding::kFrameOfReference, p));
}

// ---- Picker selection rules ------------------------------------------------

TEST(EncodingPickerTest, LowCardinalitySpreadValuesPickDictionary) {
  // 16 distinct values scattered over a huge range: FOR would need ~wide
  // deltas, RLE has no runs, raw wastes 8 bytes/row.
  Rng rng(1);
  std::vector<int64_t> values;
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(rng.UniformInt(0, 15) * 1'000'000'007LL);
  }
  EXPECT_EQ(EncodingPicker().Pick(ProfileValues(values)),
            Encoding::kDictionary);
}

TEST(EncodingPickerTest, SortedRunsPickRle) {
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 64; ++v) {
    values.insert(values.end(), 300, v * 1'000'000'007LL);
  }
  EXPECT_EQ(EncodingPicker().Pick(ProfileValues(values)), Encoding::kRle);
}

TEST(EncodingPickerTest, DenseIntegersPickFrameOfReference) {
  // A shuffled dense id range: no runs, all distinct — the dictionary would
  // double the footprint, FOR packs the deltas.
  Rng rng(2);
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 20'000; ++v) values.push_back(1'000'000 + v);
  for (size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.Index(i)]);
  }
  EXPECT_EQ(EncodingPicker().Pick(ProfileValues(values)),
            Encoding::kFrameOfReference);
}

TEST(EncodingPickerTest, HighCardinalityDoublesPickRaw) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) values.push_back(rng.UniformDouble(0, 1));
  EXPECT_EQ(EncodingPicker().Pick(ProfileValues(values)), Encoding::kRaw);
}

TEST(EncodingPickerTest, NonAdaptiveAlwaysPicksDictionary) {
  EncodingPicker::Options opts;
  opts.adaptive = false;
  std::vector<int64_t> sorted_runs(5000, 7);
  EXPECT_EQ(EncodingPicker(opts).Pick(ProfileValues(sorted_runs)),
            Encoding::kDictionary);
}

TEST(EncodingPickerTest, ForceOverridesButRespectsApplicability) {
  EncodingPicker::Options opts;
  opts.force = Encoding::kRle;
  std::vector<int64_t> values = {1, 2, 3, 4, 5};
  EXPECT_EQ(EncodingPicker(opts).Pick(ProfileValues(values)), Encoding::kRle);
  // FOR over strings is inapplicable -> dictionary fallback.
  opts.force = Encoding::kFrameOfReference;
  std::vector<std::string> strings = {"a", "b"};
  EXPECT_EQ(EncodingPicker(opts).Pick(ProfileValues(strings)),
            Encoding::kDictionary);
}

// ---- Round trips -----------------------------------------------------------

template <typename T>
void ExpectRoundTrip(const std::vector<T>& values, Encoding encoding) {
  auto seg = EncodedSegment<T>::Encode(values, encoding);
  ASSERT_EQ(seg.encoding(), encoding);
  ASSERT_EQ(seg.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(seg.Get(i), values[i]) << EncodingName(encoding) << " i=" << i;
  }
  size_t visited = 0;
  const Bitmap all(values.size(), true);
  seg.ForEachInRange(all, 0, values.size(), [&](size_t i, const T& v) {
    ASSERT_EQ(i, visited) << EncodingName(encoding);
    ASSERT_EQ(v, values[i]) << EncodingName(encoding) << " i=" << i;
    ++visited;
  });
  EXPECT_EQ(visited, values.size());
}

TEST(CodecRoundTripTest, IntegerCodecsAllEncodings) {
  Rng rng(11);
  std::vector<int64_t> values;
  for (int i = 0; i < 3000; ++i) {
    values.push_back(rng.UniformInt(-50, 50));
  }
  std::sort(values.begin(), values.begin() + 1500);  // half sorted: mixed runs
  for (Encoding e : {Encoding::kDictionary, Encoding::kRle,
                     Encoding::kFrameOfReference, Encoding::kRaw}) {
    ExpectRoundTrip(values, e);
  }
}

TEST(CodecRoundTripTest, Int32WithNegativeBase) {
  std::vector<int32_t> values = {-1000, -999, -1000, 500, 0, -1000, 499};
  for (Encoding e : {Encoding::kDictionary, Encoding::kRle,
                     Encoding::kFrameOfReference, Encoding::kRaw}) {
    ExpectRoundTrip(values, e);
  }
}

TEST(CodecRoundTripTest, DoubleCodecs) {
  Rng rng(13);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.UniformInt(0, 9) * 0.125);
  }
  for (Encoding e :
       {Encoding::kDictionary, Encoding::kRle, Encoding::kRaw}) {
    ExpectRoundTrip(values, e);
  }
  // Forced FOR falls back to the dictionary for doubles.
  auto seg = EncodedSegment<double>::Encode(values,
                                            Encoding::kFrameOfReference);
  EXPECT_EQ(seg.encoding(), Encoding::kDictionary);
}

TEST(CodecRoundTripTest, StringCodecs) {
  Rng rng(17);
  std::vector<std::string> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back("key_" + std::to_string(rng.UniformInt(0, 30)));
  }
  for (Encoding e :
       {Encoding::kDictionary, Encoding::kRle, Encoding::kRaw}) {
    ExpectRoundTrip(values, e);
  }
}

TEST(CodecRoundTripTest, EmptyAndSingletonSegments) {
  std::vector<int64_t> empty;
  std::vector<int64_t> one = {42};
  for (Encoding e : {Encoding::kDictionary, Encoding::kRle,
                     Encoding::kFrameOfReference, Encoding::kRaw}) {
    ExpectRoundTrip(empty, e);
    ExpectRoundTrip(one, e);
  }
}

TEST(CodecRoundTripTest, SegmentDistinctCountIsEncodingIndependent) {
  std::vector<int64_t> values = {3, 3, 1, 1, 1, 2, 3};
  for (Encoding e : {Encoding::kDictionary, Encoding::kRle,
                     Encoding::kFrameOfReference, Encoding::kRaw}) {
    auto seg = EncodedSegment<int64_t>::Encode(values, e);
    EXPECT_EQ(seg.distinct_count(), 3u) << EncodingName(e);
  }
}

TEST(CodecRoundTripTest, CompressiblePayloadShrinks) {
  std::vector<int64_t> values(20'000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i / 1000);  // 20 long runs
  }
  for (Encoding e : {Encoding::kDictionary, Encoding::kRle,
                     Encoding::kFrameOfReference}) {
    auto seg = EncodedSegment<int64_t>::Encode(values, e);
    EXPECT_LT(seg.payload_bytes(), seg.plain_bytes() / 4)
        << EncodingName(e);
  }
}

/// Row slices the ranged entry points are checked on: the whole segment,
/// the tail from the last 64-aligned boundary, an empty slice, and random
/// 64-aligned starts with unaligned ends (the morsel shape: every boundary
/// is aligned except the final end).
std::vector<std::pair<size_t, size_t>> TestSlices(size_t n, Rng& rng) {
  const size_t last_aligned = n / 64 * 64;
  std::vector<std::pair<size_t, size_t>> slices = {
      {0, n}, {last_aligned, n}, {last_aligned, last_aligned}};
  for (int k = 0; k < 4; ++k) {
    const size_t b = 64 * rng.Index(n / 64 + 1);
    size_t e = b + rng.Index(n - b + 1);
    if (e % 64 == 0 && e < n) ++e;
    slices.emplace_back(b, e);
  }
  return slices;
}

/// ForEachInRange against the source values, for every codec, several
/// bitmap densities and every TestSlices slice. The bitmap extends past the
/// segment (the delta region): bits there, and bits outside the slice, must
/// not be visited.
template <typename T>
void ExpectForEachInRangeMatchesGet(const std::vector<T>& values,
                                    uint64_t seed) {
  Rng rng(seed);
  const size_t n = values.size();
  for (Encoding e : {Encoding::kDictionary, Encoding::kRle,
                     Encoding::kFrameOfReference, Encoding::kRaw}) {
    auto seg = EncodedSegment<T>::Encode(values, e);
    for (double density : {0.0, 0.05, 0.4, 1.0}) {
      Bitmap bits(n + 64);
      for (size_t i = 0; i < bits.size(); ++i) {
        if (rng.Chance(density)) bits.Set(i);
      }
      auto slices = TestSlices(n, rng);
      slices.emplace_back(0, bits.size());  // end past the segment
      for (const auto& [b, end] : slices) {
        std::vector<std::pair<size_t, T>> got;
        seg.ForEachInRange(bits, b, end, [&](size_t i, const T& v) {
          got.emplace_back(i, v);
        });
        std::vector<std::pair<size_t, T>> want;
        for (size_t i = b; i < std::min(end, n); ++i) {
          if (bits.Test(i)) want.emplace_back(i, values[i]);
        }
        ASSERT_EQ(got, want) << EncodingName(e) << " density=" << density
                             << " slice=[" << b << "," << end << ")";
      }
    }
  }
}

TEST(CodecRoundTripTest, ForEachInMatchesPerBitGet) {
  Rng rng(41);
  std::vector<int64_t> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.UniformInt(0, 30));
  std::sort(values.begin(), values.begin() + 1200);  // run-structured prefix
  ExpectForEachInRangeMatchesGet(values, 41);

  std::vector<int64_t> wide;  // FOR deltas wider than 32 bits
  for (int i = 0; i < 777; ++i) {
    wide.push_back(rng.UniformInt(-(int64_t{1} << 40), int64_t{1} << 40));
  }
  ExpectForEachInRangeMatchesGet(wide, 43);

  std::vector<int32_t> narrow = {-1000, -999, -1000, 500, 0, -1000, 499};
  ExpectForEachInRangeMatchesGet(narrow, 47);

  std::vector<double> doubles;
  for (int i = 0; i < 1100; ++i) {
    doubles.push_back(rng.UniformInt(0, 9) * 0.125);
  }
  std::sort(doubles.begin() + 500, doubles.end());
  ExpectForEachInRangeMatchesGet(doubles, 53);

  std::vector<std::string> strings;
  for (int i = 0; i < 300; ++i) {
    strings.push_back("key_" + std::to_string(rng.UniformInt(0, 30)));
  }
  ExpectForEachInRangeMatchesGet(strings, 59);

  ExpectForEachInRangeMatchesGet(std::vector<int64_t>{}, 61);
}

// ---- Predicate evaluation on encoded data ----------------------------------

/// FilterRangeSlice against a per-value pred.Keep reference, for every codec
/// and every TestSlices slice. The bitmap extends past the segment (the
/// delta region) and starts with random bits cleared: inside the slice a bit
/// survives iff it was set and its value is kept (conjunction semantics);
/// every bit outside the slice must be untouched.
template <typename T>
void ExpectFilterMatchesReference(const std::vector<T>& values,
                                  const BoundsPred<T>& pred, uint64_t seed) {
  Rng rng(seed);
  const size_t n = values.size();
  for (Encoding e : {Encoding::kDictionary, Encoding::kRle,
                     Encoding::kFrameOfReference, Encoding::kRaw}) {
    auto seg = EncodedSegment<T>::Encode(values, e);
    Bitmap pre(n + 70, true);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.2)) pre.Clear(i);
    }
    for (const auto& [b, end] : TestSlices(n, rng)) {
      Bitmap bm = pre;
      seg.FilterRangeSlice(pred, &bm, b, end);
      for (size_t i = 0; i < bm.size(); ++i) {
        const bool in_slice = i >= b && i < end;
        const bool want = pre.Test(i) && (!in_slice || pred.Keep(values[i]));
        ASSERT_EQ(bm.Test(i), want)
            << EncodingName(seg.encoding()) << " slice=[" << b << "," << end
            << ") i=" << i << (in_slice ? "" : " (outside the slice)");
      }
    }
  }
}

TEST(CodecFilterTest, RandomIntegerBoundsMatchNaiveEvaluation) {
  Rng rng(23);
  std::vector<int64_t> values;
  for (int i = 0; i < 1500; ++i) values.push_back(rng.UniformInt(-40, 40));
  std::sort(values.begin(), values.begin() + 700);
  for (int trial = 0; trial < 40; ++trial) {
    BoundsPred<int64_t> pred;
    pred.has_lo = rng.Chance(0.8);
    pred.has_hi = rng.Chance(0.8);
    pred.lo = rng.UniformInt(-45, 45);
    pred.hi = pred.lo + rng.UniformInt(0, 30);
    pred.lo_inclusive = rng.Chance(0.5);
    pred.hi_inclusive = rng.Chance(0.5);
    ExpectFilterMatchesReference(values, pred, 1000 + trial);
  }
  // Code widths across the kernel shapes: narrow windows, 17..32-bit
  // gathers, and wider-than-32-bit deltas that take the scalar loop.
  for (int64_t span :
       {int64_t{1} << 12, int64_t{1} << 20, int64_t{1} << 40}) {
    std::vector<int64_t> wide;
    for (int i = 0; i < 1300; ++i) wide.push_back(rng.UniformInt(-span, span));
    std::sort(wide.begin() + 900, wide.end());
    for (int trial = 0; trial < 8; ++trial) {
      BoundsPred<int64_t> pred;
      pred.has_lo = rng.Chance(0.8);
      pred.has_hi = rng.Chance(0.8);
      pred.lo = static_cast<double>(rng.UniformInt(-span, span));
      pred.hi = pred.lo + static_cast<double>(rng.UniformInt(0, span));
      pred.lo_inclusive = rng.Chance(0.5);
      pred.hi_inclusive = rng.Chance(0.5);
      ExpectFilterMatchesReference(wide, pred, 3000 + trial);
    }
  }
}

TEST(CodecFilterTest, FractionalBoundsOnIntegerDomain) {
  // Bounds that fall between integer values exercise the FOR binary search
  // and the dictionary partition points off the value grid.
  std::vector<int64_t> values = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 5, 5};
  BoundsPred<int64_t> pred;
  pred.has_lo = pred.has_hi = true;
  pred.lo = 2.5;
  pred.hi = 6.5;
  ExpectFilterMatchesReference(values, pred, 77);
  // A negative FOR base.
  std::vector<int32_t> negative = {-1000, -999, -1000, 500, 0, -1000, 499};
  BoundsPred<int32_t> neg_pred;
  neg_pred.has_lo = neg_pred.has_hi = true;
  neg_pred.lo = -999.5;
  neg_pred.hi = 499.0;
  ExpectFilterMatchesReference(negative, neg_pred, 5000);
}

TEST(CodecFilterTest, StringBoundsMatchNaiveEvaluation) {
  Rng rng(29);
  std::vector<std::string> values;
  for (int i = 0; i < 800; ++i) {
    values.push_back("s" + std::to_string(rng.UniformInt(0, 20)));
  }
  for (int trial = 0; trial < 20; ++trial) {
    BoundsPred<std::string> pred;
    pred.has_lo = rng.Chance(0.7);
    pred.has_hi = rng.Chance(0.7);
    pred.lo = "s" + std::to_string(rng.UniformInt(0, 20));
    pred.hi = pred.lo + "~";
    pred.lo_inclusive = rng.Chance(0.5);
    pred.hi_inclusive = rng.Chance(0.5);
    ExpectFilterMatchesReference(values, pred, 2000 + trial);
  }
}

TEST(CodecFilterTest, DoubleBoundsMatchNaiveEvaluation) {
  Rng rng(31);
  std::vector<double> values;
  for (int i = 0; i < 900; ++i) values.push_back(rng.UniformInt(0, 9) * 0.125);
  std::sort(values.begin(), values.begin() + 400);
  for (int trial = 0; trial < 12; ++trial) {
    BoundsPred<double> pred;
    pred.has_lo = rng.Chance(0.8);
    pred.has_hi = rng.Chance(0.8);
    pred.lo = rng.UniformInt(-1, 9) * 0.1;
    pred.hi = pred.lo + rng.UniformInt(0, 6) * 0.1;
    pred.lo_inclusive = rng.Chance(0.5);
    pred.hi_inclusive = rng.Chance(0.5);
    ExpectFilterMatchesReference(values, pred, 4000 + trial);
  }
}

TEST(CodecFilterTest, UnboundedPredicateKeepsEverything) {
  std::vector<int64_t> values = {5, 1, 5, 9};
  BoundsPred<int64_t> pred;  // no bounds
  ExpectFilterMatchesReference(values, pred, 3);
}

// ---- ColumnTable integration ----------------------------------------------

Schema MixSchema() {
  return Schema::CreateOrDie({{"id", DataType::kInt64},
                              {"bucket", DataType::kInt32},
                              {"price", DataType::kDouble},
                              {"tag", DataType::kVarchar}},
                             {0});
}

TEST(ColumnTableEncodingTest, AdaptiveMergePicksPerColumnCodecs) {
  ColumnTable::Options opts;
  opts.auto_merge = false;
  auto t = ColumnTable::Create(MixSchema(), opts);
  Rng rng(31);
  for (int64_t i = 0; i < 8000; ++i) {
    t->Insert({i,                             // dense ids
               int32_t(i / 500),              // runs
               rng.UniformDouble(0, 1),       // high card
               "t" + std::to_string(i % 5)});  // low card
  }
  t->MergeDelta();
  EXPECT_EQ(t->ColumnEncoding(0), Encoding::kFrameOfReference);
  EXPECT_EQ(t->ColumnEncoding(1), Encoding::kRle);
  EXPECT_EQ(t->ColumnEncoding(2), Encoding::kRaw);
  EXPECT_EQ(t->ColumnEncoding(3), Encoding::kDictionary);
  // DictionarySize semantics survive every codec.
  EXPECT_EQ(t->DictionarySize(0), 8000u);
  EXPECT_EQ(t->DictionarySize(1), 16u);
  EXPECT_EQ(t->DictionarySize(3), 5u);
}

TEST(ColumnTableEncodingTest, NonAdaptiveTablesStayDictionary) {
  ColumnTable::Options opts;
  opts.auto_merge = false;
  opts.encoding.adaptive = false;
  auto t = ColumnTable::Create(MixSchema(), opts);
  for (int64_t i = 0; i < 2000; ++i) {
    t->Insert({i, int32_t(i / 100), 0.5, "x"});
  }
  t->MergeDelta();
  for (ColumnId c = 0; c < 4; ++c) {
    EXPECT_EQ(t->ColumnEncoding(c), Encoding::kDictionary) << c;
  }
}

TEST(ColumnTableEncodingTest, RunStructuredColumnCompressesHarder) {
  ColumnTable::Options adaptive;
  adaptive.auto_merge = false;
  ColumnTable::Options legacy = adaptive;
  legacy.encoding.adaptive = false;
  auto ta = ColumnTable::Create(MixSchema(), adaptive);
  auto tl = ColumnTable::Create(MixSchema(), legacy);
  for (int64_t i = 0; i < 10'000; ++i) {
    Row row = {i, int32_t(i / 1000), 1.0, "c"};
    ta->Insert(row);
    tl->Insert(Row(row));
  }
  ta->MergeDelta();
  tl->MergeDelta();
  // RLE on the run-structured column beats the dictionary's per-row ids.
  EXPECT_EQ(ta->ColumnEncoding(1), Encoding::kRle);
  EXPECT_LT(ta->CompressionRate(1), tl->CompressionRate(1));
}

// ---- Hash-built segments against a sorted-map reference --------------------

/// Test value #k of each physical type; distinct k give distinct values.
template <typename T>
T TestValue(int64_t k) {
  if constexpr (std::is_same_v<T, std::string>) {
    return "v" + std::to_string(k);
  } else if constexpr (std::is_same_v<T, double>) {
    return static_cast<double>(k) * 0.25 - 3.0;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return k * 1'000'000'007LL - 5;
  } else {
    return static_cast<T>(k * 7 - 300);
  }
}

template <typename T>
size_t ValueBytes(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return sizeof(std::string) + v.size();
  } else {
    return sizeof(T);
  }
}

/// Compares decoded values exactly: doubles bit for bit, so the sign of a
/// zero counts.
template <typename T>
bool SameValue(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  } else {
    return a == b;
  }
}

/// What a segment over `values` must hold, from a std::map of the distinct
/// values. std::map keeps the first-inserted of equivalent keys, so for a
/// mix of 0.0 and -0.0 its key is the first-seen zero, which is also what
/// the hash-built dictionary keeps.
template <typename T>
struct SegmentReference {
  explicit SegmentReference(const std::vector<T>& values) : values(values) {
    for (const T& v : values) dict.try_emplace(v, 0);
    uint32_t rank = 0;
    for (auto& entry : dict) entry.second = rank++;
    for (size_t i = 0; i < values.size(); ++i) {
      if (i == 0 || values[i] != values[i - 1]) run_starts.push_back(i);
    }
  }

  EncodingProfile Profile() const {
    EncodingProfile p;
    p.row_count = values.size();
    p.distinct_count = dict.size();
    p.run_count = run_starts.size();
    p.is_integer = std::is_integral_v<T>;
    p.plain_value_bytes = sizeof(T);
    if constexpr (std::is_integral_v<T>) {
      if (!values.empty()) {
        p.min_value = dict.begin()->first;
        p.max_value = dict.rbegin()->first;
      }
    }
    if constexpr (std::is_same_v<T, std::string>) {
      if (!values.empty()) {
        size_t payload = 0;
        for (const T& v : values) payload += v.size();
        p.plain_value_bytes +=
            static_cast<double>(payload) / static_cast<double>(values.size());
      }
    }
    return p;
  }

  /// Decoded row i under `encoding`: the dictionary's key, the value that
  /// starts the row's run, or the row's own value.
  T Decoded(Encoding encoding, size_t i) const {
    switch (encoding) {
      case Encoding::kDictionary:
        return dict.find(values[i])->first;
      case Encoding::kRle:
        return values[*(std::upper_bound(run_starts.begin(),
                                         run_starts.end(), i) -
                        1)];
      default:
        return values[i];
    }
  }

  size_t PayloadBytes(Encoding encoding) const {
    const size_t n = values.size();
    size_t bytes = 0;
    switch (encoding) {
      case Encoding::kDictionary: {
        for (const auto& entry : dict) bytes += ValueBytes(entry.first);
        const uint32_t width =
            dict.empty() ? 1 : BitPackedVector::WidthFor(dict.size() - 1);
        return bytes + n * width / 8;
      }
      case Encoding::kRle:
        for (size_t start : run_starts) bytes += ValueBytes(values[start]);
        return bytes + run_starts.size() * sizeof(uint32_t);
      case Encoding::kFrameOfReference: {
        const EncodingProfile p = Profile();
        const uint32_t width = BitPackedVector::WidthFor(
            static_cast<uint64_t>(p.max_value) -
            static_cast<uint64_t>(p.min_value));
        return sizeof(int64_t) + n * width / 8;
      }
      case Encoding::kRaw:
        for (const T& v : values) bytes += ValueBytes(v);
        return bytes;
    }
    return 0;
  }

  const std::vector<T>& values;
  std::map<T, uint32_t> dict;  // distinct value -> dictionary rank
  std::vector<size_t> run_starts;
};

template <typename T>
void ExpectMatchesReference(const std::vector<T>& values,
                            const std::string& label) {
  const SegmentReference<T> ref(values);
  const EncodingProfile want = ref.Profile();
  const EncodingProfile got = ProfileValues(values);
  EXPECT_EQ(got.row_count, want.row_count) << label;
  EXPECT_EQ(got.distinct_count, want.distinct_count) << label;
  EXPECT_EQ(got.run_count, want.run_count) << label;
  EXPECT_EQ(got.is_integer, want.is_integer) << label;
  EXPECT_EQ(got.min_value, want.min_value) << label;
  EXPECT_EQ(got.max_value, want.max_value) << label;
  EXPECT_DOUBLE_EQ(got.plain_value_bytes, want.plain_value_bytes) << label;

  std::vector<std::pair<EncodedSegment<T>, Encoding>> segments;
  segments.emplace_back(EncodedSegment<T>::Encode(values, EncodingPicker()),
                        EncodingPicker().Pick(want));
  for (Encoding e : {Encoding::kDictionary, Encoding::kRle,
                     Encoding::kFrameOfReference, Encoding::kRaw}) {
    segments.emplace_back(
        EncodedSegment<T>::Encode(values, e),
        EncodingApplicable(e, want) ? e : Encoding::kDictionary);
  }
  for (const auto& [seg, encoding] : segments) {
    const std::string where =
        label + " " + std::string(EncodingName(encoding));
    ASSERT_EQ(seg.encoding(), encoding) << where;
    EXPECT_EQ(seg.distinct_count(), ref.dict.size()) << where;
    EXPECT_EQ(seg.payload_bytes(), ref.PayloadBytes(encoding)) << where;
    ASSERT_EQ(seg.size(), values.size()) << where;
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_TRUE(SameValue(seg.Get(i), ref.Decoded(encoding, i)))
          << where << " row " << i;
    }
    if (encoding != Encoding::kDictionary) continue;
    // Code i decodes to dictionary entry i and the ranks follow the map's
    // order, so the dictionary is the sorted distinct values.
    const PackedCodes codes = seg.codes();
    ASSERT_NE(codes.packed, nullptr) << where;
    EXPECT_EQ(codes.space, ref.dict.size()) << where;
    ASSERT_EQ(codes.packed->size(), values.size()) << where;
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(codes.packed->Get(i), ref.dict.find(values[i])->second)
          << where << " row " << i;
    }
  }
}

template <typename T>
class HashBuiltSegmentTest : public ::testing::Test {};

using PhysicalTypes = ::testing::Types<int32_t, int64_t, double, std::string>;
TYPED_TEST_SUITE(HashBuiltSegmentTest, PhysicalTypes);

TYPED_TEST(HashBuiltSegmentTest, MatchesSortedMapReference) {
  using T = TypeParam;
  Rng rng(53);
  auto shuffle = [&](std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.Index(i)]);
    }
  };
  ExpectMatchesReference(std::vector<T>{}, "empty");
  ExpectMatchesReference(std::vector<T>{TestValue<T>(42)}, "one value");
  ExpectMatchesReference(std::vector<T>(500, TestValue<T>(7)), "all equal");

  std::vector<T> distinct;
  for (int64_t k = 0; k < 1000; ++k) distinct.push_back(TestValue<T>(k));
  shuffle(&distinct);
  ExpectMatchesReference(distinct, "all distinct");

  // 129 distinct values need 8-bit ids, one past the 7-bit boundary.
  std::vector<T> d129;
  for (int copy = 0; copy < 3; ++copy) {
    for (int64_t k = 0; k < 129; ++k) d129.push_back(TestValue<T>(k * 3));
  }
  shuffle(&d129);
  ExpectMatchesReference(d129, "129 distinct shuffled");

  std::vector<T> runs;
  for (int64_t run = 0; run < 40; ++run) {
    runs.insert(runs.end(), 25, TestValue<T>((run * 7) % 10));
  }
  ExpectMatchesReference(runs, "runs");

  // 5000 distinct values grow the profiling table from 64 slots to 16384.
  std::vector<T> growth;
  for (int64_t i = 0; i < 20'000; ++i) growth.push_back(TestValue<T>(i % 5000));
  shuffle(&growth);
  ExpectMatchesReference(growth, "table growth");

  if constexpr (std::is_same_v<T, double>) {
    // 0.0 == -0.0: one distinct value and one run per zero stretch; the
    // dictionary keeps whichever zero comes first.
    ExpectMatchesReference(std::vector<double>{-0.0, 0.0, 1.5, 0.0, -0.0},
                           "negative zero first");
    ExpectMatchesReference(std::vector<double>{0.0, -0.0, -0.0, 2.5, -0.0},
                           "positive zero first");
  }
}

// ---- Decode microprobes ----------------------------------------------------

TEST(EncodingCalibrationTest, MultipliersAreSaneAndDictionaryNormalized) {
  auto mult = MeasureEncodingScanMultipliers(1 << 14);
  EXPECT_DOUBLE_EQ(mult[static_cast<int>(Encoding::kDictionary)], 1.0);
  for (double m : mult) {
    EXPECT_GE(m, 0.2);
    EXPECT_LE(m, 3.0);
  }
}

}  // namespace
}  // namespace compression
}  // namespace hsdb
