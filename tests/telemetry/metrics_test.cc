#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace hsdb {
namespace telemetry {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(LogHistogramTest, BucketBoundaries) {
  // min_bound 1.0: bucket i counts v <= 2^i.
  LogHistogram h(1.0, 8);
  EXPECT_DOUBLE_EQ(h.UpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(h.UpperBound(1), 2.0);
  EXPECT_DOUBLE_EQ(h.UpperBound(3), 8.0);
  EXPECT_TRUE(std::isinf(h.UpperBound(8)));

  h.Observe(0.5);   // below min_bound -> bucket 0
  h.Observe(1.0);   // exactly at the boundary -> bucket 0 (inclusive)
  h.Observe(1.5);   // (1, 2] -> bucket 1
  h.Observe(2.0);   // boundary of bucket 1
  h.Observe(2.001); // just over -> bucket 2
  h.Observe(300.0); // beyond the last finite bound -> overflow
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(8), 1u);  // +Inf overflow slot
  EXPECT_EQ(h.count(), 6u);
}

TEST(LogHistogramTest, DegenerateObservationsLandInBucketZero) {
  LogHistogram h(1.0, 4);
  h.Observe(-5.0);
  h.Observe(0.0);
  h.Observe(std::nan(""));
  EXPECT_EQ(h.BucketCount(0), 3u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(LogHistogramTest, QuantilesOnKnownDistribution) {
  // 1000 observations of ~1 ms and 100 of ~100 ms: p50 must sit in the
  // bucket holding 1.0 (within factor 2), p95/p99 in the one holding 100.
  LogHistogram h;  // default latency grid: min_bound 0.001
  for (int i = 0; i < 1000; ++i) h.Observe(1.0);
  for (int i = 0; i < 100; ++i) h.Observe(100.0);
  EXPECT_EQ(h.count(), 1100u);
  EXPECT_NEAR(h.sum(), 1000.0 + 100 * 100.0, 1e-6);

  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 1.024 + 1e-9);  // 0.001 * 2^10, the bucket holding 1.0

  const double p99 = h.Quantile(0.99);
  EXPECT_GE(p99, 50.0);
  EXPECT_LE(p99, 131.072 + 1e-6);  // 0.001 * 2^17, the bucket holding 100
}

TEST(LogHistogramTest, QuantileEdgeCases) {
  LogHistogram h(1.0, 4);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // no observations
  h.Observe(3.0);
  const double q = h.Quantile(0.5);
  // Single observation in (2, 4]: the estimate stays inside its bucket.
  EXPECT_GE(q, 2.0);
  EXPECT_LE(q, 4.0);
}

TEST(LogHistogramTest, QuantileStaysWithinTheObservedRange) {
  // Only 1.0 observed: interpolating inside its bucket (0.512, 1.024] would
  // report values that never occurred.
  LogHistogram h;
  for (int i = 0; i < 10; ++i) h.Observe(1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.05), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1.0);
  h.Observe(3.0);
  EXPECT_GE(h.Quantile(0.01), 1.0);
  EXPECT_LE(h.Quantile(1.0), 3.0);
  h.Reset();
  h.Observe(0.25);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.25);
}

TEST(LogHistogramTest, QuantileIsMonotone) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(0.01 * i);
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(MetricsRegistryTest, HandlesAreStableAndShared) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("requests", "help", {{"kind", "x"}});
  Counter& b = reg.GetCounter("requests", "", {{"kind", "x"}});
  Counter& other = reg.GetCounter("requests", "", {{"kind", "y"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.Increment(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(MetricsRegistryTest, TypeConflictDoesNotCorrupt) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("metric");
  c.Increment();
  // Same name, different type: parked under a distinct key, no crash.
  Gauge& g = reg.GetGauge("metric");
  g.Set(7.0);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  const std::string text = reg.ExportText();
  EXPECT_NE(text.find("metric_conflict"), std::string::npos);
}

TEST(MetricsRegistryTest, ExportTextPrometheusShape) {
  MetricsRegistry reg;
  reg.GetCounter("hsdb_queries_total", "Queries executed.",
                 {{"kind", "select"}})
      .Increment(5);
  reg.GetGauge("hsdb_drift", "Drift score.").Set(0.25);
  LogHistogram& h =
      reg.GetHistogram("hsdb_latency_ms", "Latency.", {}, 1.0, 4);
  h.Observe(1.5);
  h.Observe(3.0);
  h.Observe(100.0);  // overflow

  const std::string text = reg.ExportText();
  // Family headers.
  EXPECT_NE(text.find("# HELP hsdb_queries_total Queries executed.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hsdb_queries_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hsdb_drift gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hsdb_latency_ms histogram\n"),
            std::string::npos);
  // Samples.
  EXPECT_NE(text.find("hsdb_queries_total{kind=\"select\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("hsdb_drift 0.25\n"), std::string::npos);
  // Histogram series: cumulative buckets, +Inf, sum and count.
  EXPECT_NE(text.find("hsdb_latency_ms_bucket{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("hsdb_latency_ms_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("hsdb_latency_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("hsdb_latency_ms_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("hsdb_latency_ms_sum 104.5\n"), std::string::npos);
  // Deterministic: exporting twice yields the same bytes.
  EXPECT_EQ(text, reg.ExportText());
}

TEST(MetricsRegistryTest, ExportJsonShape) {
  MetricsRegistry reg;
  reg.GetCounter("c", "", {{"a", "b"}}).Increment(2);
  reg.GetGauge("g").Set(1.5);
  reg.GetHistogram("h").Observe(10.0);
  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c{a=\\\"b\\\"}\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetValuesKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("c");
  Gauge& g = reg.GetGauge("g");
  LogHistogram& h = reg.GetHistogram("h");
  c.Increment(9);
  g.Set(4.0);
  h.Observe(1.0);
  reg.ResetValues();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // The same references keep working after the reset.
  c.Increment();
  EXPECT_EQ(reg.GetCounter("c").value(), 1u);
}

TEST(MetricsRegistryTest, EnabledFlagDefaultsOn) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.enabled());
  reg.set_enabled(false);
  EXPECT_FALSE(reg.enabled());
  reg.set_enabled(true);
  EXPECT_TRUE(reg.enabled());
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

}  // namespace
}  // namespace telemetry
}  // namespace hsdb
