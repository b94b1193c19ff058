// Low-overhead runtime metrics: a process-wide registry of named counters,
// gauges and log-scale latency histograms with Prometheus-text and JSON
// exposition. The fast path (increment / observe) is lock-free — relaxed
// atomics on pre-registered handles — and instrument sites cache the
// handle, so the per-event cost is one atomic RMW. Registration and export
// take a mutex; both happen at setup / scrape frequency, not per query.
//
// The whole layer can be compiled out with -DHSDB_NO_TELEMETRY (CMake
// option HSDB_TELEMETRY=OFF): the registry itself stays available (tests
// and tools keep compiling) but every engine instrument site is guarded by
// telemetry::kCompiledIn and drops to nothing.
#ifndef HSDB_TELEMETRY_METRICS_H_
#define HSDB_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace hsdb {
namespace telemetry {

#ifdef HSDB_NO_TELEMETRY
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// Monotonic event counter (Prometheus counter).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value / accumulating double metric (Prometheus gauge).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-scale (geometric, factor-2) histogram for long-tailed positive
/// quantities — query latencies in ms, cost-model error ratios. Bucket i
/// counts observations <= min_bound * 2^i; one overflow bucket catches the
/// rest. Observe is lock-free (relaxed per-bucket atomics); quantiles are
/// estimated by log-linear interpolation inside the located bucket, so the
/// estimate is exact at bucket boundaries and within a factor of 2
/// everywhere (far tighter in practice).
class LogHistogram {
 public:
  /// ~36 factor-2 buckets from 1us up: spans 0.001 ms .. ~68.7 s with the
  /// overflow bucket above — latency territory end to end.
  explicit LogHistogram(double min_bound = 0.001, int num_buckets = 36);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// q in [0, 1]; 0 with no observations. Interpolated inside the bucket
  /// holding the q-th observation and clamped to the observed min and max.
  double Quantile(double q) const;

  int num_buckets() const { return num_buckets_; }
  double min_bound() const { return min_bound_; }
  /// Inclusive upper bound of bucket i (i == num_buckets() is +Inf).
  double UpperBound(int i) const;
  uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  double min_bound_;
  int num_buckets_;
  /// num_buckets_ + 1 slots; the last is the +Inf overflow bucket.
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// Observed extremes, written only when a new one arrives.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Sorted key=value pairs identifying one series of a metric family.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Named metrics registry; see the header comment. `enabled()` is the
/// process-wide runtime switch the engine's instrument sites check before
/// doing any telemetry work (one relaxed load) — flipping it off makes
/// query execution byte-identical to the HSDB_NO_TELEMETRY build modulo
/// that load.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  HSDB_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  /// The process-wide default registry (what Database uses unless a test
  /// injects its own).
  static MetricsRegistry& Global();

  /// Finds or creates a metric. The returned reference stays valid for the
  /// registry's lifetime (handles are meant to be cached by instrument
  /// sites). Help text is taken from the first registration of the family;
  /// registering the same name with a different type is a programming
  /// error and returns the existing metric of the requested kind keyed
  /// under the name suffixed with "_conflict" (never crashes the engine).
  Counter& GetCounter(const std::string& name, const std::string& help = "",
                      const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const std::string& help = "",
                  const Labels& labels = {});
  /// `min_bound`/`num_buckets` configure the bucket grid when the series is
  /// first created; later calls return the existing histogram unchanged.
  LogHistogram& GetHistogram(const std::string& name,
                             const std::string& help = "",
                             const Labels& labels = {},
                             double min_bound = 0.001, int num_buckets = 36);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Prometheus text exposition format 0.0.4: # HELP / # TYPE headers,
  /// counter/gauge sample lines, histograms as cumulative _bucket{le=...}
  /// series plus _sum and _count. Families and series are emitted in
  /// lexicographic order, so the output is deterministic.
  std::string ExportText() const;

  /// JSON exposition: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, p50, p95, p99}}}, series keyed by
  /// name{labels}. Deterministic order (sorted keys).
  std::string ExportJson() const;

  /// Zeroes every metric's value. Registered handles stay valid (entries
  /// are kept), so cached instrument-site pointers survive — this is the
  /// test-isolation hook.
  void ResetValues();

 private:
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LogHistogram> histogram;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    /// Rendered label string -> series (sorted for deterministic export).
    std::map<std::string, Series> series;
  };

  Family& FamilyFor(const std::string& name, MetricType type,
                    const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::atomic<bool> enabled_{true};
};

}  // namespace telemetry
}  // namespace hsdb

#endif  // HSDB_TELEMETRY_METRICS_H_
