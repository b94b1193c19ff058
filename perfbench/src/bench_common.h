// Shared plumbing of the end-to-end benchmark: run arguments, the metric
// sheet printed as the final JSON line, sample statistics, and deltas of
// the engine's registry histograms over a measurement window.
#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// TPC-H scale factor; <= 0 picks the workload's default.
  double scale = 0.0;
};

/// Ordered name -> (value, unit) sheet; rendered as the "metrics" object.
class MetricSheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// A metric the workload has nothing to measure for (a request class it
  /// never sends): printed as 0 and named on an info line.
  void SetNotApplicable(const std::string& name, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }
  const std::vector<std::string>& not_applicable() const {
    return not_applicable_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
  std::vector<std::string> not_applicable_;
};

/// Outcome of one workload run, printed as the last stdout line.
struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSheet metrics;
  /// Why `correct` is false (printed on stderr-free info lines).
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  std::string ToJson() const;
};

/// Quantile (q in [0,1]) of unsorted samples by linear interpolation; 0 for
/// an empty set.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);
/// Mean of the middle half of the samples (a quarter dropped at each end).
double InterquartileMean(std::vector<double> samples);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Machine-wide CPU time from /proc/stat (clock ticks): `steal` is time the
/// hypervisor ran something else while this guest wanted a CPU.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
  static CpuTicks Read();
};

/// Share (%) of the CPU time between two readings that was stolen.
double StealPercent(const CpuTicks& before, const CpuTicks& after);

/// Bucket-count snapshot of a registry histogram; Delta(...) turns two
/// snapshots into the quantiles of just the observations in between.
struct HistogramSnapshot {
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0.0;

  static HistogramSnapshot Of(const hsdb::telemetry::LogHistogram& h);
  HistogramSnapshot Minus(const HistogramSnapshot& earlier) const;
  void Add(const HistogramSnapshot& other);
  /// Log-linear interpolation inside the located bucket, the same estimate
  /// LogHistogram::Quantile makes over the lifetime counts.
  double Quantile(const hsdb::telemetry::LogHistogram& grid, double q) const;
  double Mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// Info lines go to stdout before the final JSON line, prefixed "# ".
void Info(const std::string& line);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
