#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

namespace perfbench {

void MetricSheet::Set(const std::string& name, double value,
                      const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

void MetricSheet::SetNotApplicable(const std::string& name,
                                   const std::string& unit) {
  Set(name, 0.0, unit);
  not_applicable_.push_back(name);
}

namespace {

/// Full-precision JSON number; non-finite values (never expected) become 0
/// so the line stays valid JSON.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string RunOutcome::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics.entries()) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": " << JsonNumber(value_unit.first)
       << ", \"unit\": \"" << value_unit.second << "\"}";
  }
  os << "}}";
  return os.str();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double InterquartileMean(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t cut = samples.size() / 4;
  return Mean(std::vector<double>(samples.begin() + cut,
                                  samples.end() - cut));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks CpuTicks::Read() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealPercent(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

HistogramSnapshot HistogramSnapshot::Of(
    const hsdb::telemetry::LogHistogram& h) {
  HistogramSnapshot s;
  s.buckets.resize(static_cast<size_t>(h.num_buckets()) + 1);
  for (int i = 0; i <= h.num_buckets(); ++i) s.buckets[i] = h.BucketCount(i);
  s.count = h.count();
  s.sum = h.sum();
  return s;
}

HistogramSnapshot HistogramSnapshot::Minus(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot d = *this;
  for (size_t i = 0; i < d.buckets.size() && i < earlier.buckets.size(); ++i) {
    d.buckets[i] -= std::min(d.buckets[i], earlier.buckets[i]);
  }
  d.count -= std::min(d.count, earlier.count);
  d.sum -= earlier.sum;
  return d;
}

void HistogramSnapshot::Add(const HistogramSnapshot& other) {
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
}

double HistogramSnapshot::Quantile(const hsdb::telemetry::LogHistogram& grid,
                                   double q) const {
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  const int n = grid.num_buckets();
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (int i = 0; i <= n && i < static_cast<int>(buckets.size()); ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      const double frac = std::clamp(
          (target - static_cast<double>(cumulative)) / in_bucket, 0.0, 1.0);
      if (i >= n) return grid.UpperBound(n - 1);
      const double hi = grid.UpperBound(i);
      if (i == 0) return hi * frac;
      const double lo = grid.UpperBound(i - 1);
      return lo * std::pow(hi / lo, frac);
    }
    cumulative += in_bucket;
  }
  return grid.UpperBound(n - 1);
}

void Info(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
