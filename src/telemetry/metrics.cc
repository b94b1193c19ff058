#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace hsdb {
namespace telemetry {

namespace {

/// Renders sorted labels as {a="x",b="y"}; empty labels render as "".
std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) os << ",";
    os << sorted[i].first << "=\"" << sorted[i].second << "\"";
  }
  os << "}";
  return os.str();
}

/// Prometheus-friendly number rendering: integers without a decimal point,
/// everything else with enough digits to round-trip reasonably.
std::string RenderNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    std::ostringstream os;
    os << static_cast<int64_t>(v);
    return os.str();
  }
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

/// Inserts extra label pairs (e.g. le="...") into a rendered label string.
std::string WithExtraLabel(const std::string& rendered,
                           const std::string& key,
                           const std::string& value) {
  std::ostringstream os;
  if (rendered.empty()) {
    os << "{" << key << "=\"" << value << "\"}";
  } else {
    // rendered == "{...}": splice before the closing brace.
    os << rendered.substr(0, rendered.size() - 1) << "," << key << "=\""
       << value << "\"}";
  }
  return os.str();
}

std::string JsonEscape(const std::string& s) {
  std::ostringstream os;
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  return os.str();
}

}  // namespace

// ---- LogHistogram ----------------------------------------------------------

LogHistogram::LogHistogram(double min_bound, int num_buckets)
    : min_bound_(min_bound),
      num_buckets_(num_buckets),
      buckets_(new std::atomic<uint64_t>[num_buckets + 1]) {
  for (int i = 0; i <= num_buckets_; ++i) buckets_[i].store(0);
}

double LogHistogram::UpperBound(int i) const {
  if (i >= num_buckets_) return std::numeric_limits<double>::infinity();
  return min_bound_ * std::pow(2.0, i);
}

void LogHistogram::Observe(double value) {
  int idx;
  if (!(value > min_bound_)) {  // NaN and negatives land in bucket 0
    idx = 0;
  } else {
    idx = static_cast<int>(std::ceil(std::log2(value / min_bound_)));
    // Guard the boundary: floating-point log can land one bucket early.
    if (idx < num_buckets_ && value > UpperBound(idx)) ++idx;
    if (idx > num_buckets_) idx = num_buckets_;
  }
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // New extremes only; a failed exchange reloads the current one.
  for (double lo = min_.load(std::memory_order_relaxed); value < lo &&
       !min_.compare_exchange_weak(lo, value, std::memory_order_relaxed);) {
  }
  for (double hi = max_.load(std::memory_order_relaxed); value > hi &&
       !max_.compare_exchange_weak(hi, value, std::memory_order_relaxed);) {
  }
}

double LogHistogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  double estimate = UpperBound(num_buckets_ - 1);
  uint64_t cumulative = 0;
  for (int i = 0; i < num_buckets_; ++i) {
    const uint64_t in_bucket = BucketCount(i);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      const double frac =
          std::clamp((target - static_cast<double>(cumulative)) /
                         static_cast<double>(in_bucket),
                     0.0, 1.0);
      const double hi = UpperBound(i);
      const double lo = i == 0 ? 0.0 : UpperBound(i - 1);
      // Log-linear interpolation inside the bucket; the first bucket has
      // no positive lower bound, interpolate linearly from 0 instead.
      estimate = i == 0 ? hi * frac : lo * std::pow(hi / lo, frac);
      break;
    }
    cumulative += in_bucket;
  }
  // Never below the smallest or above the largest observation (NaNs alone
  // leave no extremes).
  const double min = min_.load(std::memory_order_relaxed);
  const double max = max_.load(std::memory_order_relaxed);
  return min <= max ? std::clamp(estimate, min, max) : estimate;
}

void LogHistogram::Reset() {
  for (int i = 0; i <= num_buckets_; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// ---- MetricsRegistry -------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Family& MetricsRegistry::FamilyFor(const std::string& name,
                                                    MetricType type,
                                                    const std::string& help) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family family;
    family.type = type;
    family.help = help;
    it = families_.emplace(name, std::move(family)).first;
  } else if (it->second.type != type) {
    // Type conflict: never corrupt the existing family; park the offender
    // under a distinct name so the caller still gets a working metric.
    return FamilyFor(name + "_conflict", type, help);
  }
  if (it->second.help.empty() && !help.empty()) it->second.help = help;
  return it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, MetricType::kCounter, help);
  Series& series = family.series[RenderLabels(labels)];
  if (series.counter == nullptr) {
    series.labels = labels;
    series.counter = std::make_unique<Counter>();
  }
  return *series.counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, MetricType::kGauge, help);
  Series& series = family.series[RenderLabels(labels)];
  if (series.gauge == nullptr) {
    series.labels = labels;
    series.gauge = std::make_unique<Gauge>();
  }
  return *series.gauge;
}

LogHistogram& MetricsRegistry::GetHistogram(const std::string& name,
                                            const std::string& help,
                                            const Labels& labels,
                                            double min_bound,
                                            int num_buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, MetricType::kHistogram, help);
  Series& series = family.series[RenderLabels(labels)];
  if (series.histogram == nullptr) {
    series.labels = labels;
    series.histogram = std::make_unique<LogHistogram>(min_bound, num_buckets);
  }
  return *series.histogram;
}

std::string MetricsRegistry::ExportText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      os << "# HELP " << name << " " << family.help << "\n";
    }
    os << "# TYPE " << name << " ";
    switch (family.type) {
      case MetricType::kCounter:
        os << "counter\n";
        break;
      case MetricType::kGauge:
        os << "gauge\n";
        break;
      case MetricType::kHistogram:
        os << "histogram\n";
        break;
    }
    for (const auto& [rendered, series] : family.series) {
      switch (family.type) {
        case MetricType::kCounter:
          os << name << rendered << " " << series.counter->value() << "\n";
          break;
        case MetricType::kGauge:
          os << name << rendered << " "
             << RenderNumber(series.gauge->value()) << "\n";
          break;
        case MetricType::kHistogram: {
          const LogHistogram& h = *series.histogram;
          uint64_t cumulative = 0;
          for (int i = 0; i <= h.num_buckets(); ++i) {
            cumulative += h.BucketCount(i);
            // Skip interior empty prefixes? Prometheus requires the full
            // cumulative series; emit only buckets that close a change plus
            // the +Inf bucket to keep the exposition readable and small.
            if (h.BucketCount(i) == 0 && i < h.num_buckets()) continue;
            const double ub = h.UpperBound(i);
            os << name << "_bucket"
               << WithExtraLabel(rendered, "le",
                                 std::isinf(ub) ? "+Inf" : RenderNumber(ub))
               << " " << cumulative << "\n";
          }
          os << name << "_sum" << rendered << " " << RenderNumber(h.sum())
             << "\n";
          os << name << "_count" << rendered << " " << h.count() << "\n";
          break;
        }
      }
    }
  }
  return os.str();
}

std::string MetricsRegistry::ExportJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream counters, gauges, histograms;
  bool first_c = true, first_g = true, first_h = true;
  for (const auto& [name, family] : families_) {
    for (const auto& [rendered, series] : family.series) {
      const std::string key = JsonEscape(name + rendered);
      switch (family.type) {
        case MetricType::kCounter:
          counters << (first_c ? "" : ", ") << "\"" << key
                   << "\": " << series.counter->value();
          first_c = false;
          break;
        case MetricType::kGauge:
          gauges << (first_g ? "" : ", ") << "\"" << key
                 << "\": " << RenderNumber(series.gauge->value());
          first_g = false;
          break;
        case MetricType::kHistogram: {
          const LogHistogram& h = *series.histogram;
          histograms << (first_h ? "" : ", ") << "\"" << key << "\": {"
                     << "\"count\": " << h.count()
                     << ", \"sum\": " << RenderNumber(h.sum())
                     << ", \"p50\": " << RenderNumber(h.Quantile(0.5))
                     << ", \"p95\": " << RenderNumber(h.Quantile(0.95))
                     << ", \"p99\": " << RenderNumber(h.Quantile(0.99))
                     << "}";
          first_h = false;
          break;
        }
      }
    }
  }
  std::ostringstream os;
  os << "{\"counters\": {" << counters.str() << "}, \"gauges\": {"
     << gauges.str() << "}, \"histograms\": {" << histograms.str() << "}}";
  return os.str();
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    for (auto& [rendered, series] : family.series) {
      if (series.counter != nullptr) series.counter->Reset();
      if (series.gauge != nullptr) series.gauge->Reset();
      if (series.histogram != nullptr) series.histogram->Reset();
    }
  }
}

}  // namespace telemetry
}  // namespace hsdb
