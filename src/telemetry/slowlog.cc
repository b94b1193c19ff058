#include "telemetry/slowlog.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace hsdb {
namespace telemetry {
namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out->append(buf);
}

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

thread_local double tls_queue_wait_ms = 0.0;

}  // namespace

std::string SlowlogRecord::ToJson() const {
  std::string out;
  out.reserve(128 + query.size() + trace_summary.size());
  out.append("{\"seq\":");
  out.append(std::to_string(seq));
  out.append(",\"unix_ms\":");
  out.append(std::to_string(unix_ms));
  out.append(",\"query\":");
  AppendJsonString(&out, query);
  out.append(",\"kind\":");
  AppendJsonString(&out, kind);
  out.append(",\"elapsed_ms\":");
  AppendJsonDouble(&out, elapsed_ms);
  out.append(",\"queue_wait_ms\":");
  AppendJsonDouble(&out, queue_wait_ms);
  out.append(",\"predicted_cost_ms\":");
  AppendJsonDouble(&out, predicted_cost_ms);
  out.append(",\"trace\":");
  AppendJsonString(&out, trace_summary);
  out.append(",\"shared\":");
  out.append(shared ? "true" : "false");
  out.append(",\"group_width\":");
  out.append(std::to_string(group_width));
  out.push_back('}');
  return out;
}

Slowlog::Slowlog() : Slowlog(Options()) {}

Slowlog::Slowlog(Options options)
    : threshold_ms_(options.threshold_ms),
      sample_every_(options.sample_every == 0 ? 1 : options.sample_every),
      capacity_(options.capacity) {}

void Slowlog::Configure(Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  threshold_ms_.store(options.threshold_ms, std::memory_order_relaxed);
  sample_every_.store(options.sample_every == 0 ? 1 : options.sample_every,
                      std::memory_order_relaxed);
  capacity_ = options.capacity;
  while (ring_.size() > capacity_) ring_.pop_front();
}

bool Slowlog::ShouldRecord(double elapsed_ms) {
  const double threshold = threshold_ms_.load(std::memory_order_relaxed);
  if (threshold <= 0.0 || elapsed_ms < threshold) return false;
  const uint64_t n = slow_total_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t every = sample_every_.load(std::memory_order_relaxed);
  return every <= 1 || (n % every) == 0;
}

void Slowlog::Record(SlowlogRecord record) {
  record.unix_ms = NowUnixMs();
  std::lock_guard<std::mutex> lock(mu_);
  record.seq = next_seq_++;
  if (capacity_ == 0) return;
  if (ring_.size() >= capacity_) ring_.pop_front();
  ring_.push_back(std::move(record));
}

std::vector<SlowlogRecord> Slowlog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowlogRecord>(ring_.begin(), ring_.end());
}

std::string Slowlog::ToJson() const {
  const std::vector<SlowlogRecord> records = Snapshot();
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(records[i].ToJson());
  }
  out.push_back(']');
  return out;
}

std::string Slowlog::ToJsonLines() const {
  const std::vector<SlowlogRecord> records = Snapshot();
  std::string out;
  for (const SlowlogRecord& record : records) {
    out.append(record.ToJson());
    out.push_back('\n');
  }
  return out;
}

size_t Slowlog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void Slowlog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

ScopedQueueWait::ScopedQueueWait(double wait_ms) : previous_(tls_queue_wait_ms) {
  tls_queue_wait_ms = wait_ms;
}

ScopedQueueWait::~ScopedQueueWait() { tls_queue_wait_ms = previous_; }

double CurrentQueueWaitMs() { return tls_queue_wait_ms; }

}  // namespace telemetry
}  // namespace hsdb
