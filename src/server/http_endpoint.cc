#include "server/http_endpoint.h"

#include <sys/socket.h>

#include <cstdio>

namespace hsdb {
namespace server {

namespace {

std::string HttpResponse(int code, const char* reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

constexpr char kIndexBody[] =
    "hsdb introspection endpoint\n"
    "  /metrics  Prometheus text exposition of the live registry\n"
    "  /status   engine status (JSON)\n"
    "  /slowlog  recent slow queries (JSON)\n";

}  // namespace

HttpEndpoint::HttpEndpoint(Database* db, Options options)
    : db_(db),
      options_(options),
      listener_(&db->metrics(), "http",
                [this](int fd) { ServeConnection(fd); }) {
  telemetry::MetricsRegistry& metrics = db_->metrics();
  http_requests_total_ = &metrics.GetCounter(
      "hsdb_http_requests_total",
      "HTTP requests received by the introspection endpoint.");
  http_errors_total_ = &metrics.GetCounter(
      "hsdb_http_errors_total",
      "HTTP requests answered with a 4xx/5xx status.");
  epoch_pin_age_ms_ = &metrics.GetGauge(
      "hsdb_epoch_pin_age_ms",
      "Age of the oldest live epoch pin (the reader gating reclamation), "
      "sampled at each /metrics scrape.");
  epoch_pinned_readers_ = &metrics.GetGauge(
      "hsdb_epoch_pinned_readers",
      "In-flight statements holding an epoch pin, sampled at each "
      "migration cut-over (readers the retired version must outlive).");
}

HttpEndpoint::HttpEndpoint(Database* db) : HttpEndpoint(db, Options()) {}

HttpEndpoint::~HttpEndpoint() { Stop(); }

Status HttpEndpoint::Start() {
  started_at_ = std::chrono::steady_clock::now();
  return listener_.Start(options_.port);
}

void HttpEndpoint::Stop() { listener_.Stop(); }

void HttpEndpoint::ServeConnection(int fd) {
  // One request per connection: read until the blank line that ends the
  // request head (any body is ignored — the routes are GETs), answer, close.
  std::string head;
  char chunk[2048];
  bool overflow = false;
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF, transport error, or Stop's shutdown
    head.append(chunk, static_cast<size_t>(n));
    if (head.size() > kMaxHttpHeaderBytes) {
      overflow = true;
      break;
    }
  }
  std::string response;
  if (overflow) {
    http_errors_total_->Increment();
    response = HttpResponse(431, "Request Header Fields Too Large",
                            "text/plain; charset=utf-8",
                            "request head exceeds " +
                                std::to_string(kMaxHttpHeaderBytes) +
                                " bytes\n");
  } else if (!head.empty()) {
    response = HandleHead(head);
  }
  if (!response.empty()) SendAll(fd, response);
}

std::string HttpEndpoint::HandleHead(const std::string& head) {
  http_requests_total_->Increment();
  // Request line: METHOD SP TARGET SP VERSION.
  const size_t eol = head.find_first_of("\r\n");
  const std::string request_line = head.substr(0, eol);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      request_line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    http_errors_total_->Increment();
    return HttpResponse(400, "Bad Request", "text/plain; charset=utf-8",
                        "malformed request line\n");
  }
  const std::string method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Scrapers may append query strings (?format=...); the routes take none.
  const size_t q = target.find('?');
  if (q != std::string::npos) target.resize(q);
  if (method != "GET") {
    http_errors_total_->Increment();
    return HttpResponse(405, "Method Not Allowed",
                        "text/plain; charset=utf-8",
                        "only GET is supported\n");
  }
  if (target == "/") {
    return HttpResponse(200, "OK", "text/plain; charset=utf-8", kIndexBody);
  }
  const std::string body = BodyFor(target);
  if (body.empty()) {
    http_errors_total_->Increment();
    return HttpResponse(404, "Not Found", "text/plain; charset=utf-8",
                        "unknown route " + target + "\n");
  }
  const std::string content_type =
      target == "/metrics" ? "text/plain; version=0.0.4; charset=utf-8"
                           : "application/json; charset=utf-8";
  return HttpResponse(200, "OK", content_type, body);
}

std::string HttpEndpoint::BodyFor(const std::string& target) {
  if (target == "/metrics") {
    // Sample the scrape-time gauges so the exposition is current even when
    // no migration has run recently.
    EpochManager& epochs = db_->catalog().epochs();
    epoch_pin_age_ms_->Set(epochs.OldestPinAgeMs());
    epoch_pinned_readers_->Set(static_cast<double>(epochs.pinned_readers()));
    return db_->metrics().ExportText();
  }
  if (target == "/status") return StatusJson();
  if (target == "/slowlog") return db_->slowlog().ToJson();
  return std::string();
}

std::string HttpEndpoint::StatusJson() {
  const TelemetryReport report = db_->TelemetrySnapshot();
  EpochManager& epochs = db_->catalog().epochs();
  telemetry::MetricsRegistry& metrics = db_->metrics();
  std::string out = "{";
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  out += "\"uptime_s\":" + JsonNumber(uptime_s);
  out += ",\"telemetry_enabled\":";
  out += report.enabled ? "true" : "false";
  out += ",\"layout_epoch\":" + std::to_string(report.layout_epochs);
  out += ",\"queries\":" + std::to_string(report.queries);
  out += ",\"errors\":" + std::to_string(report.errors);
  out += ",\"p50_latency_ms\":" + JsonNumber(report.p50_latency_ms);
  out += ",\"p95_latency_ms\":" + JsonNumber(report.p95_latency_ms);
  out += ",\"p99_latency_ms\":" + JsonNumber(report.p99_latency_ms);
  // Reading through GetCounter/GetGauge registers the family when its
  // owner has not yet (no server started, no controller ticked), so pass
  // the owner's help string — a help-less registration would fail the
  // /metrics format contract.
  auto counter = [&metrics](const char* name, const char* help) {
    return std::to_string(metrics.GetCounter(name, help).value());
  };
  out += ",\"connections_total\":" +
         counter("hsdb_server_connections_total",
                 "Client connections accepted by the socket server.");
  out += ",\"rejected_total\":" +
         counter("hsdb_server_rejected_total",
                 "Queries refused because the admission queue was full.");
  out += ",\"queue_depth\":" +
         std::to_string(server_ != nullptr ? server_->queue_depth() : 0);
  out += ",\"drain_slots\":" +
         std::to_string(server_ != nullptr ? server_->drain_slots() : 0);
  out += ",\"slow_queries\":" + std::to_string(db_->slowlog().slow_total());
  out += ",\"epoch\":{";
  out += "\"current\":" + std::to_string(epochs.epoch());
  out += ",\"pinned_readers\":" + std::to_string(epochs.pinned_readers());
  out += ",\"oldest_pin_age_ms\":" + JsonNumber(epochs.OldestPinAgeMs());
  out += ",\"retired\":" + std::to_string(epochs.retired_count());
  out += "},\"controller\":{";
  out += "\"drift_score\":" +
         JsonNumber(metrics
                        .GetGauge("hsdb_adapt_drift_score",
                                  "Query-weighted mean drift score at the "
                                  "last judged tick.")
                        .value());
  out += ",\"ticks_total\":" +
         counter("hsdb_adapt_ticks_total",
                 "Adaptation controller ticks, by decision.");
  out += ",\"researches_total\":" +
         counter("hsdb_adapt_researches_total",
                 "Joint-search re-runs the controller triggered.");
  out += ",\"adaptations_total\":" +
         counter("hsdb_adapt_adaptations_total",
                 "Re-searches that changed the design and began migrating.");
  out += "},\"cost_feedback\":{";
  out += "\"samples\":" + std::to_string(report.cost.global.samples);
  out += ",\"mean_rel_error\":" + JsonNumber(report.cost.global.mean_rel_error);
  out += ",\"mean_abs_rel_error\":" +
         JsonNumber(report.cost.global.mean_abs_rel_error);
  out += ",\"p95_abs_rel_error\":" +
         JsonNumber(report.cost.global.p95_abs_rel_error);
  out += "}}";
  return out;
}

}  // namespace server
}  // namespace hsdb
