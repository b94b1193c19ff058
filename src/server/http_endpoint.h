// HttpEndpoint: the pull-based introspection surface of a serving engine —
// a deliberately minimal HTTP/1.1 server (GET only, one request per
// connection, Connection: close) that exposes the live MetricsRegistry in
// Prometheus text format plus JSON status and the slow-query log. It runs
// on the same Listener (listener.h) as the SocketServer: one short-lived
// reader thread per connection, reaped once the connection closes; every
// socket shut down and every thread joined by Stop().
//
//   GET /         index of the routes below (text/plain)
//   GET /metrics  Prometheus text exposition 0.0.4 of the live registry
//   GET /status   engine status as one JSON object: uptime, layout epoch,
//                 query/error counts, latency percentiles, admission-queue
//                 depth and drain slots, epoch-pin state, adaptation-
//                 controller state, cost-feedback residuals
//   GET /slowlog  recent slow queries as a JSON array (telemetry/slowlog.h)
//
// Robustness mirrors the line-protocol contract: malformed or oversized
// requests are answered with 4xx and the connection closed — never a crash,
// never another connection affected (tests/server/http_endpoint_test.cc).
#ifndef HSDB_SERVER_HTTP_ENDPOINT_H_
#define HSDB_SERVER_HTTP_ENDPOINT_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "executor/database.h"
#include "server/listener.h"
#include "server/server.h"

namespace hsdb {
namespace server {

/// Upper bound on one HTTP request head (request line + headers). Scrapers
/// send a few hundred bytes; anything larger is answered 431 and closed.
inline constexpr size_t kMaxHttpHeaderBytes = 8 * 1024;

class HttpEndpoint {
 public:
  struct Options {
    /// TCP port to listen on (loopback only); 0 picks an ephemeral port,
    /// readable from port() after Start().
    uint16_t port = 0;
  };

  /// The database must outlive the endpoint.
  HttpEndpoint(Database* db, Options options);
  explicit HttpEndpoint(Database* db);
  ~HttpEndpoint();  // calls Stop()
  HSDB_DISALLOW_COPY_AND_ASSIGN(HttpEndpoint);

  /// Attaches the query-serving front-end so /status can report the live
  /// admission-queue depth and its drain slots. Optional; call before
  /// Start. The server must outlive the endpoint.
  void set_server(const SocketServer* server) { server_ = server; }

  /// Binds 127.0.0.1:<port> and starts the listener.
  Status Start();

  /// Stops accepting, shuts down open connections, joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (valid after Start); 0 before.
  uint16_t port() const { return listener_.port(); }

  /// Route handler, exposed for tests and the --connect scraper fallback:
  /// returns the response body for a target path ("/metrics", "/status",
  /// "/slowlog"), or empty when the route is unknown.
  std::string BodyFor(const std::string& target);

 private:
  /// Reads one request head and answers it (the listener's handler).
  void ServeConnection(int fd);
  /// Parses the request head and builds the full HTTP response bytes.
  std::string HandleHead(const std::string& head);
  std::string StatusJson();

  Database* db_;
  Options options_;
  const SocketServer* server_ = nullptr;

  std::chrono::steady_clock::time_point started_at_;

  telemetry::Counter* http_requests_total_ = nullptr;
  telemetry::Counter* http_errors_total_ = nullptr;
  telemetry::Gauge* epoch_pin_age_ms_ = nullptr;
  telemetry::Gauge* epoch_pinned_readers_ = nullptr;

  /// Last member: its destructor joins the readers, which touch all of the
  /// above.
  Listener listener_;
};

}  // namespace server
}  // namespace hsdb

#endif  // HSDB_SERVER_HTTP_ENDPOINT_H_
