// SocketServer: the TCP serving front-end over a Database. Its Listener
// (listener.h) accepts each client connection onto its own reader thread;
// reader threads parse line-protocol requests (protocol.h), answer control
// commands inline, and run every query BatchExecutor::Shareable rejects
// (writes, point lookups, joins) through Database::Execute themselves.
// Shareable reads go into a bounded AdmissionQueue that a single batch
// worker drains through a BatchExecutor, so scans arriving together on
// different connections execute as shared-scan batches (ARCHITECTURE.md
// §9). Each connection has at most one request in flight — batch width
// comes from client concurrency, the paper's serving scenario of many
// analytic clients hitting the same hot tables.
//
// Robustness contract (tests/server/protocol_fuzz_test.cc): malformed
// requests get an "err" reply and the connection stays open; an oversized
// line (no newline within kMaxLineBytes) or a transport error closes that
// connection only. The server never crashes or leaks a thread on bad input;
// a closed connection's thread is reaped by the listener, and Stop() (or
// destruction) joins every thread still running.
#ifndef HSDB_SERVER_SERVER_H_
#define HSDB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "executor/batch_executor.h"
#include "executor/database.h"
#include "server/admission_queue.h"
#include "server/listener.h"
#include "server/protocol.h"

namespace hsdb {
namespace server {

class SocketServer {
 public:
  struct Options {
    /// TCP port to listen on (loopback only); 0 picks an ephemeral port,
    /// readable from port() after Start().
    uint16_t port = 0;
    /// Admission-queue capacity; shareable reads beyond it get "err busy".
    size_t queue_capacity = 256;
    /// Most queries the worker drains into one shared-scan batch.
    size_t max_batch = 32;
  };

  /// The database must outlive the server. Install the workload observer
  /// (WorkloadRecorder) and cost predictor on the database before Start so
  /// the live request stream feeds them from the first query.
  SocketServer(Database* db, Options options);
  explicit SocketServer(Database* db);  // default options
  ~SocketServer();  // calls Stop()
  HSDB_DISALLOW_COPY_AND_ASSIGN(SocketServer);

  /// Binds 127.0.0.1:<port>, starts the listener and the batch worker.
  Status Start();

  /// Stops the listener (which shuts down and joins every reader), then
  /// closes the admission queue and joins the worker once it has drained
  /// it. Idempotent.
  void Stop();

  /// The bound port (valid after Start); 0 before.
  uint16_t port() const { return listener_.port(); }

  /// Live admission-queue depth (the HTTP /status endpoint reads this).
  size_t queue_depth() const { return queue_.depth(); }

 private:
  /// Reader loop of one connection (the listener's handler).
  void ServeConnection(int fd);
  void WorkerLoop();
  /// Handles one complete request line; returns the response block and
  /// whether the connection should close (quit).
  std::string HandleLine(const std::string& line, bool* close_conn);
  std::string HandleControl(const Request& request);
  std::string HandleQuery(Query query);
  /// Queues a shareable read and waits for the worker's result.
  Result<QueryResult> Admit(Query query);
  /// explain / explain analyze run inline on the reader thread (they are
  /// introspection, not traffic — they skip the admission queue so a full
  /// queue can still be diagnosed).
  std::string HandleExplain(const Request& request);
  bool TelemetryOn() const;

  Database* db_;
  Options options_;
  AdmissionQueue queue_;
  BatchExecutor batch_;

  std::atomic<bool> stopping_{false};
  std::thread worker_thread_;

  telemetry::Counter* connections_total_ = nullptr;
  telemetry::Counter* requests_total_ = nullptr;
  telemetry::Counter* protocol_errors_total_ = nullptr;
  telemetry::Counter* rejected_total_ = nullptr;
  telemetry::Counter* batches_total_ = nullptr;
  telemetry::LogHistogram* batch_width_ = nullptr;
  telemetry::LogHistogram* queue_wait_ms_ = nullptr;
  telemetry::LogHistogram* batch_formation_ms_ = nullptr;
  telemetry::Gauge* queue_depth_ = nullptr;

  /// Last member: its destructor joins the readers, which touch all of the
  /// above.
  Listener listener_;
};

}  // namespace server
}  // namespace hsdb

#endif  // HSDB_SERVER_SERVER_H_
