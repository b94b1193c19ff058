// SocketServer: the TCP serving front-end over a Database. Its Listener
// (listener.h) accepts each client connection onto its own reader thread;
// reader threads parse line-protocol requests (protocol.h), answer control
// commands inline, and run every query BatchExecutor::Shareable rejects
// (writes, point lookups, joins) through Database::Execute themselves.
// Shareable reads go into a bounded AdmissionQueue, and the reader that
// admits one drains the queue itself through a BatchExecutor while one of
// drain_slots() slots is free. Up to that many reads therefore run at once,
// each on its own reader; beyond it, reads queue and the active drainers
// execute them as shared-scan batches (ARCHITECTURE.md §9). A drainer stops
// once its own read is answered, handing its slot to a waiting reader if it
// was the last, so no client waits on other clients' reads beyond the
// batches ahead of its own. There is no server-owned worker thread. Each
// connection has at most one request in flight — batch width comes from
// client concurrency beyond the slot count, the paper's serving scenario of
// many analytic clients hitting the same hot tables.
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
#include <future>
#include <string>

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
    /// Most queries a drainer pops into one shared-scan batch.
    size_t max_batch = 32;
  };

  /// The database must outlive the server. Install the workload observer
  /// (WorkloadRecorder) and cost predictor on the database before Start so
  /// the live request stream feeds them from the first query.
  SocketServer(Database* db, Options options);
  explicit SocketServer(Database* db);  // default options
  ~SocketServer();  // calls Stop()
  HSDB_DISALLOW_COPY_AND_ASSIGN(SocketServer);

  /// Binds 127.0.0.1:<port> and starts the listener.
  Status Start();

  /// Stops the listener, which shuts down every connection and joins every
  /// reader once its read in flight is answered (by its own drain or
  /// another's), then closes the admission queue. Idempotent.
  void Stop();

  /// The bound port (valid after Start); 0 before.
  uint16_t port() const { return listener_.port(); }

  /// Live admission-queue depth (the HTTP /status endpoint reads this).
  size_t queue_depth() const { return queue_.depth(); }

  /// How many readers may drain the admission queue at once:
  /// DrainSlots(hardware cores, the database's DOP), fixed at construction.
  size_t drain_slots() const { return queue_.slots(); }

 private:
  /// Reader loop of one connection (the listener's handler).
  void ServeConnection(int fd);
  /// Executes queued batches on the calling reader, which holds a drain
  /// slot, until the read behind `own` is answered or the queue is empty;
  /// then gives the slot up (AdmissionQueue::PopBatchOrRetire).
  void Drain(const std::future<Wakeup>& own);
  /// Handles one complete request line; returns the response block and
  /// whether the connection should close (quit).
  std::string HandleLine(const std::string& line, bool* close_conn);
  std::string HandleControl(const Request& request);
  std::string HandleQuery(Query query);
  /// Queues a shareable read, drains the queue while it holds a slot
  /// (granted at the push or handed over later), and returns the read's
  /// result.
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

  telemetry::Counter* connections_total_ = nullptr;
  telemetry::Counter* requests_total_ = nullptr;
  telemetry::Counter* protocol_errors_total_ = nullptr;
  telemetry::Counter* rejected_total_ = nullptr;
  telemetry::Counter* batches_total_ = nullptr;
  telemetry::LogHistogram* batch_width_ = nullptr;
  telemetry::LogHistogram* queue_wait_ms_ = nullptr;
  telemetry::LogHistogram* batch_formation_ms_ = nullptr;

  /// Last member: its destructor joins the readers, which touch all of the
  /// above.
  Listener listener_;
};

}  // namespace server
}  // namespace hsdb

#endif  // HSDB_SERVER_SERVER_H_
