// Listener: the one TCP accept loop behind both serving front-ends (the
// line-protocol SocketServer and the HTTP endpoint). It binds
// 127.0.0.1:<port> and runs each accepted connection on its own reader
// thread through the owner's handler. The listener owns every connection
// fd: the handler never closes it; the listener closes it and frees its
// slot in one critical section, the same lock Stop() holds while shutting
// open fds down, so Stop() never shuts down a reused fd number.
//
// Closed connections' threads are joined at every accept and in Stop(), so
// threads and stacks stay proportional to *open* connections
// (tests/server/listener_test.cc). Only Stop() ends the accept loop: on
// EMFILE/ENFILE or a failed thread start it sleeps kAcceptBackoff and
// retries; on any other error it retries at once.
#ifndef HSDB_SERVER_LISTENER_H_
#define HSDB_SERVER_LISTENER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "common/macros.h"
#include "common/result.h"
#include "telemetry/metrics.h"

namespace hsdb {
namespace server {

/// Internal("<call>(): <strerror(errno)>").
Status Errno(const char* call);

/// Sends all of `data`; false on a send error (errno set). A vanished peer
/// is a false return, never a SIGPIPE.
bool SendAll(int fd, const std::string& data);

class Listener {
 public:
  /// Serves one connection on its reader thread; returns when done.
  using Handler = std::function<void(int fd)>;

  static constexpr int kListenBacklog = 64;
  /// Accept-loop sleep when the process is out of fds or threads.
  static constexpr std::chrono::milliseconds kAcceptBackoff{5};

  /// `name` labels this listener's hsdb_server_connections_active series.
  /// The registry must outlive the listener.
  Listener(telemetry::MetricsRegistry* metrics, const std::string& name,
           Handler handler);
  ~Listener();  // calls Stop()
  HSDB_DISALLOW_COPY_AND_ASSIGN(Listener);

  /// Binds 127.0.0.1:<port> (0 = ephemeral) and starts the accept thread.
  Status Start(uint16_t port);

  /// Stops accepting, shuts down every open connection and joins every
  /// thread. Idempotent.
  void Stop();

  /// The bound port (valid after Start); 0 before.
  uint16_t port() const { return port_; }

 private:
  struct Connection {
    int fd = -1;  // -1 once closed
    std::thread thread;
  };

  void AcceptLoop();
  /// Reader-thread body: the handler, then close the fd under mu_.
  void Serve(Connection* conn);

  Handler handler_;
  telemetry::Gauge* active_;
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  /// Guards conns_ and every Connection::fd. A list: each reader holds a
  /// pointer to its own slot.
  std::mutex mu_;
  std::list<Connection> conns_;
  std::thread accept_thread_;
};

}  // namespace server
}  // namespace hsdb

#endif  // HSDB_SERVER_LISTENER_H_
