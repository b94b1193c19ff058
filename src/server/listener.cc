#include "server/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace hsdb {
namespace server {

Status Errno(const char* call) {
  return Status::Internal(std::string(call) + "(): " + std::strerror(errno));
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

Listener::Listener(telemetry::MetricsRegistry* metrics,
                   const std::string& name, Handler handler)
    : handler_(std::move(handler)),
      active_(&metrics->GetGauge(
          "hsdb_server_connections_active",
          "Open client connections, by listener (line protocol or HTTP).",
          {{"listener", name}})) {}

Listener::~Listener() { Stop(); }

Status Listener::Start(uint16_t port) {
  if (listen_fd_ != -1) return Status::FailedPrecondition("already started");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  socklen_t len = sizeof(addr);
  auto fail = [fd](const char* call) {
    Status s = Errno(call);
    ::close(fd);
    return s;
  };
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0) {
    return fail("bind");
  }
  if (::listen(fd, kListenBacklog) != 0) return fail("listen");
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread(&Listener::AcceptLoop, this);
  return Status::OK();
}

void Listener::Stop() {
  if (listen_fd_ == -1) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept() first: no new connections from here on.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Unblock every reader's recv(). A slot's fd is still open while it is
  // not -1 (Serve closes and clears it under mu_), so this never shuts
  // down a reused fd number.
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Connection& conn : conns_) {
      if (conn.fd != -1) ::shutdown(conn.fd, SHUT_RDWR);
    }
    conns.swap(conns_);
  }
  for (Connection& conn : conns) conn.thread.join();
}

void Listener::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // Out of fds: the pending connection stays queued until some fd is
      // freed, so sleep instead of spinning on it. Any other error —
      // Stop()'s shutdown included — goes back to the loop condition.
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(kAcceptBackoff);
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    // Reap closed connections first. A slot reads -1 only after its reader
    // released mu_ for the last time, so join waits only for its exit.
    conns_.remove_if([](Connection& conn) {
      if (conn.fd != -1) return false;
      conn.thread.join();
      return true;
    });
    Connection& conn = conns_.emplace_back();
    conn.fd = fd;
    if (telemetry::kCompiledIn) active_->Add(1);
    try {
      conn.thread = std::thread(&Listener::Serve, this, &conn);
    } catch (const std::system_error&) {
      // No thread to serve it: drop this connection and back off.
      ::close(fd);
      conns_.pop_back();
      if (telemetry::kCompiledIn) active_->Add(-1);
      lock.unlock();
      std::this_thread::sleep_for(kAcceptBackoff);
    }
  }
}

void Listener::Serve(Connection* conn) {
  handler_(conn->fd);
  std::lock_guard<std::mutex> lock(mu_);
  ::close(conn->fd);
  conn->fd = -1;
  if (telemetry::kCompiledIn) active_->Add(-1);
}

}  // namespace server
}  // namespace hsdb
