// Listener lifecycle: the one accept loop behind SocketServer and
// HttpEndpoint must keep a long-lived server's footprint proportional to
// its *open* connections, and must keep accepting after accept() fails.
//
// Footprint is measured as /proc/self/maps lines, not /proc/self/task: a
// finished thread's kernel task goes away even if nobody joins it, but its
// std::thread keeps the 8 MiB stack (and guard page) mapped until joined.
#include "server/listener.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "executor/database.h"
#include "server/client.h"
#include "server/http_endpoint.h"
#include "server/server.h"

namespace hsdb {
namespace {

size_t MapsLines() {
  std::ifstream in("/proc/self/maps");
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

bool Connect(int fd, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

/// Sends `request` on a fresh loopback connection and returns everything
/// received until the server closes it, or until a 5 s receive timeout (an
/// empty string when nothing came back).
std::string Exchange(uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval tv{/*tv_sec=*/5, /*tv_usec=*/0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string response;
  if (Connect(fd, port) && server::SendAll(fd, request)) {
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

constexpr char kPingQuit[] = "ping\nquit\n";
constexpr char kPongReply[] = "ok 1\npong\nok 0\n";
constexpr char kScrape[] = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";

bool IsHttp200(const std::string& response) {
  return response.rfind("HTTP/1.1 200 ", 0) == 0;
}

class ListenerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.num_threads = 0;  // honor HSDB_THREADS (CI matrix)
    options.metrics = &metrics_;
    db_ = std::make_unique<Database>(options);
    server_ = std::make_unique<server::SocketServer>(db_.get());
    ASSERT_TRUE(server_->Start().ok());
    endpoint_ = std::make_unique<server::HttpEndpoint>(db_.get());
    endpoint_->set_server(server_.get());
    ASSERT_TRUE(endpoint_->Start().ok());
  }

  void TearDown() override {
    endpoint_->Stop();
    server_->Stop();
  }

  double Active(const char* listener) {
    return metrics_
        .GetGauge("hsdb_server_connections_active", "",
                  {{"listener", listener}})
        .value();
  }

  /// Polls until both listeners report no open connection (the reader
  /// closes its fd asynchronously after the client's close).
  bool DrainsToZero() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Active("line") != 0.0 || Active("http") != 0.0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

  telemetry::MetricsRegistry metrics_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<server::SocketServer> server_;
  std::unique_ptr<server::HttpEndpoint> endpoint_;
};

TEST_F(ListenerTest, ClosedConnectionsAreReaped) {
  constexpr int kCycles = 2'000;
  // Warm up: the allocator's per-thread arenas and the thread-stack cache
  // reach their steady state within the first connections.
  for (int i = 0; i < 50; ++i) {
    Exchange(endpoint_->port(), kScrape);
    Exchange(server_->port(), kPingQuit);
  }
  const size_t maps_before = MapsLines();
  int failed_scrapes = 0;
  for (int i = 0; i < kCycles; ++i) {
    if (!IsHttp200(Exchange(endpoint_->port(), kScrape))) ++failed_scrapes;
  }
  int failed_pings = 0;
  for (int i = 0; i < kCycles; ++i) {
    server::Client client;
    if (!client.Connect("127.0.0.1", server_->port()).ok()) {
      ++failed_pings;
      continue;
    }
    Result<server::Reply> reply = client.RoundTrip("ping");
    if (!reply.ok() || !reply->ok ||
        reply->lines != std::vector<std::string>{"pong"}) {
      ++failed_pings;
    }
  }
  const size_t maps_after = MapsLines();
  EXPECT_EQ(failed_scrapes, 0);
  EXPECT_EQ(failed_pings, 0);
  // Unreaped, each of the 4,000 closed connections would keep its stack
  // mapped: ~8,000 more lines.
  EXPECT_LT(maps_after, maps_before + 64)
      << "maps grew from " << maps_before << " to " << maps_after
      << " lines over " << 2 * kCycles << " closed connections";
  if (telemetry::kCompiledIn) {
    EXPECT_TRUE(DrainsToZero()) << "line " << Active("line") << ", http "
                                << Active("http");
  }
}

TEST_F(ListenerTest, AcceptSurvivesFdExhaustion) {
  // Client sockets first: connect() needs no new fd, but the listeners'
  // accept() does.
  const int line_client = ::socket(AF_INET, SOCK_STREAM, 0);
  const int http_client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(line_client, 0);
  ASSERT_GE(http_client, 0);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 256);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> hogs;
  for (int fd; (fd = ::dup(line_client)) >= 0;) hogs.push_back(fd);
  const int dup_errno = errno;
  const bool line_connected = Connect(line_client, server_->port());
  const bool http_connected = Connect(http_client, endpoint_->port());
  // Long enough for both accept loops to hit EMFILE.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int fd : hogs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ::close(line_client);
  ::close(http_client);
  ASSERT_EQ(dup_errno, EMFILE);
  ASSERT_TRUE(line_connected);
  ASSERT_TRUE(http_connected);

  EXPECT_EQ(Exchange(server_->port(), kPingQuit), kPongReply);
  EXPECT_TRUE(IsHttp200(Exchange(endpoint_->port(), kScrape)));
}

TEST(ListenerUnitTest, HandlerRunsPerConnectionAndStopJoinsOpenOnes) {
  telemetry::MetricsRegistry metrics;
  // Echo one read back, then wait for EOF (or Stop's shutdown).
  server::Listener listener(&metrics, "test", [](int fd) {
    char chunk[64];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      server::SendAll(fd, std::string(chunk, static_cast<size_t>(n)));
    }
    while (::recv(fd, chunk, sizeof(chunk), 0) > 0) {
    }
  });
  ASSERT_TRUE(listener.Start(0).ok());
  EXPECT_FALSE(listener.Start(0).ok());
  std::vector<int> clients;
  for (int i = 0; i < 3; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_TRUE(Connect(fd, listener.port()));
    ASSERT_TRUE(server::SendAll(fd, "hi"));
    char reply[2];
    ASSERT_EQ(::recv(fd, reply, sizeof(reply), MSG_WAITALL), 2);
    clients.push_back(fd);
  }
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(metrics
                  .GetGauge("hsdb_server_connections_active", "",
                            {{"listener", "test"}})
                  .value(),
              3.0);
  }
  // All three handlers are still blocked in recv(): Stop must unblock and
  // join them.
  listener.Stop();
  listener.Stop();  // idempotent
  for (int fd : clients) {
    char byte;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // the listener closed its end
    ::close(fd);
  }
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(metrics
                  .GetGauge("hsdb_server_connections_active", "",
                            {{"listener", "test"}})
                  .value(),
              0.0);
  }
}

}  // namespace
}  // namespace hsdb
