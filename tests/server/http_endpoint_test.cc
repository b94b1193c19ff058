// HTTP introspection round-trip and robustness: a live HttpEndpoint over a
// served database answers /metrics (Prometheus text identical in family set
// to MetricsRegistry::ExportText), /status (JSON with live queue depth and drain slots) and
// /slowlog (JSON array), and survives the same abuse the line protocol
// does — malformed request lines, oversized heads, binary garbage, vanishing
// clients — answering 4xx per connection while staying healthy for the next
// scraper. Stop() must join every connection thread regardless of what
// state the fuzzers left their sockets in.
#include "server/http_endpoint.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "executor/database.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

/// Minimal raw HTTP client: one request, read to EOF (the endpoint answers
/// Connection: close), split head from body.
class RawHttp {
 public:
  struct Response {
    bool ok = false;       // transport-level success (any response at all)
    int code = 0;          // parsed status code
    std::string head;      // status line + headers
    std::string body;
  };

  static Response Get(uint16_t port, const std::string& target) {
    return Raw(port, "GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n");
  }

  /// Sends arbitrary bytes and reads whatever comes back until EOF.
  static Response Raw(uint16_t port, const std::string& bytes) {
    Response r;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return r;
    timeval tv{/*tv_sec=*/10, /*tv_usec=*/0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return r;
    }
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    std::string response;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    if (response.empty()) return r;
    r.ok = true;
    const size_t head_end = response.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      r.head = response;
    } else {
      r.head = response.substr(0, head_end);
      r.body = response.substr(head_end + 4);
    }
    // "HTTP/1.1 200 OK" -> 200.
    const size_t sp = r.head.find(' ');
    if (sp != std::string::npos) r.code = std::atoi(r.head.c_str() + sp + 1);
    return r;
  }
};

class HttpEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.name = "events";
    spec_.num_keyfigures = 1;
    spec_.num_filters = 1;
    spec_.num_groups = 1;
    Database::Options options;
    options.num_threads = 0;  // honor HSDB_THREADS (CI matrix)
    options.slowlog_threshold_ms = 1e-6;  // everything lands in the slowlog
    db_ = std::make_unique<Database>(options);
    ASSERT_TRUE(db_->CreateTable("events", spec_.MakeSchema(),
                                 TableLayout::SingleStore(StoreType::kColumn))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_->catalog().GetTable("events"), spec_, 5'000)
            .ok());
    db_->catalog().UpdateAllStatistics();
    server_ = std::make_unique<server::SocketServer>(db_.get());
    ASSERT_TRUE(server_->Start().ok());
    endpoint_ = std::make_unique<server::HttpEndpoint>(db_.get());
    endpoint_->set_server(server_.get());
    ASSERT_TRUE(endpoint_->Start().ok());
    ASSERT_NE(endpoint_->port(), 0);
  }

  void TearDown() override {
    endpoint_->Stop();
    server_->Stop();
  }

  /// Issue a few queries through the wire so the registry has live series.
  void GenerateTraffic() {
    server::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    for (const char* request :
         {"count events", "sum events kf0 where f0<500",
          "select events id where id<10", "count events where g0=1"}) {
      Result<server::Reply> reply = client.RoundTrip(request);
      ASSERT_TRUE(reply.ok()) << request;
      ASSERT_TRUE(reply->ok) << request << ": " << reply->error;
    }
  }

  SyntheticTableSpec spec_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<server::SocketServer> server_;
  std::unique_ptr<server::HttpEndpoint> endpoint_;
};

TEST_F(HttpEndpointTest, MetricsMatchesRegistryExport) {
  GenerateTraffic();
  // A /status probe first: its reads register controller families when no
  // controller has ticked, and those must still carry help text (the
  // Prometheus format contract CI enforces on the scrape).
  ASSERT_TRUE(RawHttp::Get(endpoint_->port(), "/status").ok);
  RawHttp::Response r = RawHttp::Get(endpoint_->port(), "/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.code, 200);
  EXPECT_NE(r.head.find("text/plain; version=0.0.4"), std::string::npos)
      << r.head;
  // Same metric families as a direct registry export. Values move between
  // the two exports (the scrape itself bumps counters), so compare the
  // HELP/TYPE family announcements, not the samples.
  const std::string direct = db_->metrics().ExportText();
  std::vector<std::string> expected_families;
  for (size_t pos = 0; pos < direct.size();) {
    size_t eol = direct.find('\n', pos);
    if (eol == std::string::npos) eol = direct.size();
    const std::string line = direct.substr(pos, eol - pos);
    if (line.rfind("# TYPE ", 0) == 0) expected_families.push_back(line);
    pos = eol + 1;
  }
  if (telemetry::kCompiledIn) {
    ASSERT_FALSE(expected_families.empty());
  }
  for (const std::string& family : expected_families) {
    EXPECT_NE(r.body.find(family), std::string::npos) << family;
  }
  // Every announced family in the scrape has a HELP line.
  for (size_t pos = 0; pos < r.body.size();) {
    size_t eol = r.body.find('\n', pos);
    if (eol == std::string::npos) eol = r.body.size();
    const std::string line = r.body.substr(pos, eol - pos);
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string name =
          line.substr(7, line.find(' ', 7) - 7);
      EXPECT_NE(r.body.find("# HELP " + name + " "), std::string::npos)
          << "family without help text: " << name;
    }
    pos = eol + 1;
  }
  if (telemetry::kCompiledIn) {
    EXPECT_NE(r.body.find("hsdb_http_requests_total"), std::string::npos);
    EXPECT_NE(r.body.find("hsdb_epoch_pin_age_ms"), std::string::npos);
    EXPECT_NE(r.body.find("hsdb_server_queue_wait_ms"), std::string::npos);
  }
}

TEST_F(HttpEndpointTest, StatusReportsEngineStateAsJson) {
  GenerateTraffic();
  RawHttp::Response r = RawHttp::Get(endpoint_->port(), "/status");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.code, 200);
  EXPECT_NE(r.head.find("application/json"), std::string::npos) << r.head;
  for (const char* key :
       {"\"uptime_s\":", "\"layout_epoch\":", "\"queries\":",
        "\"queue_depth\":", "\"drain_slots\":", "\"epoch\":",
        "\"controller\":", "\"cost_feedback\":", "\"slow_queries\":"}) {
    EXPECT_NE(r.body.find(key), std::string::npos) << key << " in " << r.body;
  }
  EXPECT_EQ(r.body.front(), '{');
  EXPECT_EQ(r.body.back(), '}');
  // The attached server's slot count, not the unattached default of 0.
  ASSERT_GE(server_->drain_slots(), 1u);
  EXPECT_NE(r.body.find("\"drain_slots\":" +
                        std::to_string(server_->drain_slots())),
            std::string::npos)
      << r.body;
}

TEST_F(HttpEndpointTest, SlowlogServesRecordedQueries) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  GenerateTraffic();
  RawHttp::Response r = RawHttp::Get(endpoint_->port(), "/slowlog");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.code, 200);
  // The hair-trigger threshold put every wire query in the log. Records
  // store the normalized QueryToString rendering, not the wire text.
  EXPECT_NE(r.body.find("FROM events"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"elapsed_ms\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"group_width\":"), std::string::npos);
  EXPECT_EQ(r.body.front(), '[');
}

TEST_F(HttpEndpointTest, IndexAndErrorRoutes) {
  RawHttp::Response index = RawHttp::Get(endpoint_->port(), "/");
  ASSERT_TRUE(index.ok);
  EXPECT_EQ(index.code, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);

  RawHttp::Response missing = RawHttp::Get(endpoint_->port(), "/nope");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.code, 404);

  RawHttp::Response post = RawHttp::Raw(
      endpoint_->port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.code, 405);

  RawHttp::Response garbage =
      RawHttp::Raw(endpoint_->port(), "complete nonsense\r\n\r\n");
  ASSERT_TRUE(garbage.ok);
  EXPECT_EQ(garbage.code, 400);

  // Query strings are stripped, not 404ed.
  RawHttp::Response with_query =
      RawHttp::Get(endpoint_->port(), "/status?format=json");
  ASSERT_TRUE(with_query.ok);
  EXPECT_EQ(with_query.code, 200);
}

TEST_F(HttpEndpointTest, OversizedHeadAnswered431) {
  std::string huge = "GET /metrics HTTP/1.1\r\n";
  huge += "X-Padding: " + std::string(server::kMaxHttpHeaderBytes, 'a');
  huge += "\r\n\r\n";
  RawHttp::Response r = RawHttp::Raw(endpoint_->port(), huge);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.code, 431);
  // The endpoint still serves the next scraper.
  RawHttp::Response next = RawHttp::Get(endpoint_->port(), "/metrics");
  ASSERT_TRUE(next.ok);
  EXPECT_EQ(next.code, 200);
}

TEST_F(HttpEndpointTest, GarbageAndVanishingClientsNeverKillTheEndpoint) {
  // Binary garbage, half requests, instant disconnects — in parallel.
  std::vector<std::thread> attackers;
  for (int a = 0; a < 4; ++a) {
    attackers.emplace_back([this, a] {
      for (int i = 0; i < 16; ++i) {
        switch ((a + i) % 3) {
          case 0:
            RawHttp::Raw(endpoint_->port(),
                         std::string("\x00\xff\x7f garbage \x01", 12) +
                             "\r\n\r\n");
            break;
          case 1: {
            // Connect and vanish mid-request (no terminator sent).
            int fd = ::socket(AF_INET, SOCK_STREAM, 0);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(endpoint_->port());
            ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
            if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0) {
              ::send(fd, "GET /met", 8, MSG_NOSIGNAL);
            }
            ::close(fd);
            break;
          }
          default:
            RawHttp::Get(endpoint_->port(), "/status");
        }
      }
    });
  }
  for (std::thread& t : attackers) t.join();
  RawHttp::Response r = RawHttp::Get(endpoint_->port(), "/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.code, 200);
  if (telemetry::kCompiledIn) {
    EXPECT_GT(
        db_->metrics().GetCounter("hsdb_http_errors_total").value(), 0u);
  }
}

TEST_F(HttpEndpointTest, StopWithScraperMidRequest) {
  // A connection holding an unterminated head when Stop() lands: the
  // reader must be shut down and joined, not left blocked in recv.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_GT(::send(fd, "GET /metrics HT", 15, MSG_NOSIGNAL), 0);
  endpoint_->Stop();  // TearDown's second Stop() is a no-op
  ::close(fd);
}

}  // namespace
}  // namespace hsdb
