// hsdb_stat: exercise the engine with a small synthetic workload and dump
// the telemetry it produced — the quickest way to see every metric the
// engine exports and to smoke-test a scrape pipeline without wiring a real
// deployment. With --connect it scrapes a *live* hsdb_server's HTTP
// introspection endpoint instead of running the in-process workload.
//
//   $ ./build/hsdb_stat              # human-readable telemetry report
//   $ ./build/hsdb_stat --text      # Prometheus text exposition
//   $ ./build/hsdb_stat --json     # JSON exposition
//   $ ./build/hsdb_stat --queries 2000 --text
//   $ ./build/hsdb_stat --slowlog --queries 500    # slow queries as JSONL
//   $ ./build/hsdb_stat --connect 127.0.0.1:8080           # /metrics+/status
//   $ ./build/hsdb_stat --connect 127.0.0.1:8080 --slowlog # /slowlog
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/advisor.h"
#include "online/controller.h"
#include "server/listener.h"
#include "workload/generator.h"
#include "workload/runner.h"

using namespace hsdb;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--text | --json | --report | --slowlog] [--queries N]\n"
      "       %s --connect HOST:PORT [--text | --slowlog | --status]\n"
      "  --report        human-readable telemetry snapshot (default)\n"
      "  --text          Prometheus text exposition format\n"
      "  --json          JSON exposition\n"
      "  --slowlog       slow-query log as JSON lines\n"
      "  --queries N     synthetic queries to run (default 1000)\n"
      "  --connect H:P   scrape a live server's HTTP endpoint instead of\n"
      "                  running the in-process workload (default scrape:\n"
      "                  /metrics then /status)\n"
      "  --status        with --connect: scrape only /status\n",
      argv0, argv0);
}

// Minimal HTTP/1.0-style GET over a raw socket: connects, sends the request,
// returns the response body (everything after the blank line). No external
// HTTP library — the endpoint answers one request per connection and closes,
// which is exactly the framing we read to EOF here.
bool HttpGet(const std::string& host, int port, const std::string& target,
             std::string* body, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0) {
    *error = std::string("getaddrinfo: ") + ::gai_strerror(rc);
    return false;
  }
  int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    ::freeaddrinfo(res);
    return false;
  }
  if (::connect(fd, res->ai_addr, res->ai_addrlen) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::freeaddrinfo(res);
    ::close(fd);
    return false;
  }
  ::freeaddrinfo(res);
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!server::SendAll(fd, request)) {
    *error = std::string("send: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    *error = "malformed response (no header terminator)";
    return false;
  }
  const std::string status_line = response.substr(0, response.find("\r\n"));
  if (status_line.find(" 200 ") == std::string::npos) {
    *error = "server answered: " + status_line;
    return false;
  }
  *body = response.substr(head_end + 4);
  return true;
}

int ScrapeLive(const std::string& host, int port, bool slowlog, bool status,
               bool text_only) {
  std::string body;
  std::string error;
  if (slowlog) {
    if (!HttpGet(host, port, "/slowlog", &body, &error)) {
      std::fprintf(stderr, "scrape /slowlog failed: %s\n", error.c_str());
      return 1;
    }
    std::fputs(body.c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  if (status) {
    if (!HttpGet(host, port, "/status", &body, &error)) {
      std::fprintf(stderr, "scrape /status failed: %s\n", error.c_str());
      return 1;
    }
    std::fputs(body.c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  if (!HttpGet(host, port, "/metrics", &body, &error)) {
    std::fprintf(stderr, "scrape /metrics failed: %s\n", error.c_str());
    return 1;
  }
  std::fputs(body.c_str(), stdout);
  if (text_only) return 0;
  if (!HttpGet(host, port, "/status", &body, &error)) {
    std::fprintf(stderr, "scrape /status failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("\n# status\n%s\n", body.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kReport, kText, kJson, kSlowlog };
  Mode mode = Mode::kReport;
  int queries = 1000;
  std::string connect;
  bool status_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--text") == 0) {
      mode = Mode::kText;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      mode = Mode::kJson;
    } else if (std::strcmp(argv[i], "--report") == 0) {
      mode = Mode::kReport;
    } else if (std::strcmp(argv[i], "--slowlog") == 0) {
      mode = Mode::kSlowlog;
    } else if (std::strcmp(argv[i], "--status") == 0) {
      status_only = true;
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = std::atoi(argv[++i]);
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  if (!connect.empty()) {
    const size_t colon = connect.rfind(':');
    if (colon == std::string::npos || colon + 1 >= connect.size()) {
      std::fprintf(stderr, "--connect wants HOST:PORT, got '%s'\n",
                   connect.c_str());
      return 2;
    }
    const std::string host = connect.substr(0, colon);
    const int port = std::atoi(connect.c_str() + colon + 1);
    return ScrapeLive(host, port, mode == Mode::kSlowlog, status_only,
                      mode == Mode::kText);
  }

  // A mixed OLTP/OLAP stream over one synthetic table, with the advisor
  // attached so every query carries a predicted cost (the residual metrics
  // need a prediction to compare the observation against) and one online
  // re-search + adaptation tick populates the advisor/controller metrics.
  SyntheticTableSpec spec;
  spec.name = "events";
  const size_t rows = 20'000;

  Database::Options db_options;
  if (mode == Mode::kSlowlog) {
    // Everything qualifies as "slow" so the log has content to show.
    db_options.slowlog_threshold_ms = 0.0001;
  }
  Database db(db_options);
  HSDB_CHECK(db.CreateTable(spec.name, spec.MakeSchema(),
                            TableLayout::SingleStore(StoreType::kColumn))
                 .ok());
  HSDB_CHECK(
      PopulateSynthetic(db.catalog().GetTable(spec.name), spec, rows).ok());
  db.catalog().UpdateAllStatistics();

  StorageAdvisor advisor(&db);
  advisor.StartRecording();

  WorkloadOptions opts;
  opts.olap_fraction = 0.4;
  opts.seed = 7;
  SyntheticWorkloadGenerator gen(spec, rows, opts);
  RunWorkload(db, gen.Generate(static_cast<size_t>(queries)));

  Result<Recommendation> rec = advisor.RecommendOnline();
  if (rec.ok()) {
    (void)advisor.Apply(*rec);
  }
  AdaptationOptions adapt;
  adapt.min_epoch_queries = 1;
  AdaptationController& controller = advisor.StartAutoAdapt(adapt);
  RunWorkload(db, gen.Generate(static_cast<size_t>(queries) / 4 + 1));
  controller.Tick();
  advisor.StopAutoAdapt();
  advisor.StopRecording();

  switch (mode) {
    case Mode::kText:
      std::fputs(db.metrics().ExportText().c_str(), stdout);
      break;
    case Mode::kJson:
      std::fputs(db.metrics().ExportJson().c_str(), stdout);
      std::fputc('\n', stdout);
      break;
    case Mode::kSlowlog:
      std::fputs(db.slowlog().ToJsonLines().c_str(), stdout);
      break;
    case Mode::kReport: {
      TelemetryReport report = db.TelemetrySnapshot();
      std::fputs(report.ToString().c_str(), stdout);
      if (!telemetry::kCompiledIn) {
        std::puts("(built with HSDB_TELEMETRY=OFF)");
      }
      break;
    }
  }
  return 0;
}
