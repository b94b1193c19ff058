// hsdb_server: serve a demo hybrid-store database over the line protocol.
// Loads the synthetic evaluation table ("events": id, kf* keyfigures, f*
// filter and g* group-by attributes), wires a WorkloadRecorder into the
// live request stream, and listens on 127.0.0.1 until stdin closes or a
// "quit" line is typed. Point tools/hsdb_client (or netcat) at it:
//
//   $ ./build/hsdb_server --port 7878 --rows 100000 &
//   $ ./build/hsdb_client 127.0.0.1 7878
//   > count events where f0<100
//   > sum events kf0 where g0=3
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "server/http_endpoint.h"
#include "server/server.h"
#include "workload/recorder.h"
#include "workload/synthetic.h"

using namespace hsdb;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--http-port H] [--rows N] [--threads D] "
               "[--serve-seconds S] [--slowlog-ms T]\n"
               "  --port P           listen port (default 0 = ephemeral)\n"
               "  --http-port H      introspection HTTP port "
               "(default: disabled; 0 = ephemeral)\n"
               "  --rows N           synthetic rows to load (default 100000)\n"
               "  --threads D        scan parallelism (default HSDB_THREADS)\n"
               "  --serve-seconds S  exit after S seconds instead of waiting "
               "on stdin (for CI backgrounding)\n"
               "  --slowlog-ms T     slow-query log threshold in ms "
               "(default 25)\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  int http_port = -1;  // -1 = endpoint disabled
  size_t rows = 100'000;
  int threads = 0;
  double serve_seconds = -1.0;  // <0 = serve until stdin closes
  double slowlog_ms = 25.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--http-port") == 0 && i + 1 < argc) {
      http_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--serve-seconds") == 0 && i + 1 < argc) {
      serve_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--slowlog-ms") == 0 && i + 1 < argc) {
      slowlog_ms = std::atof(argv[++i]);
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  Database::Options options;
  options.num_threads = threads;
  options.slowlog_threshold_ms = slowlog_ms;
  Database db(options);
  SyntheticTableSpec spec;
  spec.name = "events";
  HSDB_CHECK(db.CreateTable(spec.name, spec.MakeSchema(),
                            TableLayout::SingleStore(StoreType::kColumn))
                 .ok());
  HSDB_CHECK(
      PopulateSynthetic(db.catalog().GetTable(spec.name), spec, rows).ok());
  db.catalog().UpdateAllStatistics();

  // Every served query (shared-scan and per-statement alike) lands in the
  // recorder, so an advisor run over this database sees the real traffic.
  WorkloadRecorder recorder(&db.catalog());
  db.set_observer(&recorder);

  server::SocketServer::Options server_options;
  server_options.port = static_cast<uint16_t>(port);
  server::SocketServer server(&db, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  server::HttpEndpoint::Options http_options;
  http_options.port =
      http_port > 0 ? static_cast<uint16_t>(http_port) : uint16_t{0};
  server::HttpEndpoint endpoint(&db, http_options);
  endpoint.set_server(&server);
  if (http_port >= 0) {
    Status http_started = endpoint.Start();
    if (!http_started.ok()) {
      std::fprintf(stderr, "http start failed: %s\n",
                   http_started.ToString().c_str());
      server.Stop();
      return 1;
    }
  }

  std::printf("hsdb_server listening on 127.0.0.1:%u (%zu rows, dop %d)\n",
              server.port(), rows, db.num_threads());
  if (http_port >= 0) {
    std::printf("http introspection on 127.0.0.1:%u (/metrics /status "
                "/slowlog)\n",
                endpoint.port());
  }
  if (serve_seconds >= 0) {
    std::printf("serving for %.1f seconds\n", serve_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(serve_seconds));
  } else {
    std::printf("type 'quit' (or close stdin) to stop\n");
    std::fflush(stdout);
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line == "quit") break;
    }
  }
  endpoint.Stop();
  server.Stop();
  TelemetryReport report = db.TelemetrySnapshot();
  std::fputs(report.ToString().c_str(), stdout);
  return 0;
}
