// Serving tour: the full client/server path from docs/ARCHITECTURE.md §9.
// An in-process SocketServer fronts the database; every statement in this
// demo travels the wire as a line-protocol request from a server::Client —
// nothing calls Database::Execute directly. A client's connection thread
// drains the admission queue itself while one of the server's drain slots
// (one per core the scan pool leaves free) is free. The tour runs twice as
// many client threads as there are slots, so the analytic phase's extra
// scans queue and run as shared-scan groups (one decode pass per predicate
// column, fanned out to every member query).
//
// The advisor rides the same stream: StartRecording installs the
// WorkloadRecorder as the database's query observer, and every served
// statement, shared or not, notifies it — the wire workload IS the
// recorded workload. When the clients shift from transactional point
// lookups to analytic scans, the AdaptationController notices the drift
// and migrates the table on the non-blocking MigrateShadow path while the
// wire clients keep streaming.
//
//   $ ./build/example_server_tour
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "core/advisor.h"
#include "online/controller.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/synthetic.h"

using namespace hsdb;

namespace {

/// Issues every request in `reqs` striped across `clients` connections (one
/// server::Client per thread — concurrency across connections beyond the
/// drain slots is what lets the server form shared-scan batches). Returns
/// transport + "err" counts.
size_t RunOverTheWire(uint16_t port, size_t clients,
                      const std::vector<std::string>& reqs) {
  std::vector<size_t> failed(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      server::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failed[c] = (reqs.size() + clients - 1 - c) / clients;
        return;
      }
      for (size_t i = c; i < reqs.size(); i += clients) {
        Result<server::Reply> reply = client.RoundTrip(reqs[i]);
        if (!reply.ok() || !reply->ok) ++failed[c];
      }
    });
  }
  size_t total = 0;
  for (size_t c = 0; c < clients; ++c) {
    threads[c].join();
    total += failed[c];
  }
  return total;
}

/// Point lookups and single-row updates: the transactional phase.
std::vector<std::string> OltpRequests(size_t rows, int count, int seed) {
  std::vector<std::string> reqs;
  reqs.reserve(count);
  for (int i = 0; i < count; ++i) {
    const size_t id = (seed * 2654435761u + i * 40503u) % rows;
    if (i % 8 == 7) {
      reqs.push_back("update events kf0=" + std::to_string(i % 100) +
                     ".5 where id=" + std::to_string(id));
    } else {
      reqs.push_back("select events * where id=" + std::to_string(id));
    }
  }
  return reqs;
}

/// Range counts and aggregations over the filter/group columns: the
/// analytic phase. Distinct predicates over shared columns — exactly the
/// shape the shared-scan batcher amortizes.
std::vector<std::string> OlapRequests(int count, int seed) {
  std::vector<std::string> reqs;
  reqs.reserve(count);
  for (int i = 0; i < count; ++i) {
    const int lo = (seed * 37 + i * 61) % 900;
    switch (i % 4) {
      case 0:
        reqs.push_back("count events where f0>=" + std::to_string(lo) +
                       " f0<" + std::to_string(lo + 100));
        break;
      case 1:
        reqs.push_back("sum events kf0 where f1>=" + std::to_string(lo));
        break;
      case 2:
        reqs.push_back("max events kf1 where g0=" + std::to_string(i % 20));
        break;
      default:
        reqs.push_back("avg events kf1 by g1");
        break;
    }
  }
  return reqs;
}

/// What the serving layer saw, read back from the engine's own metrics.
void PrintServerTelemetry(Database& db) {
  if (!telemetry::kCompiledIn || !db.metrics().enabled()) {
    std::printf("  telemetry: disabled\n");
    return;
  }
  telemetry::MetricsRegistry& m = db.metrics();
  const auto counter = [&m](const char* name) {
    return static_cast<unsigned long long>(m.GetCounter(name).value());
  };
  const telemetry::LogHistogram& width =
      m.GetHistogram("hsdb_server_batch_width");
  std::printf(
      "  server: %llu connection(s), %llu request(s), %llu batch drain(s) "
      "(width p50 %.1f p95 %.1f), %llu refused, %llu protocol error(s)\n",
      counter("hsdb_server_connections_total"),
      counter("hsdb_server_requests_total"),
      counter("hsdb_server_batches_total"),
      width.count() > 0 ? width.Quantile(0.5) : 0.0,
      width.count() > 0 ? width.Quantile(0.95) : 0.0,
      counter("hsdb_server_rejected_total"),
      counter("hsdb_server_protocol_errors_total"));
  std::printf("  shared scans: %llu group(s) covering %llu quer%s\n",
              counter("hsdb_batch_groups_total"),
              counter("hsdb_batch_shared_queries_total"),
              counter("hsdb_batch_shared_queries_total") == 1 ? "y" : "ies");
}

}  // namespace

int main() {
  SyntheticTableSpec spec;
  spec.name = "events";
  spec.num_keyfigures = 2;
  spec.num_filters = 2;
  spec.num_groups = 2;
  const size_t rows = 40'000;

  Database db;
  HSDB_CHECK(db.CreateTable(spec.name, spec.MakeSchema(),
                            TableLayout::SingleStore(StoreType::kColumn))
                 .ok());
  HSDB_CHECK(
      PopulateSynthetic(db.catalog().GetTable(spec.name), spec, rows).ok());
  db.catalog().UpdateAllStatistics();

  // Observer and cost predictor go in BEFORE the server starts, so the
  // recorder sees the live stream from the first wire request.
  StorageAdvisor advisor(&db);
  advisor.StartRecording();

  server::SocketServer server(&db);
  HSDB_CHECK(server.Start().ok());
  const size_t clients = 2 * server.drain_slots();
  std::printf(
      "serving on 127.0.0.1:%u (%zu drain slots, %zu wire clients)\n\n",
      server.port(), server.drain_slots(), clients);

  // A taste of the protocol on one quiet connection — including an error
  // reply, which is connection-local: the same connection keeps working.
  {
    server::Client probe;
    HSDB_CHECK(probe.Connect("127.0.0.1", server.port()).ok());
    for (const char* req :
         {"ping", "tables", "count events", "select events no_such_col"}) {
      Result<server::Reply> reply = probe.RoundTrip(req);
      HSDB_CHECK(reply.ok());
      std::printf("  > %-28s => %s\n", req,
                  reply->ok ? (reply->lines.empty() ? "ok"
                                                    : reply->lines[0].c_str())
                            : ("err " + reply->error).c_str());
    }
    std::printf("\n");
  }

  // Transactional period over the wire, then the initial online design.
  std::printf("phase 1: OLTP over the wire (600 requests)...\n");
  size_t failed =
      RunOverTheWire(server.port(), clients, OltpRequests(rows, 600, 1));
  if (failed > 0) std::printf("  !! %zu request(s) failed\n", failed);
  Result<Recommendation> rec = advisor.RecommendOnline();
  HSDB_CHECK(rec.ok());
  HSDB_CHECK(advisor.Apply(*rec).ok());
  std::printf("  applied: %s\n",
              db.catalog().GetTable(spec.name)->layout().ToString().c_str());
  PrintServerTelemetry(db);

  // Analytic shift. The controller ticks while the second wave of wire
  // requests is still in flight: any migration overlaps live traffic on
  // the shadow-rebuild path, and the clients never disconnect.
  AdaptationOptions options;
  options.min_epoch_queries = 64;
  options.cooldown_epochs = 0;
  AdaptationController& controller = advisor.StartAutoAdapt(options);

  std::printf("\nphase 2: analytic shift over the wire (600 requests)...\n");
  failed = RunOverTheWire(server.port(), clients, OlapRequests(300, 2));
  std::thread overlap([&] {
    failed += RunOverTheWire(server.port(), clients, OlapRequests(300, 3));
  });
  AdaptationLogEntry entry = controller.Tick();
  overlap.join();
  std::printf("  -> %s\n", entry.ToString().c_str());
  if (failed > 0) std::printf("  !! %zu request(s) failed\n", failed);
  std::printf("  final layout: %s\n",
              db.catalog().GetTable(spec.name)->layout().ToString().c_str());
  PrintServerTelemetry(db);

  server.Stop();
  advisor.StopAutoAdapt();
  advisor.StopRecording();
  return 0;
}
