// End-to-end serving correctness under concurrency: an in-process
// SocketServer with 8 concurrent line-protocol clients hammering a mix of
// counts, integer aggregates, range and point selects, each checked
// against goldens precomputed over a single connection before the storm.
// Every golden is chosen to be invariant under layout changes (counts,
// min/max, integer-valued sums, id-ordered selects), and a MigrateShadow
// flips the table's store back and forth mid-stream — the serving path
// must read consistent epochs through the swaps and keep every answer
// bit-identical.
//
// Only shareable reads enter the admission queue, where the readers that
// hold drain slots execute them: writes, point lookups and errors are
// answered on the connection's own reader thread without touching the
// queue, and scans that co-run with a writer on the same table still see
// only states the table actually had. With more clients than drain slots,
// reads queue and share batches, and Stop() still returns under load.
//
// Runs at whatever HSDB_THREADS says (the CI concurrency matrix sets 4),
// so shared-scan batches execute morsel-parallel under TSan here.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "executor/database.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

class ServerRoundtripTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 20'000;

  void SetUp() override {
    spec_.name = "events";
    spec_.num_keyfigures = 2;
    spec_.num_filters = 2;
    spec_.num_groups = 2;
    Database::Options options;
    options.num_threads = 0;  // honor HSDB_THREADS (CI matrix)
    options.metrics = &metrics_;
    db_ = std::make_unique<Database>(options);
    ASSERT_TRUE(db_->CreateTable("events", spec_.MakeSchema(),
                                 TableLayout::SingleStore(StoreType::kColumn))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_->catalog().GetTable("events"), spec_, kRows)
            .ok());
    db_->catalog().UpdateAllStatistics();
    server_ = std::make_unique<server::SocketServer>(db_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  /// Requests whose answers do not depend on layout, store, batch
  /// formation or thread count — safe goldens for a concurrent storm with
  /// migrations in flight.
  std::vector<std::string> GoldenRequests() const {
    return {
        "ping",
        "tables",
        "count events",
        "count events where f0<100",
        "count events where f0>=100 f1<500",
        "sum events f0 where g0=3",
        "min events kf0",
        "max events kf1 where f0<500",
        "sum events f1",
        "select events id where id<40",
        "select events id,f0,g0 where id>=100 id<140",
        "select events id,kf0 where id=17",
        "select events id where f0<5 limit 25",
        "count events where g0=1 g1=2",
    };
  }

  SyntheticTableSpec spec_;
  telemetry::MetricsRegistry metrics_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<server::SocketServer> server_;
};

TEST_F(ServerRoundtripTest, ConcurrentClientsMatchGoldenAnswers) {
  const std::vector<std::string> requests = GoldenRequests();

  // Precompute goldens over one quiet connection.
  std::vector<std::vector<std::string>> goldens;
  {
    server::Client probe;
    ASSERT_TRUE(probe.Connect("127.0.0.1", server_->port()).ok());
    for (const std::string& request : requests) {
      Result<server::Reply> reply = probe.RoundTrip(request);
      ASSERT_TRUE(reply.ok()) << request;
      ASSERT_TRUE(reply->ok) << request << ": " << reply->error;
      goldens.push_back(reply->lines);
    }
  }

  // The storm: 8 clients, each cycling through the goldens from a
  // different offset so distinct queries co-run and form shared batches.
  constexpr int kClients = 8;
  constexpr int kPasses = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> transport_errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      server::Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        transport_errors.fetch_add(1);
        return;
      }
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t i = 0; i < requests.size(); ++i) {
          size_t at = (i + static_cast<size_t>(c)) % requests.size();
          Result<server::Reply> reply = client.RoundTrip(requests[at]);
          if (!reply.ok()) {
            transport_errors.fetch_add(1);
            return;
          }
          if (!reply->ok || reply->lines != goldens[at]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }

  // Mid-stream shadow migrations: flip the store back and forth while the
  // clients hammer. Answers must not waver.
  for (StoreType target : {StoreType::kRow, StoreType::kColumn,
                           StoreType::kRow, StoreType::kColumn}) {
    Result<ShadowMigrationStats> stats = db_->MigrateShadow(
        "events", TableLayout::SingleStore(target));
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  }

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  if (telemetry::kCompiledIn) {
    // The storm went through the serving path, and its shareable reads
    // through the admission queue's drainers.
    EXPECT_GT(metrics_.GetCounter("hsdb_server_requests_total").value(), 0u);
    EXPECT_GT(metrics_.GetCounter("hsdb_server_batches_total").value(), 0u);
  }
}

TEST_F(ServerRoundtripTest, DmlVisibleAcrossConnections) {
  server::Client writer;
  server::Client reader;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(reader.Connect("127.0.0.1", server_->port()).ok());

  Result<server::Reply> before = reader.RoundTrip("count events");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->ok);

  // Insert one row through the wire; arity = 1 + 2 kf + 2 f + 2 g.
  Result<server::Reply> ins =
      writer.RoundTrip("insert events 777777,1.5,2.5,10,20,3,4");
  ASSERT_TRUE(ins.ok());
  ASSERT_TRUE(ins->ok) << ins->error;
  EXPECT_EQ(ins->lines, std::vector<std::string>{"1"});

  Result<server::Reply> point =
      reader.RoundTrip("select events id,kf0,f1 where id=777777");
  ASSERT_TRUE(point.ok());
  ASSERT_TRUE(point->ok);
  ASSERT_EQ(point->lines.size(), 1u);

  Result<server::Reply> upd =
      writer.RoundTrip("update events f0=99 where id=777777");
  ASSERT_TRUE(upd.ok());
  ASSERT_TRUE(upd->ok) << upd->error;
  EXPECT_EQ(upd->lines, std::vector<std::string>{"1"});

  Result<server::Reply> del =
      writer.RoundTrip("delete events where id=777777");
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE(del->ok) << del->error;
  EXPECT_EQ(del->lines, std::vector<std::string>{"1"});

  Result<server::Reply> after = reader.RoundTrip("count events");
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->ok);
  EXPECT_EQ(after->lines, before->lines);
}

TEST_F(ServerRoundtripTest, NonShareableRequestsBypassTheQueue) {
  telemetry::Counter& batches =
      metrics_.GetCounter("hsdb_server_batches_total");
  telemetry::LogHistogram& waits =
      metrics_.GetHistogram("hsdb_server_queue_wait_ms");
  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const auto expect_reply = [&](const std::string& request,
                                const std::vector<std::string>& lines) {
    Result<server::Reply> reply = client.RoundTrip(request);
    ASSERT_TRUE(reply.ok()) << request;
    ASSERT_TRUE(reply->ok) << request << ": " << reply->error;
    EXPECT_EQ(reply->lines, lines) << request;
  };
  const uint64_t batches_before = batches.value();
  const uint64_t waits_before = waits.count();

  // Point-PK selects, inserts, updates and a delete: the per-statement
  // path, run by the reader thread itself.
  expect_reply("select events id where id=17", {"17"});
  expect_reply("insert events 777777,1.5,2.5,10,20,3,4", {"1"});
  expect_reply("insert events 777778,1.5,2.5,11,20,3,4", {"1"});
  expect_reply("update events f0=99 where id=777777", {"1"});
  expect_reply("select events id,f0 where id=777777", {"777777\t99"});
  expect_reply("select events id,f0 where id=777778", {"777778\t11"});
  expect_reply("delete events where id=777778", {"1"});
  expect_reply("select events id,f0 where id=777778", {});
  Result<server::Reply> unknown = client.RoundTrip("select nope id");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown->ok);
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(batches.value(), batches_before);
    EXPECT_EQ(waits.count(), waits_before);
  }

  // A shareable scan is admitted, and sees the rows written above.
  expect_reply("count events where id>=777777", {"1"});
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(batches.value(), batches_before + 1);
    EXPECT_EQ(waits.count(), waits_before + 1);
  }
}

TEST_F(ServerRoundtripTest, ScansBesideAWriterSeeRealTableStates) {
  // The writer flips f0 of rows [0, 1000) in and out of `f0<100` with one
  // statement each time, and inserts and deletes one in-range row. A scan
  // reading a half-applied statement would count something in between.
  const auto count = [](server::Client& client, const std::string& request,
                        int64_t* out) {
    Result<server::Reply> reply = client.RoundTrip(request);
    if (!reply.ok() || !reply->ok || reply->lines.size() != 1) return false;
    *out = std::stoll(reply->lines[0]);
    return true;
  };
  server::Client writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server_->port()).ok());
  int64_t initial = 0;
  int64_t rest = 0;  // rows the writer never touches
  ASSERT_TRUE(count(writer, "count events where f0<100", &initial));
  ASSERT_TRUE(count(writer, "count events where id>=1000 f0<100", &rest));
  const std::set<int64_t> states = {initial, rest, rest + 1, rest + 1000,
                                    rest + 1001};

  constexpr int kScanners = 3;
  constexpr int kScans = 40;
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::atomic<int> impossible{0};
  std::vector<std::thread> scanners;
  for (int c = 0; c < kScanners; ++c) {
    scanners.emplace_back([&] {
      server::Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kScans || !writer_done.load(); ++i) {
        int64_t n = 0;
        if (!count(client, "count events where f0<100", &n)) {
          failures.fetch_add(1);
          return;
        }
        if (states.count(n) == 0) impossible.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 10; ++round) {
    for (const char* request :
         {"update events f0=50 where id<1000",
          "insert events 888888,1.5,2.5,50,20,3,4",
          "update events f0=500 where id<1000",
          "delete events where id=888888"}) {
      Result<server::Reply> reply = writer.RoundTrip(request);
      EXPECT_TRUE(reply.ok() && reply->ok) << request;
    }
  }
  writer_done.store(true);  // before any assertion can leave the test
  for (std::thread& t : scanners) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(impossible.load(), 0);
}

TEST_F(ServerRoundtripTest, MoreClientsThanDrainSlots) {
  // A second column-store table, so shareable reads form batches with
  // members on two tables (one shared group per table).
  SyntheticTableSpec ledger = spec_;
  ledger.name = "ledger";
  ASSERT_TRUE(db_->CreateTable("ledger", ledger.MakeSchema(),
                               TableLayout::SingleStore(StoreType::kColumn))
                  .ok());
  ASSERT_TRUE(
      PopulateSynthetic(db_->catalog().GetTable("ledger"), ledger, 5'000)
          .ok());
  db_->catalog().UpdateStatistics("ledger");
  const std::vector<std::string> requests = {
      "count events where f0<100",
      "sum events f0 where g0=3",
      "max events kf1 where f0<500",
      "select events id where f0<5 limit 25",
      "count ledger where f1<300",
      "sum ledger f1 where g1=2",
      "min ledger kf0 where f0>=10",
      "count ledger where g0=1 g1=2",
  };
  std::vector<std::vector<std::string>> goldens;
  {
    server::Client probe;
    ASSERT_TRUE(probe.Connect("127.0.0.1", server_->port()).ok());
    for (const std::string& request : requests) {
      Result<server::Reply> reply = probe.RoundTrip(request);
      ASSERT_TRUE(reply.ok()) << request;
      ASSERT_TRUE(reply->ok) << request << ": " << reply->error;
      goldens.push_back(reply->lines);
    }
  }

  // More closed-loop clients than drain slots: reads beyond the slot count
  // queue and ride the active drainers' batches. Every client must finish
  // its checked passes while the others keep the queue busy, drainers
  // included: a drainer stops once its own read is answered.
  // Capped at the queue capacity, so no read is ever refused as busy.
  const int clients_n = static_cast<int>(
      std::min(std::max<size_t>(8, 4 * server_->drain_slots()),
               server::SocketServer::Options().queue_capacity));
  constexpr int kPasses = 3;
  std::atomic<int> passed{0};  // clients done with their checked passes
  std::atomic<int> mismatches{0};
  std::atomic<int> transport_errors{0};
  std::vector<std::unique_ptr<server::Client>> conns;
  for (int c = 0; c < clients_n; ++c) {
    conns.push_back(std::make_unique<server::Client>());
    ASSERT_TRUE(conns.back()->Connect("127.0.0.1", server_->port()).ok());
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < clients_n; ++c) {
    clients.emplace_back([&, c] {
      server::Client& client = *conns[c];
      // Checked passes, then keep the load on until Stop() cuts the
      // connection: every reply that does arrive must still be right.
      for (size_t n = 0;; ++n) {
        if (n == kPasses * requests.size()) passed.fetch_add(1);
        const size_t at = (n + static_cast<size_t>(c)) % requests.size();
        Result<server::Reply> reply = client.RoundTrip(requests[at]);
        if (!reply.ok()) {
          if (n < kPasses * requests.size()) transport_errors.fetch_add(1);
          return;
        }
        if (!reply->ok || reply->lines != goldens[at]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  while (passed.load() < clients_n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Stop() returns while every client is still connected and sending.
  server_->Stop();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server_->queue_depth(), 0u);
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(metrics_.GetGauge("hsdb_server_queue_depth").value(), 0.0);
    EXPECT_EQ(metrics_.GetCounter("hsdb_server_rejected_total").value(), 0u);
  }
}

TEST_F(ServerRoundtripTest, StopWhileClientsConnected) {
  // Stop() with idle connections open must join cleanly; a client round
  // trip afterwards fails as a transport error, not a hang.
  server::Client idle;
  ASSERT_TRUE(idle.Connect("127.0.0.1", server_->port()).ok());
  server_->Stop();
  Result<server::Reply> reply = idle.RoundTrip("ping");
  EXPECT_FALSE(reply.ok());
}

}  // namespace
}  // namespace hsdb
