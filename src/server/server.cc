#include "server/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "common/epoch.h"
#include "server/explain.h"
#include "storage/logical_table.h"

namespace hsdb {
namespace server {

SocketServer::SocketServer(Database* db, Options options)
    : db_(db),
      options_(options),
      queue_(options.queue_capacity,
             DrainSlots(std::thread::hardware_concurrency(),
                        db->num_threads()),
             &db->metrics()),
      batch_(db),
      listener_(&db->metrics(), "line",
                [this](int fd) { ServeConnection(fd); }) {
  telemetry::MetricsRegistry& metrics = db_->metrics();
  connections_total_ = &metrics.GetCounter(
      "hsdb_server_connections_total",
      "Client connections accepted by the socket server.");
  requests_total_ = &metrics.GetCounter(
      "hsdb_server_requests_total",
      "Request lines received on client connections (malformed included).");
  protocol_errors_total_ = &metrics.GetCounter(
      "hsdb_server_protocol_errors_total",
      "Request lines rejected by the protocol parser or framing guard.");
  rejected_total_ = &metrics.GetCounter(
      "hsdb_server_rejected_total",
      "Queries refused because the admission queue was full.");
  batches_total_ = &metrics.GetCounter(
      "hsdb_server_batches_total",
      "Admission-queue batches drained by connection readers.");
  batch_width_ = &metrics.GetHistogram(
      "hsdb_server_batch_width",
      "Queries per drained admission batch (shared-scan width).");
  queue_wait_ms_ = &metrics.GetHistogram(
      "hsdb_server_queue_wait_ms",
      "Time an admitted query waited in the admission queue before its "
      "batch was drained.",
      {}, /*min_bound=*/1e-4);
  batch_formation_ms_ = &metrics.GetHistogram(
      "hsdb_server_batch_formation_ms",
      "Batch-group formation latency: the oldest member's queue wait when "
      "its batch was drained.",
      {}, /*min_bound=*/1e-4);
}

SocketServer::SocketServer(Database* db)
    : SocketServer(db, Options()) {}

SocketServer::~SocketServer() { Stop(); }

bool SocketServer::TelemetryOn() const {
  return telemetry::kCompiledIn && db_->metrics().enabled();
}

Status SocketServer::Start() {
  stopping_.store(false, std::memory_order_release);
  return listener_.Start(options_.port);
}

void SocketServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  // Every queued read has a drainer, and a drainer is a reader waiting for
  // its own answer, so joining the readers drains every admitted read;
  // nothing can push after that, and Close() only makes late pushes fail
  // fast.
  listener_.Stop();
  queue_.Close();
}

void SocketServer::Drain(const std::future<Wakeup>& own) {
  std::vector<Admitted> batch;
  std::vector<Query> queries;
  std::vector<double> waits_ms;
  const auto answered = [&own] {
    return own.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  while (queue_.PopBatchOrRetire(options_.max_batch, answered(), &batch)) {
    const auto drained_at = std::chrono::steady_clock::now();
    queries.clear();
    queries.reserve(batch.size());
    waits_ms.clear();
    waits_ms.reserve(batch.size());
    double oldest_wait_ms = 0.0;
    for (Admitted& a : batch) {
      queries.push_back(std::move(a.query));
      const double wait_ms = std::chrono::duration<double, std::milli>(
                                 drained_at - a.admitted_at)
                                 .count();
      waits_ms.push_back(wait_ms);
      oldest_wait_ms = std::max(oldest_wait_ms, wait_ms);
    }
    if (TelemetryOn()) {
      batches_total_->Increment();
      batch_width_->Observe(static_cast<double>(batch.size()));
      // Formation latency = how long the batch's oldest member waited for
      // co-runners or for a drainer — the number a future scheduler's
      // drain policy will be tuned against.
      batch_formation_ms_->Observe(oldest_wait_ms);
      for (double wait_ms : waits_ms) queue_wait_ms_->Observe(wait_ms);
    }
    std::vector<Result<QueryResult>> results =
        batch_.ExecuteBatch(queries, &waits_ms);
    for (size_t i = 0; i < batch.size(); ++i) {
      Wakeup answer;
      answer.result = std::move(results[i]);
      batch[i].reply.set_value(std::move(answer));
    }
  }
}

std::string SocketServer::HandleLine(const std::string& line,
                                     bool* close_conn) {
  if (TelemetryOn()) requests_total_->Increment();
  Result<Request> parsed = [&]() -> Result<Request> {
    // The resolver's schema pointers live in the catalog: pin the
    // reclamation epoch for exactly the parse.
    EpochPin pin(&db_->catalog().epochs());
    SchemaResolver resolver =
        [this](const std::string& name) -> const Schema* {
      const LogicalTable* table = db_->catalog().GetTable(name);
      return table == nullptr ? nullptr : &table->schema();
    };
    return ParseRequest(line, resolver);
  }();
  if (!parsed.ok()) {
    if (TelemetryOn()) protocol_errors_total_->Increment();
    return FormatError(parsed.status());
  }
  switch (parsed->kind) {
    case Request::Kind::kQuit:
      *close_conn = true;
      return "ok 0\n";
    case Request::Kind::kQuery:
      return HandleQuery(std::move(parsed->query));
    case Request::Kind::kExplain:
    case Request::Kind::kExplainAnalyze:
      return HandleExplain(*parsed);
    default:
      return HandleControl(*parsed);
  }
}

std::string SocketServer::HandleExplain(const Request& request) {
  if (request.kind == Request::Kind::kExplain) {
    return FormatLines(ExplainLines(db_, request.query));
  }
  Result<std::vector<std::string>> lines =
      ExplainAnalyzeLines(db_, request.query);
  if (!lines.ok()) return FormatError(lines.status());
  return FormatLines(*lines);
}

std::string SocketServer::HandleControl(const Request& request) {
  switch (request.kind) {
    case Request::Kind::kPing:
      return FormatLines({"pong"});
    case Request::Kind::kTables:
      return FormatLines(db_->catalog().TableNames());
    case Request::Kind::kSchema: {
      EpochPin pin(&db_->catalog().epochs());
      const LogicalTable* table = db_->catalog().GetTable(request.table);
      if (table == nullptr) {
        return FormatError(
            Status::NotFound("unknown table '" + request.table + "'"));
      }
      const Schema& schema = table->schema();
      std::vector<std::string> lines;
      for (ColumnId c = 0; c < schema.num_columns(); ++c) {
        std::string line = schema.column(c).name;
        line += '\t';
        line += DataTypeName(schema.column(c).type);
        if (schema.IsPrimaryKeyColumn(c)) line += "\tpk";
        lines.push_back(std::move(line));
      }
      return FormatLines(lines);
    }
    case Request::Kind::kStats: {
      std::vector<std::string> lines;
      std::istringstream in(db_->TelemetrySnapshot().ToString());
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
      return FormatLines(lines);
    }
    default:
      return FormatError(Status::Internal("unhandled control request"));
  }
}

std::string SocketServer::HandleQuery(Query query) {
  const QueryKind kind = KindOf(query);
  // Only a shareable read goes through the admission queue, where it can
  // join a shared-scan batch; everything else runs here directly.
  Result<QueryResult> result =
      batch_.Shareable(query) ? Admit(std::move(query)) : db_->Execute(query);
  if (!result.ok()) return FormatError(result.status());
  return FormatResponse(*result, kind);
}

Result<QueryResult> SocketServer::Admit(Query query) {
  Admitted item;
  item.query = std::move(query);
  item.admitted_at = std::chrono::steady_clock::now();
  std::future<Wakeup> reply = item.reply.get_future();
  switch (queue_.TryPush(std::move(item))) {
    case AdmissionQueue::Push::kRejected: {
      if (TelemetryOn()) rejected_total_->Increment();
      bool down = stopping_.load(std::memory_order_acquire);
      return Status::FailedPrecondition(down ? "server shutting down"
                                             : "admission queue full");
    }
    case AdmissionQueue::Push::kDrain:
      Drain(reply);
      break;
    case AdmissionQueue::Push::kQueued:
      break;
  }
  for (;;) {
    Wakeup woken = reply.get();
    if (woken.handoff == nullptr) return std::move(woken.result);
    // The last drainer stopped and handed this reader its slot; the read is
    // still queued under the new future.
    reply = std::move(*woken.handoff);
    Drain(reply);
  }
}

void SocketServer::ServeConnection(int fd) {
  if (TelemetryOn()) connections_total_->Increment();
  std::string buffer;
  char chunk[4096];
  bool close_conn = false;
  while (!close_conn) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF, transport error, or Stop's shutdown
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', start);
         nl != std::string::npos && !close_conn;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      std::string response = HandleLine(line, &close_conn);
      if (!SendAll(fd, response)) {
        close_conn = true;
        break;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      // No newline within the frame bound: the stream cannot resync.
      if (TelemetryOn()) protocol_errors_total_->Increment();
      SendAll(fd, FormatError(Status::OutOfRange(
                      "request line exceeds " +
                      std::to_string(kMaxLineBytes) + " bytes")));
      break;
    }
  }
}

}  // namespace server
}  // namespace hsdb
