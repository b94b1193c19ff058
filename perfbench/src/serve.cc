// serve_olap and serve_htap: real wire clients against an in-process
// SocketServer over a TPC-H database (lineitem and orders in the column
// store, the rest in the row store).
#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

#include "common/stopwatch.h"
#include "engine_probe.h"
#include "executor/batch_executor.h"
#include "pipelined_conn.h"
#include "requests.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "tpch/dbgen.h"
#include "workload/recorder.h"
#include "workloads.h"

namespace perfbench {

using hsdb::Database;
using hsdb::Result;
using hsdb::Status;
namespace telemetry = hsdb::telemetry;

namespace {

/// TPC-H scale factor and scan parallelism (Database::Options::num_threads,
/// fixed so HSDB_THREADS cannot move the numbers) of the served database.
constexpr double kServeScale = 0.05;
constexpr int kServeDop = 2;
constexpr int kSetupRepeats = 5;
constexpr double kWarmupSeconds = 1.0;
/// Open-loop OLTP arrival rate of serve_htap (requests/s). Well below the
/// OLTP capacity of the workload, and low enough that the orders writes
/// (~35% of the stream) of an untraced window and the traced window after
/// it stay under the 4096-row delta-merge threshold: no window merges, so
/// no run is bimodal.
constexpr double kOltpRate = 250.0;
/// Slices of the measured window the headline numbers are averaged over.
constexpr int kSlices = 10;
/// Problems quoted per run; the counts cover the rest.
constexpr size_t kMaxQuoted = 5;

struct ServePlan {
  int analytic_clients = 0;
  double oltp_rate = 0.0;  // 0 = no OLTP stream
};

/// One served database: registry, engine, recorder, server, goldens.
/// Members are destroyed bottom-up, so the server stops before the
/// database it serves goes away.
struct ServeEnv {
  telemetry::MetricsRegistry registry;
  std::unique_ptr<Database> db;
  std::unique_ptr<hsdb::WorkloadRecorder> recorder;
  std::unique_ptr<hsdb::server::SocketServer> server;
  std::vector<AnalyticRequest> analytic;
  size_t orders = 0;
  size_t customers = 0;
  double load_ms = 0.0;

  ~ServeEnv() {
    server.reset();
    if (db != nullptr) db->set_observer(nullptr);
  }
};

Result<std::unique_ptr<ServeEnv>> BuildServeEnv(double sf, uint64_t seed,
                                                int dop) {
  auto env = std::make_unique<ServeEnv>();
  // Set-up and untraced windows run with telemetry off.
  env->registry.set_enabled(false);
  Database::Options options;
  options.num_threads = dop;
  options.metrics = &env->registry;
  env->db = std::make_unique<Database>(options);

  hsdb::tpch::DbgenOptions dbgen;
  dbgen.scale_factor = sf;
  dbgen.seed = seed;
  dbgen.default_layout = hsdb::TableLayout::SingleStore(hsdb::StoreType::kRow);
  dbgen.layouts = {
      {"lineitem", hsdb::TableLayout::SingleStore(hsdb::StoreType::kColumn)},
      {"orders", hsdb::TableLayout::SingleStore(hsdb::StoreType::kColumn)}};
  hsdb::Stopwatch load_sw;
  HSDB_RETURN_IF_ERROR(hsdb::tpch::LoadTpch(*env->db, dbgen).status());
  env->load_ms = load_sw.ElapsedMs();
  env->orders = hsdb::tpch::BaseRows("orders", sf);
  env->customers = hsdb::tpch::BaseRows("customer", sf);

  HSDB_ASSIGN_OR_RETURN(
      env->analytic,
      BuildGoldens(env->db.get(),
                   AnalyticLines(env->orders,
                                 hsdb::tpch::BaseRows("part", sf))));
  // Like hsdb_server: every served query lands in a workload recorder.
  env->recorder = std::make_unique<hsdb::WorkloadRecorder>(
      &env->db->catalog(), 4096, 64, &env->registry);
  env->db->set_observer(env->recorder.get());
  env->server = std::make_unique<hsdb::server::SocketServer>(
      env->db.get(), hsdb::server::SocketServer::Options{});
  HSDB_RETURN_IF_ERROR(env->server->Start());
  return env;
}

struct ClassStats {
  /// Latency of each successful request, and when it completed (seconds
  /// into the window).
  std::vector<double> latency_ms;
  std::vector<double> done_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(double ms, double done) {
    latency_ms.push_back(ms);
    done_s.push_back(done);
  }
  void Merge(const ClassStats& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
    attempted += o.attempted;
    failed += o.failed;
  }
};

struct WindowStats {
  ClassStats cls[kNumReqClasses];
  double window_s = 0.0;
  /// Open loop: how late each request of the window was sent (ms).
  std::vector<double> late_ms;
  uint64_t problems = 0;
  std::vector<std::string> quoted;

  ClassStats& of(ReqClass c) { return cls[static_cast<int>(c)]; }
  const ClassStats& of(ReqClass c) const { return cls[static_cast<int>(c)]; }
  uint64_t attempted() const {
    uint64_t n = 0;
    for (const ClassStats& c : cls) n += c.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const ClassStats& c : cls) n += c.failed;
    return n;
  }
  double throughput() const {
    return window_s > 0 ? (attempted() - failed()) / window_s : 0.0;
  }
  void Problem(const std::string& why) {
    ++problems;
    if (quoted.size() < kMaxQuoted) quoted.push_back(why);
  }
  void Merge(const WindowStats& o) {
    for (int i = 0; i < kNumReqClasses; ++i) cls[i].Merge(o.cls[i]);
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    problems += o.problems;
    for (const std::string& q : o.quoted) {
      if (quoted.size() < kMaxQuoted) quoted.push_back(q);
    }
  }
};

/// Closed loop: send, wait for the reply, check it, repeat until the
/// window closes. Every reply is checked, and a wrong one (or a failed
/// round trip) is a problem wherever it lands; requests completing inside
/// [ws, we) are the ones counted and timed.
void AnalyticClient(const ServeEnv& env, uint64_t stream_seed,
                    Clock::time_point ws, Clock::time_point we,
                    WindowStats* st) {
  hsdb::server::Client client;
  Status connected = client.Connect("127.0.0.1", env.server->port());
  if (!connected.ok()) {
    st->Problem("analytic connect: " + connected.ToString());
    return;
  }
  hsdb::Rng rng(stream_seed);
  ClassStats& olap = st->of(ReqClass::kOlap);
  for (;;) {
    const AnalyticRequest& req = env.analytic[rng.Index(env.analytic.size())];
    const Clock::time_point t0 = Clock::now();
    Result<hsdb::server::Reply> reply = client.RoundTrip(req.line);
    const Clock::time_point t1 = Clock::now();
    std::string why;
    const bool good = reply.ok() && CheckAnalyticReply(req, *reply, &why);
    if (!reply.ok()) why = "analytic round trip: " + reply.status().ToString();
    if (!good) st->Problem(why);
    if (t1 >= ws && t1 < we) {
      ++olap.attempted;
      if (good) {
        olap.Add(MsBetween(t0, t1), MsBetween(ws, t1) / 1000.0);
      } else {
        ++olap.failed;
      }
    }
    if (!reply.ok() || t1 >= we) return;
  }
}

/// Open loop: request i is due at start + i/rate regardless of replies,
/// sent over one pipelined connection; latency runs from the due time. Every reply is checked, and a wrong or missing one is a problem
/// wherever it lands; requests due inside [ws, we) are the ones counted and
/// timed.
void OltpClient(const ServeEnv& env, OltpGenerator* gen, double rate,
                Clock::time_point start, Clock::time_point ws,
                Clock::time_point we, WindowStats* st) {
  PipelinedConn conn;
  Status connected = conn.Connect(env.server->port());
  if (!connected.ok()) {
    st->Problem("oltp connect: " + connected.ToString());
    return;
  }
  struct Pending {
    Clock::time_point due;
    Clock::time_point queued;
    OltpRequest req;
    bool answered = false;
  };
  std::vector<Pending> pending;
  const auto due_of = [&](uint64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / rate));
  };
  const auto in_window = [&](const Pending& p) {
    return p.due >= ws && p.due < we;
  };
  const auto on_reply = [&](uint64_t tag, const hsdb::server::Reply& reply) {
    Pending& p = pending[tag];
    p.answered = true;
    std::string why;
    const bool good = CheckOltpReply(p.req, reply, &why);
    if (!good) st->Problem(why + " (" + p.req.line + ")");
    if (!in_window(p)) return;
    ClassStats& cs = st->of(p.req.cls);
    ++cs.attempted;
    st->late_ms.push_back(MsBetween(p.due, p.queued));
    if (good) {
      const Clock::time_point now = Clock::now();
      cs.Add(MsBetween(p.due, now), MsBetween(ws, now) / 1000.0);
    } else {
      ++cs.failed;
    }
  };
  const auto pump = [&](Clock::time_point until) -> bool {
    Status flushed = conn.Flush();
    if (!flushed.ok()) {
      st->Problem("oltp send: " + flushed.ToString());
      return false;
    }
    pollfd fd{conn.fd(),
              static_cast<short>(POLLIN | (conn.wants_write() ? POLLOUT : 0)),
              0};
    const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                static_cast<long>(ns % 1'000'000'000)};
    if (::ppoll(&fd, 1, &ts, nullptr) < 0 && errno != EINTR) return false;
    if ((fd.revents & (POLLIN | POLLERR | POLLHUP)) == 0) return true;
    Status received = conn.Receive(on_reply);
    if (!received.ok()) {
      st->Problem("oltp receive: " + received.ToString());
      return false;
    }
    return true;
  };

  uint64_t next = 0;
  bool alive = true;
  while (alive) {
    const Clock::time_point now = Clock::now();
    if (now >= we) break;
    while (due_of(next) <= now) {
      Pending p;
      p.due = due_of(next);
      p.queued = Clock::now();
      p.req = gen->Next();
      conn.Queue(p.req.line, pending.size());
      pending.push_back(std::move(p));
      ++next;
    }
    alive = pump(std::min(due_of(next), we));
  }
  // Collect the replies still in flight; unanswered requests fail.
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (alive && conn.in_flight() > 0 &&
         Clock::now() < deadline) {
    alive = pump(Clock::now() + std::chrono::milliseconds(5));
  }
  for (const Pending& p : pending) {
    if (p.answered) continue;
    st->Problem("no reply to " + p.req.line);
    if (in_window(p)) {
      ++st->of(p.req.cls).attempted;
      ++st->of(p.req.cls).failed;
    }
  }
}

/// Runs one warm-up + measured window of `plan`; `at_start`/`at_end` run
/// on the calling thread when the measured window opens and closes.
WindowStats RunWindow(const ServeEnv& env, const ServePlan& plan,
                      uint64_t stream_seed, double window_s,
                      OltpGenerator* oltp,
                      const std::function<void()>& at_start,
                      const std::function<void()>& at_end) {
  const Clock::time_point start = Clock::now();
  const auto secs = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const Clock::time_point ws = start + secs(kWarmupSeconds);
  const Clock::time_point we = ws + secs(window_s);
  const int threads = plan.analytic_clients + (plan.oltp_rate > 0 ? 1 : 0);
  std::vector<WindowStats> per_thread(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < plan.analytic_clients; ++t) {
    workers.emplace_back(AnalyticClient, std::cref(env),
                         stream_seed * 1000003 + static_cast<uint64_t>(t), ws,
                         we, &per_thread[static_cast<size_t>(t)]);
  }
  if (plan.oltp_rate > 0) {
    workers.emplace_back(OltpClient, std::cref(env), oltp, plan.oltp_rate,
                         start, ws, we, &per_thread.back());
  }
  std::this_thread::sleep_until(ws);
  if (at_start) at_start();
  std::this_thread::sleep_until(we);
  if (at_end) at_end();
  for (std::thread& w : workers) w.join();
  WindowStats total;
  for (const WindowStats& s : per_thread) total.Merge(s);
  total.window_s = window_s;
  return total;
}

/// End-to-end numbers of one window. Throughput and the analytic
/// percentiles are interquartile means over kSlices equal slices of the
/// window: a stall of the host that hits a slice or two is dropped, and the
/// host's slower drift is averaged over the middle half of the window. The
/// sparser point and write classes are pooled over the whole window.
void ReportWindow(const WindowStats& w, MetricSheet* m) {
  const double slice_s = w.window_s / kSlices;
  const auto slice_of = [&](double done) {
    return std::min(kSlices - 1, static_cast<int>(done / slice_s));
  };
  std::vector<double> throughput(kSlices, 0.0);
  for (const ClassStats& cs : w.cls) {
    for (double done : cs.done_s) throughput[slice_of(done)] += 1.0 / slice_s;
  }
  const ClassStats& olap = w.of(ReqClass::kOlap);
  std::vector<std::vector<double>> olap_slices(kSlices);
  for (size_t i = 0; i < olap.latency_ms.size(); ++i) {
    olap_slices[slice_of(olap.done_s[i])].push_back(olap.latency_ms[i]);
  }
  std::vector<double> p50, p99;
  for (const std::vector<double>& slice : olap_slices) {
    p50.push_back(Quantile(slice, 0.50));
    p99.push_back(Quantile(slice, 0.99));
  }
  m->Set("throughput_ops", InterquartileMean(throughput), "1/s");
  m->Set("olap_p50_ms", InterquartileMean(p50), "ms");
  m->Set("olap_p99_ms", InterquartileMean(p99), "ms");
  for (ReqClass c : {ReqClass::kPoint, ReqClass::kWrite}) {
    const ClassStats& cs = w.of(c);
    const std::string name = ReqClassName(c);
    if (cs.attempted == 0) {
      m->SetNotApplicable(name + "_p50_ms", "ms");
      m->SetNotApplicable(name + "_p99_ms", "ms");
      continue;
    }
    m->Set(name + "_p50_ms", Quantile(cs.latency_ms, 0.50), "ms");
    m->Set(name + "_p99_ms", Quantile(cs.latency_ms, 0.99), "ms");
  }
}

/// Registry readings taken when the traced window opens and closes.
struct RegistryReadings {
  HistogramSnapshot queue_wait, formation, batch_width, latch_wait,
      latch_hold;
  uint64_t requests = 0, rejected = 0, batches = 0, groups = 0, shared = 0,
           morsels = 0, recorded = 0;

  static RegistryReadings Take(ServeEnv& env) {
    telemetry::MetricsRegistry& r = env.registry;
    RegistryReadings x;
    x.queue_wait = HistogramSnapshot::Of(
        r.GetHistogram("hsdb_server_queue_wait_ms", "", {}, 1e-4));
    x.formation = HistogramSnapshot::Of(
        r.GetHistogram("hsdb_server_batch_formation_ms", "", {}, 1e-4));
    x.batch_width =
        HistogramSnapshot::Of(r.GetHistogram("hsdb_server_batch_width"));
    for (const char* table : {"orders", "customer"}) {
      const telemetry::Labels labels = {{"table", table}};
      x.latch_wait.Add(HistogramSnapshot::Of(
          r.GetHistogram("hsdb_table_latch_wait_ms", "", labels, 1e-4)));
      x.latch_hold.Add(HistogramSnapshot::Of(
          r.GetHistogram("hsdb_table_latch_hold_ms", "", labels, 1e-4)));
    }
    x.requests = r.GetCounter("hsdb_server_requests_total").value();
    x.rejected = r.GetCounter("hsdb_server_rejected_total").value();
    x.batches = r.GetCounter("hsdb_server_batches_total").value();
    x.groups = r.GetCounter("hsdb_batch_groups_total").value();
    x.shared = r.GetCounter("hsdb_batch_shared_queries_total").value();
    x.morsels = r.GetCounter("hsdb_scan_morsels_total").value();
    x.recorded = env.recorder->seen_queries();
    return x;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Mean microseconds per call of `fn` over `n` calls.
template <typename Fn>
double MeanMicros(size_t n, Fn&& fn) {
  if (n == 0) return 0.0;
  hsdb::Stopwatch sw;
  for (size_t i = 0; i < n; ++i) fn(i);
  return sw.ElapsedMs() * 1000.0 / static_cast<double>(n);
}

/// Parse and format cost of the requests this workload sends, weighted by
/// how often each class was sent in the traced window.
void MeasureProtocolCosts(ServeEnv& env, const WindowStats& traced,
                          uint64_t seed, MetricSheet* m) {
  Database* db = env.db.get();
  // Fresh generator: the lines only need the live stream's shape; none of
  // them is executed here except the reads.
  OltpGenerator gen(seed ^ 0x5eed, env.orders, env.customers);
  std::vector<OltpRequest> points, writes;
  while (points.size() < 500 || writes.size() < 500) {
    OltpRequest r = gen.Next();
    (r.cls == ReqClass::kPoint ? points : writes).push_back(std::move(r));
  }
  double parse_us[kNumReqClasses] = {};
  double format_us[kNumReqClasses] = {};
  const size_t n_olap = env.analytic.size();
  parse_us[0] = MeanMicros(n_olap * 8, [&](size_t i) {
    (void)ParseLine(db, env.analytic[i % n_olap].line);
  });
  parse_us[1] = MeanMicros(points.size(), [&](size_t i) {
    (void)ParseLine(db, points[i].line);
  });
  parse_us[2] = MeanMicros(writes.size(), [&](size_t i) {
    (void)ParseLine(db, writes[i].line);
  });
  // Format: results computed in-process, formatting timed alone.
  std::vector<std::pair<hsdb::QueryResult, hsdb::QueryKind>> olap_results,
      point_results;
  for (const AnalyticRequest& req : env.analytic) {
    Result<hsdb::Query> q = ParseLine(db, req.line);
    if (!q.ok()) continue;
    Result<hsdb::QueryResult> r = db->Execute(*q);
    if (r.ok()) olap_results.push_back({std::move(*r), hsdb::KindOf(*q)});
  }
  for (size_t i = 0; i < 200 && i < points.size(); ++i) {
    Result<hsdb::Query> q = ParseLine(db, points[i].line);
    if (!q.ok()) continue;
    Result<hsdb::QueryResult> r = db->Execute(*q);
    if (r.ok()) point_results.push_back({std::move(*r), hsdb::KindOf(*q)});
  }
  const auto format_mean = [](const auto& results, size_t reps) {
    return MeanMicros(results.size() * reps, [&](size_t i) {
      const auto& [result, kind] = results[i % results.size()];
      (void)hsdb::server::FormatResponse(result, kind);
    });
  };
  format_us[0] = format_mean(olap_results, 8);
  format_us[1] = format_mean(point_results, 4);
  hsdb::QueryResult one_row;
  one_row.affected_rows = 1;
  format_us[2] = MeanMicros(1000, [&](size_t) {
    (void)hsdb::server::FormatResponse(one_row, hsdb::QueryKind::kUpdate);
  });
  double weighted_parse = 0, weighted_format = 0, total = 0;
  for (int c = 0; c < kNumReqClasses; ++c) {
    const double n = static_cast<double>(traced.cls[c].attempted);
    weighted_parse += n * parse_us[c];
    weighted_format += n * format_us[c];
    total += n;
  }
  m->Set("server.parse_us", Ratio(weighted_parse, total), "us");
  m->Set("server.format_us", Ratio(weighted_format, total), "us");
}

/// Replays batches shaped like the served ones (the measured mean width,
/// the analytic request mix) through BatchExecutor::ExecuteBatch and the
/// same queries one by one through Database::Execute, telemetry off.
void MeasureBatchVsSerial(ServeEnv& env, double mean_width, uint64_t seed,
                          RunOutcome* out) {
  Database* db = env.db.get();
  const size_t width =
      std::max<size_t>(1, static_cast<size_t>(std::lround(mean_width)));
  const size_t batches = std::max<size_t>(4, 256 / width);
  hsdb::Rng rng(seed ^ 0xba7c4);
  std::vector<std::vector<hsdb::Query>> replay(batches);
  for (auto& batch : replay) {
    for (size_t i = 0; i < width; ++i) {
      Result<hsdb::Query> q = ParseLine(
          db, env.analytic[rng.Index(env.analytic.size())].line);
      if (q.ok()) batch.push_back(std::move(*q));
    }
  }
  const bool was_enabled = env.registry.enabled();
  env.registry.set_enabled(false);
  hsdb::BatchExecutor batch_exec(db);
  size_t queries = 0;
  hsdb::Stopwatch sw;
  for (const auto& batch : replay) {
    for (const Result<hsdb::QueryResult>& r : batch_exec.ExecuteBatch(batch)) {
      if (!r.ok()) out->Fail("batch replay: " + r.status().ToString());
    }
    queries += batch.size();
  }
  const double batch_ms = sw.ElapsedMs();
  sw.Restart();
  for (const auto& batch : replay) {
    for (const hsdb::Query& q : batch) {
      if (!db->Execute(q).ok()) out->Fail("serial replay failed");
    }
  }
  const double serial_ms = sw.ElapsedMs();
  env.registry.set_enabled(was_enabled);
  out->metrics.Set("executor.batch_ms_per_query", Ratio(batch_ms, queries),
                   "ms");
  out->metrics.Set("executor.serial_ms_per_query", Ratio(serial_ms, queries),
                   "ms");
}

/// The traced window and everything attributed from it.
void RunTraced(ServeEnv& env, const ServePlan& plan, uint64_t seed,
               double window_s, OltpGenerator* oltp,
               const WindowStats& untraced, RunOutcome* out) {
  MetricSheet& m = out->metrics;
  env.registry.set_enabled(true);
  // Record every statement: the slow-query ring is the engine's per-query
  // record of queue wait and engine time.
  env.db->slowlog().Configure({1e-9, size_t{1} << 21, 1});
  const StorageTotals storage_before = ReadStorageTotals(*env.db);
  RegistryReadings before, after;
  WindowStats traced = RunWindow(
      env, plan, seed + 1, window_s, oltp,
      [&] {
        env.db->slowlog().Clear();
        before = RegistryReadings::Take(env);
      },
      [&] { after = RegistryReadings::Take(env); });
  const std::vector<telemetry::SlowlogRecord> records =
      env.db->slowlog().Snapshot();
  env.registry.set_enabled(false);
  if (traced.problems > 0) {
    out->Fail("traced window: " + std::to_string(traced.problems) +
              " bad replies or connection failures");
  }

  telemetry::MetricsRegistry& r = env.registry;
  const HistogramSnapshot qw = after.queue_wait.Minus(before.queue_wait);
  const auto& qw_grid = r.GetHistogram("hsdb_server_queue_wait_ms");
  m.Set("server.queue_wait_p50_ms", qw.Quantile(qw_grid, 0.50), "ms");
  m.Set("server.queue_wait_p99_ms", qw.Quantile(qw_grid, 0.99), "ms");
  const HistogramSnapshot width = after.batch_width.Minus(before.batch_width);
  m.Set("server.batch_width_mean", width.Mean(), "count");
  m.Set("server.batch_formation_p50_ms",
        after.formation.Minus(before.formation)
            .Quantile(r.GetHistogram("hsdb_server_batch_formation_ms"), 0.50),
        "ms");
  m.Set("server.rejected_ratio",
        Ratio(after.rejected - before.rejected,
              after.requests - before.requests),
        "ratio");
  const double olap_sent =
      static_cast<double>(traced.of(ReqClass::kOlap).attempted);
  m.Set("executor.shared_ratio", Ratio(after.shared - before.shared, olap_sent),
        "ratio");
  m.Set("executor.groups_per_batch",
        Ratio(after.groups - before.groups, after.batches - before.batches),
        "count");
  m.Set("executor.morsels_per_scan",
        Ratio(after.morsels - before.morsels, olap_sent), "count");
  const auto& latch_grid = r.GetHistogram("hsdb_table_latch_wait_ms");
  m.Set("storage.latch_wait_p99_ms",
        after.latch_wait.Minus(before.latch_wait).Quantile(latch_grid, 0.99),
        "ms");
  m.Set("storage.latch_hold_p99_ms",
        after.latch_hold.Minus(before.latch_hold).Quantile(latch_grid, 0.99),
        "ms");
  const StorageTotals storage_after = ReadStorageTotals(*env.db);
  m.Set("storage.delta_merges",
        static_cast<double>(storage_after.delta_merges -
                            storage_before.delta_merges),
        "count");
  m.Set("storage.encoded_mb", storage_after.column_store_mb, "MiB");
  m.Set("workload.recorded_ratio",
        Ratio(after.recorded - before.recorded, traced.attempted()), "ratio");
  m.Set("trace.overhead_pct",
        100.0 * Ratio(untraced.throughput() - traced.throughput(),
                      untraced.throughput()),
        "%");

  // Per-class attribution: mean queue wait and engine time from the
  // statement records, client latency from the traced window. Each
  // request's server-side parts lie inside its client-observed interval,
  // so their means may not exceed the client mean (small tolerance for
  // requests straddling the window edges).
  struct Parts {
    double queue_wait = 0, engine = 0;
    uint64_t n = 0;
  } parts[kNumReqClasses];
  for (size_t i = 0; i < records.size();) {
    const telemetry::SlowlogRecord& rec = records[i];
    // A shared batch member's record holds the group's wall time divided by
    // the group width, but its client waited for the whole group. The
    // members of a group are recorded back to back with the same share and
    // phase summary; the run's length is the width.
    size_t width = 1;
    while (rec.shared && i + width < records.size() &&
           records[i + width].shared &&
           records[i + width].elapsed_ms == rec.elapsed_ms &&
           records[i + width].trace_summary == rec.trace_summary) {
      ++width;
    }
    hsdb::QueryKind kind = hsdb::QueryKind::kAggregation;
    if (rec.kind == "SELECT") kind = hsdb::QueryKind::kSelect;
    if (rec.kind == "INSERT") kind = hsdb::QueryKind::kInsert;
    if (rec.kind == "UPDATE") kind = hsdb::QueryKind::kUpdate;
    Parts& p = parts[static_cast<int>(ClassOfKind(kind))];
    for (size_t j = i; j < i + width; ++j) {
      p.queue_wait += records[j].queue_wait_ms;
      p.engine += records[j].elapsed_ms * static_cast<double>(width);
      ++p.n;
    }
    i += width;
  }
  for (ReqClass c : {ReqClass::kOlap, ReqClass::kPoint, ReqClass::kWrite}) {
    const Parts& p = parts[static_cast<int>(c)];
    const std::string name = ReqClassName(c);
    if (traced.of(c).attempted == 0) {
      m.SetNotApplicable("server.wire_ms." + name, "ms");
      continue;
    }
    const double client = Mean(traced.of(c).latency_ms);
    const double queue_wait = Ratio(p.queue_wait, p.n);
    const double engine = Ratio(p.engine, p.n);
    if (p.n == 0) out->Fail("attribution: no statement records for " + name);
    m.Set("server.wire_ms." + name, client - queue_wait - engine, "ms");
    if (p.n > 0 && queue_wait + engine > client * 1.10 + 0.05) {
      out->Fail("attribution: " + name + " queue wait " +
                std::to_string(queue_wait) + " + engine " +
                std::to_string(engine) + " ms exceeds client latency " +
                std::to_string(client) + " ms");
    }
    Info("attribution " + name + ": client " + std::to_string(client) +
         " ms = queue " + std::to_string(queue_wait) + " + engine " +
         std::to_string(engine) + " + rest, " + std::to_string(p.n) +
         " statement records");
  }

  MeasureProtocolCosts(env, traced, seed, &m);
  MeasureBatchVsSerial(env, width.Mean(), seed, out);
  m.Set("catalog.stats_s", AnalyzeAllSeconds(*env.db), "s");
}

void RunServe(const Args& args, const ServePlan& plan, RunOutcome* out) {
  const double sf = args.scale > 0 ? args.scale : kServeScale;
  Info("workload " + args.workload + ", seed " + std::to_string(args.seed) +
       ", nproc " + std::to_string(std::thread::hardware_concurrency()) +
       ", dop " + std::to_string(kServeDop) + ", build " +
       PERFBENCH_BUILD_TYPE + ", scale " + std::to_string(sf) + ", trace " +
       (args.trace ? "1" : "0"));
  // Set up several times and keep the last; set-up time is the median.
  std::vector<double> setup_s, load_s;
  std::unique_ptr<ServeEnv> env;
  for (int i = 0; i < kSetupRepeats; ++i) {
    env.reset();
    hsdb::Stopwatch sw;
    Result<std::unique_ptr<ServeEnv>> built =
        BuildServeEnv(sf, args.seed, kServeDop);
    if (!built.ok()) {
      out->Fail("set-up: " + built.status().ToString());
      return;
    }
    env = std::move(*built);
    setup_s.push_back(sw.ElapsedMs() / 1000.0);
    load_s.push_back(env->load_ms / 1000.0);
  }
  out->metrics.Set("setup_s", Median(setup_s), "s");
  std::string each;
  for (size_t i = 0; i < setup_s.size(); ++i) {
    each += " " + std::to_string(setup_s[i]) + " (load " +
            std::to_string(load_s[i]) + ")";
  }
  Info("set-ups, s:" + each);
  Info("set-up " + std::to_string(env->analytic.size()) +
       " analytic goldens, orders " + std::to_string(env->orders) +
       ", customers " + std::to_string(env->customers));

  OltpGenerator oltp(args.seed * 7919 + 17, env->orders, env->customers);
  const CpuTicks ticks_before = CpuTicks::Read();
  WindowStats w = RunWindow(*env, plan, args.seed, args.seconds, &oltp,
                            nullptr, nullptr);
  Info("host steal during the window: " +
       std::to_string(StealPercent(ticks_before, CpuTicks::Read())) +
       "% of CPU time");
  out->attempted = w.attempted();
  out->failed = w.failed();
  for (const std::string& q : w.quoted) out->Fail(q);
  ReportWindow(w, &out->metrics);
  for (ReqClass c : {ReqClass::kOlap, ReqClass::kPoint, ReqClass::kWrite}) {
    Info(std::string(ReqClassName(c)) + ": " +
         std::to_string(w.of(c).latency_ms.size()) + " latency samples");
  }
  if (plan.oltp_rate > 0) {
    out->metrics.Set("loadgen.late_p99_ms", Quantile(w.late_ms, 0.99), "ms");
    out->metrics.Set("loadgen.late_max_ms", Quantile(w.late_ms, 1.0), "ms");
  } else {
    out->metrics.SetNotApplicable("loadgen.late_p99_ms", "ms");
    out->metrics.SetNotApplicable("loadgen.late_max_ms", "ms");
  }
  // Peak RSS of the served run alone: the traced run's advise loop loads a
  // database of its own.
  out->metrics.Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (args.trace) {
    out->metrics.Set("tpch.load_s", Median(load_s), "s");
    RunTraced(*env, plan, args.seed, args.seconds, &oltp, w, out);
    env.reset();
    AddAdviseLoopLayers(args.seed, out);
  }
}

}  // namespace

void RunServeOlap(const Args& args, RunOutcome* out) {
  ServePlan plan;
  // Three clients already saturate the batch worker: a fourth added only
  // queueing (same throughput, 1.5 instead of 1.15 ms p50) and, with ten
  // threads on four CPUs, swung 17% run to run against 6.5% for three.
  plan.analytic_clients = 3;
  RunServe(args, plan, out);
}

void RunServeHtap(const Args& args, RunOutcome* out) {
  ServePlan plan;
  // Three analytic clients, as on serve_olap: they keep the batch worker
  // saturated. With two, every request also paid the wake-up of an idle
  // worker, and throughput and olap p50 spread 12-13% over ten seeds
  // against 3-4% with three.
  plan.analytic_clients = 3;
  plan.oltp_rate = kOltpRate;
  RunServe(args, plan, out);
}

}  // namespace perfbench
