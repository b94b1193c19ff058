// Request generators and reply checkers of the serving workloads.
//
// Analytic requests come from a finite set of shareable single-table
// aggregations over lineitem, so every answer can be computed in-process
// once at set-up (the golden) and every wire reply compared against it.
// OLTP requests are point selects and single-row writes on orders and
// customer; their replies are checked structurally (the requested key
// comes back, a write reports one affected row).
#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "executor/database.h"
#include "server/client.h"

namespace perfbench {

/// Request classes; latencies are never pooled across them.
enum class ReqClass : uint8_t { kOlap = 0, kPoint, kWrite };
inline constexpr int kNumReqClasses = 3;
const char* ReqClassName(ReqClass c);
/// Class of an engine query kind (aggregation -> olap, select -> point,
/// DML -> write).
ReqClass ClassOfKind(hsdb::QueryKind kind);

struct AnalyticRequest {
  std::string line;
  /// Payload lines of the reply computed in-process at set-up.
  std::vector<std::string> golden;
};

/// The analytic request set over lineitem for a database with `orders`
/// orders and `parts` parts: 64 lines across range counts, filtered sums,
/// extrema and grouped aggregates on columns with different codecs.
std::vector<std::string> AnalyticLines(size_t orders, size_t parts);

/// Parses each line against the catalog, checks it is batch-shareable, runs
/// it through Database::Execute and formats the golden reply.
hsdb::Result<std::vector<AnalyticRequest>> BuildGoldens(
    hsdb::Database* db, const std::vector<std::string>& lines);

/// Parses one request line against the live catalog (what the server's
/// reader thread does for every line it receives).
hsdb::Result<hsdb::Query> ParseLine(hsdb::Database* db,
                                    const std::string& line);

/// One OLTP request and what its reply must contain.
struct OltpRequest {
  std::string line;
  ReqClass cls = ReqClass::kPoint;
  /// For point selects: the key the single reply row must start with.
  std::string key;
};

/// OLTP mix of serve_htap: 25% point select on orders, 25% on customer,
/// 15% status update on orders (column store), 15% balance update on
/// customer (row store), 20% fresh orders inserts. Never touches lineitem,
/// so the analytic goldens stay valid while it runs.
class OltpGenerator {
 public:
  OltpGenerator(uint64_t seed, size_t orders, size_t customers);
  OltpRequest Next();

 private:
  hsdb::Rng rng_;
  size_t orders_;
  size_t customers_;
  int64_t next_orderkey_;
};

/// True when `reply` is a correct answer to `req`; `why` says what was
/// wrong otherwise.
bool CheckOltpReply(const OltpRequest& req, const hsdb::server::Reply& reply,
                    std::string* why);
bool CheckAnalyticReply(const AnalyticRequest& req,
                        const hsdb::server::Reply& reply, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_
