#include "requests.h"

#include <cstdio>

#include "common/epoch.h"
#include "executor/batch_executor.h"
#include "server/protocol.h"
#include "storage/logical_table.h"
#include "tpch/dbgen.h"

namespace perfbench {

using hsdb::Result;
using hsdb::Status;

const char* ReqClassName(ReqClass c) {
  switch (c) {
    case ReqClass::kOlap:
      return "olap";
    case ReqClass::kPoint:
      return "point";
    case ReqClass::kWrite:
      return "write";
  }
  return "?";
}

ReqClass ClassOfKind(hsdb::QueryKind kind) {
  switch (kind) {
    case hsdb::QueryKind::kAggregation:
      return ReqClass::kOlap;
    case hsdb::QueryKind::kSelect:
      return ReqClass::kPoint;
    default:
      return ReqClass::kWrite;
  }
}

std::vector<std::string> AnalyticLines(size_t orders, size_t parts) {
  static const char* kFlags[] = {"A", "N", "R"};
  std::vector<std::string> lines;
  char buf[256];
  for (int i = 0; i < 8; ++i) {
    const int d = hsdb::tpch::kMinOrderDate + 100 + 200 * i;
    const size_t k = orders * static_cast<size_t>(i) / 8;
    auto add = [&] { lines.emplace_back(buf); };
    std::snprintf(buf, sizeof(buf),
                  "count lineitem where l_shipdate>=%d l_shipdate<%d", d,
                  d + 90);
    add();
    std::snprintf(buf, sizeof(buf),
                  "sum lineitem l_extendedprice where l_shipdate>=%d "
                  "l_shipdate<%d by l_returnflag,l_linestatus",
                  d + 1200, d + 1230);
    add();
    std::snprintf(buf, sizeof(buf),
                  "avg lineitem l_discount where l_quantity=%d by l_shipmode",
                  3 + 6 * i);
    add();
    std::snprintf(buf, sizeof(buf),
                  "sum lineitem l_quantity where l_discount>=%.2f "
                  "l_discount<=%.2f",
                  0.01 * i, 0.01 * i + 0.02);
    add();
    std::snprintf(buf, sizeof(buf),
                  "max lineitem l_extendedprice where l_shipdate>=%d "
                  "l_shipdate<%d l_quantity<%d",
                  d, d + 365, 10 + 4 * i);
    add();
    std::snprintf(buf, sizeof(buf),
                  "count lineitem where l_orderkey>=%zu l_orderkey<%zu by "
                  "l_linenumber",
                  k, k + orders / 32);
    add();
    std::snprintf(buf, sizeof(buf),
                  "min lineitem l_tax where l_returnflag=%s l_shipdate>=%d "
                  "l_shipdate<%d by l_linestatus",
                  kFlags[i % 3], d, d + 60);
    add();
    std::snprintf(buf, sizeof(buf),
                  "sum lineitem l_extendedprice where l_partkey>=%zu "
                  "l_partkey<%zu",
                  parts * static_cast<size_t>(i) / 8,
                  parts * static_cast<size_t>(i + 1) / 8);
    add();
  }
  return lines;
}

Result<hsdb::Query> ParseLine(hsdb::Database* db, const std::string& line) {
  hsdb::EpochPin pin(&db->catalog().epochs());
  hsdb::server::SchemaResolver resolver =
      [db](const std::string& name) -> const hsdb::Schema* {
    const hsdb::LogicalTable* table = db->catalog().GetTable(name);
    return table == nullptr ? nullptr : &table->schema();
  };
  HSDB_ASSIGN_OR_RETURN(hsdb::server::Request req,
                        hsdb::server::ParseRequest(line, resolver));
  if (req.kind != hsdb::server::Request::Kind::kQuery) {
    return Status::InvalidArgument("not a query: " + line);
  }
  return std::move(req.query);
}

namespace {

/// Payload lines of a formatted response block ("ok <n>\n" + n lines).
std::vector<std::string> PayloadLines(const std::string& block) {
  std::vector<std::string> lines;
  size_t pos = block.find('\n');
  while (pos != std::string::npos && pos + 1 < block.size()) {
    const size_t nl = block.find('\n', pos + 1);
    lines.push_back(block.substr(pos + 1, nl - pos - 1));
    pos = nl;
  }
  return lines;
}

}  // namespace

Result<std::vector<AnalyticRequest>> BuildGoldens(
    hsdb::Database* db, const std::vector<std::string>& lines) {
  std::vector<AnalyticRequest> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) {
    HSDB_ASSIGN_OR_RETURN(hsdb::Query query, ParseLine(db, line));
    if (hsdb::BatchExecutor::ShareableTable(query) == nullptr) {
      return Status::InvalidArgument("analytic request is not shareable: " +
                                     line);
    }
    HSDB_ASSIGN_OR_RETURN(hsdb::QueryResult result, db->Execute(query));
    AnalyticRequest req;
    req.line = line;
    req.golden = PayloadLines(
        hsdb::server::FormatResponse(result, hsdb::KindOf(query)));
    out.push_back(std::move(req));
  }
  return out;
}

OltpGenerator::OltpGenerator(uint64_t seed, size_t orders, size_t customers)
    : rng_(seed),
      orders_(orders),
      customers_(customers),
      next_orderkey_(static_cast<int64_t>(orders)) {}

OltpRequest OltpGenerator::Next() {
  OltpRequest req;
  char buf[256];
  const double dice = rng_.UniformDouble();
  const auto order_key = [&] {
    return rng_.UniformInt(0, static_cast<int64_t>(orders_) - 1);
  };
  const auto cust_key = [&] {
    return rng_.UniformInt(0, static_cast<int64_t>(customers_) - 1);
  };
  if (dice < 0.25) {
    const int64_t key = order_key();
    std::snprintf(buf, sizeof(buf),
                  "select orders o_orderkey,o_orderstatus,o_totalprice "
                  "where o_orderkey=%lld",
                  static_cast<long long>(key));
    req.cls = ReqClass::kPoint;
    req.key = std::to_string(key);
  } else if (dice < 0.50) {
    const int64_t key = cust_key();
    std::snprintf(buf, sizeof(buf),
                  "select customer c_custkey,c_acctbal where c_custkey=%lld",
                  static_cast<long long>(key));
    req.cls = ReqClass::kPoint;
    req.key = std::to_string(key);
  } else if (dice < 0.65) {
    std::snprintf(buf, sizeof(buf),
                  "update orders o_orderstatus=%s where o_orderkey=%lld",
                  rng_.Chance(0.5) ? "F" : "P",
                  static_cast<long long>(order_key()));
    req.cls = ReqClass::kWrite;
  } else if (dice < 0.80) {
    std::snprintf(buf, sizeof(buf),
                  "update customer c_acctbal=%.2f where c_custkey=%lld",
                  rng_.UniformDouble(-999.99, 9999.99),
                  static_cast<long long>(cust_key()));
    req.cls = ReqClass::kWrite;
  } else {
    // Whitespace-free literals: the line protocol tokenizes on spaces.
    const int64_t key = next_orderkey_++;
    std::snprintf(
        buf, sizeof(buf),
        "insert orders %lld,%lld,O,%.2f,%d,1-URGENT,Clerk#000000001,0,"
        "perfbench",
        static_cast<long long>(key), static_cast<long long>(cust_key()),
        rng_.UniformDouble(1000.0, 450000.0),
        static_cast<int>(rng_.UniformInt(hsdb::tpch::kMinOrderDate,
                                         hsdb::tpch::kMaxOrderDate)));
    req.cls = ReqClass::kWrite;
  }
  req.line = buf;
  return req;
}

bool CheckOltpReply(const OltpRequest& req, const hsdb::server::Reply& reply,
                    std::string* why) {
  if (!reply.ok) {
    *why = "err " + reply.error;
    return false;
  }
  if (req.cls == ReqClass::kWrite) {
    if (reply.lines.size() == 1 && reply.lines[0] == "1") return true;
    *why = "write did not report 1 affected row";
    return false;
  }
  if (reply.lines.size() == 1 &&
      reply.lines[0].compare(0, req.key.size() + 1, req.key + "\t") == 0) {
    return true;
  }
  *why = "point select did not return exactly key " + req.key;
  return false;
}

bool CheckAnalyticReply(const AnalyticRequest& req,
                        const hsdb::server::Reply& reply, std::string* why) {
  if (!reply.ok) {
    *why = "err " + reply.error;
    return false;
  }
  if (reply.lines == req.golden) return true;
  *why = "reply differs from golden for '" + req.line + "'";
  return false;
}

}  // namespace perfbench
