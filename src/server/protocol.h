// The serving front-end's line protocol: one request per newline-terminated
// line, one "ok <n>"/"err <message>" response block per request. The engine
// has no SQL parser (the query model is structured descriptors, query.h), so
// the wire format mirrors that model one token at a time:
//
//   ping
//   tables
//   schema <table>
//   stats
//   quit
//   explain <query-command...>
//   explain analyze <query-command...>
//   select <table> <col,col|*> [where <col><op><val> ...] [limit <n>]
//   count  <table> [where ...]
//   sum|avg|min|max <table> <col> [where ...] [by <col,col>]
//   insert <table> <v1,v2,...>
//   update <table> <col>=<val>[,<col>=<val>...] where <term> ...
//   delete <table> [where ...]
//
// where-terms are `<col><op><val>` with op one of = < <= > >=, conjoined.
// Literals are typed by the referenced column's schema type (dates travel as
// day numbers, varchars as raw tokens — values cannot contain whitespace).
//
// A response block is `ok <n>\n` followed by exactly n payload lines
// (tab-separated row values, aggregate values, or one affected-row count),
// or a single `err <message>\n` line. The fixed first-line framing is what
// lets a client read a response without lookahead, and the kMaxLineBytes cap
// is what lets the server bound memory per connection no matter what bytes
// arrive (tests/server/protocol_fuzz_test.cc).
#ifndef HSDB_SERVER_PROTOCOL_H_
#define HSDB_SERVER_PROTOCOL_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "executor/query.h"
#include "executor/result.h"

namespace hsdb {
namespace server {

/// Upper bound on one request line (newline included). A connection that
/// exceeds it mid-line is answered with an error and closed: past this point
/// the stream offers no resynchronization point.
inline constexpr size_t kMaxLineBytes = 64 * 1024;

/// One parsed request. For kQuery/kExplain/kExplainAnalyze the engine query
/// is fully resolved (columns by id, literals coerced to the column types);
/// the control kinds are answered by the server without touching the
/// executor. kExplain renders the predicted plan without executing;
/// kExplainAnalyze executes the query (DML included) and renders the
/// observed trace next to the prediction.
struct Request {
  enum class Kind {
    kQuery,
    kExplain,
    kExplainAnalyze,
    kPing,
    kTables,
    kSchema,
    kStats,
    kQuit
  };
  Kind kind = Kind::kPing;
  Query query;        // kQuery, kExplain, kExplainAnalyze
  std::string table;  // kSchema
};

/// Table-name -> schema lookup the parser resolves column names and literal
/// types against; return nullptr for unknown tables. The returned pointer is
/// only dereferenced during the ParseRequest call, so a resolver backed by
/// the catalog needs the caller to hold an epoch pin for just that long.
using SchemaResolver = std::function<const Schema*(const std::string&)>;

/// Parses one request line (trailing '\r' tolerated). Anything malformed —
/// unknown command, unknown table/column, a literal that does not coerce to
/// the column type — is an InvalidArgument whose message becomes the "err"
/// reply; the connection stays usable.
Result<Request> ParseRequest(const std::string& line,
                             const SchemaResolver& resolver);

/// Round-trip-exact rendering of an aggregate value; integral results print
/// without a fraction, so `count t` answers "42".
std::string FormatAggregate(double v);

/// Serializes a query result as a response block (SELECT/grouped rows as
/// tab-separated lines, ungrouped aggregates as one line of values, DML as
/// one affected-row count line).
std::string FormatResponse(const QueryResult& result, QueryKind kind);

/// Serializes pre-built payload lines (tables/schema/stats replies).
std::string FormatLines(const std::vector<std::string>& lines);

/// Serializes an error status as a one-line "err" reply (newlines in the
/// message are flattened so the framing survives).
std::string FormatError(const Status& status);

}  // namespace server
}  // namespace hsdb

#endif  // HSDB_SERVER_PROTOCOL_H_
