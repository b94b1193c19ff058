// Renderers for the `explain` / `explain analyze` wire verbs: the per-query
// window into the advisor's cost model. `explain` shows what the engine
// *predicts* — per-table layout, per-column codecs, the estimated cost from
// the installed predictor, and the access path readpath::Bind picks (the
// plan the executor runs) with whether the server would admit it to the
// admission queue, where it can join a shared-scan batch.
// `explain analyze` executes the query and puts the observed trace-span
// tree next to the prediction, making the cost model's honesty inspectable
// one query at a time (the aggregate form lives in the cost-feedback
// residual stream).
#ifndef HSDB_SERVER_EXPLAIN_H_
#define HSDB_SERVER_EXPLAIN_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "executor/database.h"
#include "executor/query.h"

namespace hsdb {
namespace server {

/// Renders the predicted plan without executing. Takes the queried tables'
/// reader locks (CatalogReadLock) for a consistent view; safe to call
/// concurrently with traffic. Unknown tables are reported inline rather
/// than failing — the parser already validated what it could.
std::vector<std::string> ExplainLines(Database* db, const Query& query);

/// Executes the query through Database::Execute and renders the result
/// summary, the observed trace tree, and the predicted-vs-observed delta.
/// DML under explain analyze really mutates, like the plain verb would.
/// Fails only when the execution itself fails.
Result<std::vector<std::string>> ExplainAnalyzeLines(Database* db,
                                                     const Query& query);

}  // namespace server
}  // namespace hsdb

#endif  // HSDB_SERVER_EXPLAIN_H_
