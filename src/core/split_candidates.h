// Store-aware split candidates (paper §3.2 + §4 heuristics):
//  - a high insert fraction proposes a row-store partition for newly
//    arriving tuples (horizontal split at the top of the key domain);
//  - tuples frequently updated (as a whole) concentrated in a key range
//    propose a row-store partition for that range;
//  - attributes used mainly for updates/point access ("OLTP attributes")
//    propose a vertical row-store partition, OLAP attributes stay
//    column-oriented.
// The heuristics only propose layouts; the advisor's one layout x encoding
// search (EncodingSearch) validates every proposal against the cost model,
// next to the unpartitioned stores and the current layout.
#ifndef HSDB_CORE_SPLIT_CANDIDATES_H_
#define HSDB_CORE_SPLIT_CANDIDATES_H_

#include <string>
#include <vector>

#include "core/workload_cost.h"
#include "workload/recorder.h"

namespace hsdb {

/// The heuristic split layouts of table `name` under its extended workload
/// statistics: a horizontal split (new-data or hot-update partition), a
/// vertical split (OLTP attributes to the row store) and both combined, as
/// far as each heuristic fires. Empty when none does, or when the table
/// lacks the single-column numeric primary key and key statistics a split
/// needs.
std::vector<LayoutCandidate> SplitCandidates(const Catalog& catalog,
                                             const std::string& name,
                                             const TableWorkloadStats& tstats);

}  // namespace hsdb

#endif  // HSDB_CORE_SPLIT_CANDIDATES_H_
