// Aggregation state machinery: per-aggregate accumulators and the hash
// group-by table.
#ifndef HSDB_EXECUTOR_AGGREGATE_H_
#define HSDB_EXECUTOR_AGGREGATE_H_

#include <limits>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/row.h"
#include "executor/query.h"

namespace hsdb {

/// Accumulator covering every supported aggregate function; partials from
/// different partition pieces combine with Merge (how the executor unions
/// horizontal partitions).
struct AggState {
  double sum = 0.0;
  double count = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    sum += v;
    count += 1.0;
    if (v < min) min = v;
    if (v > max) max = v;
  }

  /// COUNT-only bulk accumulation (no per-row values needed).
  void AddCount(double n) { count += n; }

  void Merge(const AggState& other) {
    sum += other.sum;
    count += other.count;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }

  double Finalize(AggFn fn) const {
    switch (fn) {
      case AggFn::kSum:
        return sum;
      case AggFn::kAvg:
        return count == 0.0 ? 0.0 : sum / count;
      case AggFn::kMin:
        return count == 0.0 ? 0.0 : min;
      case AggFn::kMax:
        return count == 0.0 ? 0.0 : max;
      case AggFn::kCount:
        return count;
    }
    return 0.0;
  }
};

/// Group-by key: the materialized grouping values of one row.
struct GroupKey {
  Row values;

  bool operator==(const GroupKey& o) const {
    if (values.size() != o.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!(values[i] == o.values[i])) return false;
    }
    return true;
  }
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const {
    size_t h = 0x2545f4914f6cdd1dull;
    for (const Value& v : k.values) h = HashCombine(h, v.Hash());
    return h;
  }
};

/// Hash aggregation table: group key -> one AggState per aggregate
/// expression.
using GroupMap =
    std::unordered_map<GroupKey, std::vector<AggState>, GroupKeyHash>;

/// The states of `key`'s group, inserted zeroed (one per aggregate) on a
/// miss. Looks up first, so a hit copies no key and allocates nothing:
/// callers refill one scratch key per row.
inline std::vector<AggState>& GroupStates(GroupMap* map, const GroupKey& key,
                                          size_t num_aggregates) {
  auto it = map->find(key);
  if (it == map->end()) {
    it = map->emplace(key, std::vector<AggState>(num_aggregates)).first;
  }
  return it->second;
}

}  // namespace hsdb

#endif  // HSDB_EXECUTOR_AGGREGATE_H_
