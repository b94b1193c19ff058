#include "core/table_advisor.h"

#include <algorithm>

#include "catalog/statistics.h"
#include "common/random.h"
#include "storage/compression/encoding_picker.h"

namespace hsdb {

namespace {

/// Per-query cost cache: a query involving tables {t1..tk} has 2^k costs,
/// one per store combination of the involved tables.
struct QueryComboCosts {
  double weight = 1.0;
  std::vector<size_t> tables;  // indices into the global table list
  std::vector<double> costs;   // indexed by local store bitmask (bit i ->
                               // tables[i] in the column store)
};

/// The codec the default EncodingPicker chooses for each column from its
/// statistics profile: what a fresh column-store load would hold, whatever
/// codecs the store holds now.
std::vector<Encoding> PickerEncodings(const TableStatistics& stats) {
  const compression::EncodingPicker picker;
  std::vector<Encoding> encodings;
  encodings.reserve(stats.columns.size());
  for (const ColumnStatistics& cs : stats.columns) {
    encodings.push_back(
        picker.Pick(StatisticsEncodingProfile(cs, stats.row_count)));
  }
  return encodings;
}

}  // namespace

TableAdvisorResult TableAdvisor::Recommend(
    const std::vector<WeightedQuery>& workload) const {
  TableAdvisorResult result;

  // Collect the tables the workload touches, in deterministic order.
  std::vector<std::string> names;
  std::map<std::string, size_t> index_of;
  for (const WeightedQuery& wq : workload) {
    for (const std::string& name : TablesOf(wq.query)) {
      if (index_of.emplace(name, names.size()).second) {
        names.push_back(name);
      }
    }
  }
  const size_t n = names.size();
  if (n == 0) return result;

  // The picker's codecs per table (see the header); tables without
  // statistics fall back to the estimator's default.
  std::vector<LayoutContext> contexts(n);
  for (size_t t = 0; t < n; ++t) {
    if (const TableStatistics* stats = catalog_->GetStatistics(names[t])) {
      contexts[t].encodings = PickerEncodings(*stats);
    }
  }

  // Precompute per-query combination costs.
  std::vector<QueryComboCosts> cache;
  cache.reserve(workload.size());
  std::vector<StoreType> scratch(n, StoreType::kRow);
  for (const WeightedQuery& wq : workload) {
    QueryComboCosts entry;
    entry.weight = wq.weight;
    for (const std::string& name : TablesOf(wq.query)) {
      entry.tables.push_back(index_of.at(name));
    }
    const size_t k = entry.tables.size();
    entry.costs.resize(size_t{1} << k);
    for (size_t mask = 0; mask < entry.costs.size(); ++mask) {
      for (size_t b = 0; b < k; ++b) {
        scratch[entry.tables[b]] = (mask >> b) & 1 ? StoreType::kColumn
                                                   : StoreType::kRow;
      }
      entry.costs[mask] = estimator_.QueryCost(
          wq.query, [&](const std::string& name) {
            auto it = index_of.find(name);
            if (it == index_of.end()) {
              return LayoutContext::SingleStore(StoreType::kRow);
            }
            LayoutContext ctx = contexts[it->second];
            ctx.layout = TableLayout::SingleStore(scratch[it->second]);
            return ctx;
          });
    }
    cache.push_back(std::move(entry));
  }

  auto assignment_cost = [&](const std::vector<StoreType>& stores) {
    double total = 0.0;
    for (const QueryComboCosts& entry : cache) {
      size_t mask = 0;
      for (size_t b = 0; b < entry.tables.size(); ++b) {
        if (stores[entry.tables[b]] == StoreType::kColumn) {
          mask |= size_t{1} << b;
        }
      }
      total += entry.weight * entry.costs[mask];
    }
    return total;
  };

  std::vector<StoreType> all_rs(n, StoreType::kRow);
  std::vector<StoreType> all_cs(n, StoreType::kColumn);
  result.rs_only_cost_ms = assignment_cost(all_rs);
  result.cs_only_cost_ms = assignment_cost(all_cs);

  std::vector<StoreType> best;
  double best_cost = 0.0;

  if (n <= options_.exhaustive_limit) {
    result.exhaustive = true;
    best = all_rs;
    best_cost = result.rs_only_cost_ms;
    for (size_t mask = 1; mask < (size_t{1} << n); ++mask) {
      std::vector<StoreType> stores(n);
      for (size_t t = 0; t < n; ++t) {
        stores[t] = (mask >> t) & 1 ? StoreType::kColumn : StoreType::kRow;
      }
      double cost = assignment_cost(stores);
      ++result.evaluated_assignments;
      if (cost < best_cost) {
        best_cost = cost;
        best = std::move(stores);
      }
    }
  } else {
    result.exhaustive = false;
    // Hill climbing with restarts: flip the single table that helps most.
    Rng rng(options_.seed);
    auto climb = [&](std::vector<StoreType> stores) {
      double cost = assignment_cost(stores);
      bool improved = true;
      while (improved) {
        improved = false;
        for (size_t t = 0; t < n; ++t) {
          stores[t] = stores[t] == StoreType::kRow ? StoreType::kColumn
                                                   : StoreType::kRow;
          double flipped = assignment_cost(stores);
          ++result.evaluated_assignments;
          if (flipped + 1e-12 < cost) {
            cost = flipped;
            improved = true;
          } else {
            stores[t] = stores[t] == StoreType::kRow ? StoreType::kColumn
                                                     : StoreType::kRow;
          }
        }
      }
      if (best.empty() || cost < best_cost) {
        best_cost = cost;
        best = stores;
      }
    };
    climb(all_rs);
    climb(all_cs);
    for (int r = 0; r < options_.hill_climb_restarts; ++r) {
      std::vector<StoreType> stores(n);
      for (size_t t = 0; t < n; ++t) {
        stores[t] = rng.Chance(0.5) ? StoreType::kRow : StoreType::kColumn;
      }
      climb(std::move(stores));
    }
  }

  result.estimated_cost_ms = best_cost;
  for (size_t t = 0; t < n; ++t) {
    result.assignment.emplace(names[t], best[t]);
  }
  return result;
}

}  // namespace hsdb
