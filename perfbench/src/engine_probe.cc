#include "engine_probe.h"

#include <algorithm>
#include <chrono>

#include "catalog/statistics.h"
#include "common/stopwatch.h"
#include "storage/column_table.h"

namespace perfbench {

StorageTotals ReadStorageTotals(hsdb::Database& db) {
  StorageTotals totals;
  const std::vector<std::string> names = db.catalog().TableNames();
  hsdb::CatalogReadLock lock(db.catalog(), names);
  for (const std::string& name : names) {
    const hsdb::LogicalTable* table = db.catalog().GetTable(name);
    if (table == nullptr) continue;
    for (const hsdb::RowGroup& group : table->groups()) {
      for (const hsdb::Fragment& fragment : group.fragments) {
        if (fragment.table->store() != hsdb::StoreType::kColumn) continue;
        const auto& cs =
            static_cast<const hsdb::ColumnTable&>(*fragment.table);
        totals.delta_merges += cs.merge_count();
        totals.column_store_mb +=
            static_cast<double>(cs.memory_bytes()) / (1024.0 * 1024.0);
      }
    }
  }
  return totals;
}

double AnalyzeAllSeconds(hsdb::Database& db) {
  const std::vector<std::string> names = db.catalog().TableNames();
  hsdb::CatalogReadLock lock(db.catalog(), names);
  hsdb::Stopwatch sw;
  for (const std::string& name : names) {
    if (const hsdb::LogicalTable* table = db.catalog().GetTable(name)) {
      hsdb::Analyze(*table);
    }
  }
  return sw.ElapsedMs() / 1000.0;
}

EpochPinSampler::EpochPinSampler(const hsdb::EpochManager* epochs)
    : epochs_(epochs) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      max_ms_ = std::max(max_ms_, epochs_->OldestPinAgeMs());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

EpochPinSampler::~EpochPinSampler() { Stop(); }

double EpochPinSampler::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  return max_ms_;
}

}  // namespace perfbench
