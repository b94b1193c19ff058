// Property tests: the row store, the column store, and every partitioned
// layout are different physical organizations of the same logical table —
// any sequence of operations must produce identical logical contents and
// identical filter results on all of them.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "storage/logical_table.h"

namespace hsdb {
namespace {

Schema WideSchema() {
  return Schema::CreateOrDie({{"id", DataType::kInt64},
                              {"a", DataType::kInt32},
                              {"b", DataType::kDouble},
                              {"c", DataType::kDate},
                              {"d", DataType::kVarchar},
                              {"e", DataType::kInt64}},
                             {0});
}

Row RandomRow(Rng& rng, int64_t id) {
  return {id,
          int32_t(rng.UniformInt(0, 20)),
          rng.UniformDouble(0, 1000),
          Date{int32_t(rng.UniformInt(0, 3650))},
          "s" + std::to_string(rng.UniformInt(0, 9)),
          rng.UniformInt(-1000, 1000)};
}

struct LayoutCase {
  const char* name;
  TableLayout layout;
};

std::vector<LayoutCase> AllLayouts() {
  TableLayout rs = TableLayout::SingleStore(StoreType::kRow);
  TableLayout cs = TableLayout::SingleStore(StoreType::kColumn);
  TableLayout h;
  h.base_store = StoreType::kColumn;
  h.horizontal = HorizontalSpec{0, 500.0, StoreType::kRow};
  TableLayout v;
  v.base_store = StoreType::kColumn;
  v.vertical = VerticalSpec{{1, 3}};
  TableLayout hv;
  hv.base_store = StoreType::kColumn;
  hv.horizontal = HorizontalSpec{0, 500.0, StoreType::kRow};
  hv.vertical = VerticalSpec{{1, 3}};
  return {{"row", rs}, {"column", cs}, {"horizontal", h},
          {"vertical", v}, {"combined", hv}};
}

class StoreEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreEquivalenceTest, RandomOpsKeepLayoutsEquivalent) {
  const uint64_t seed = GetParam();
  std::vector<std::unique_ptr<LogicalTable>> tables;
  PhysicalOptions opts;
  opts.column.min_merge_rows = 64;  // force frequent merges under the test
  for (const LayoutCase& lc : AllLayouts()) {
    auto r = LogicalTable::Create(lc.name, WideSchema(), lc.layout, opts);
    ASSERT_TRUE(r.ok()) << lc.name;
    tables.push_back(std::move(r).value());
  }
  // Reference model: ordered map pk -> row.
  std::map<int64_t, Row> model;

  Rng rng(seed);
  for (int step = 0; step < 1200; ++step) {
    double dice = rng.UniformDouble();
    if (dice < 0.5 || model.empty()) {
      // Insert a fresh or colliding id.
      int64_t id = rng.UniformInt(0, 999);
      Row row;
      {
        Rng row_rng(seed * 7919 + step);  // identical row for all tables
        row = RandomRow(row_rng, id);
      }
      bool expect_ok = model.find(id) == model.end();
      for (auto& t : tables) {
        Status s = t->Insert(row);
        ASSERT_EQ(s.ok(), expect_ok) << t->name() << " step " << step;
      }
      if (expect_ok) model[id] = row;
    } else if (dice < 0.75) {
      // Update a random existing row (never col 0: pk & partition column).
      auto it = model.begin();
      std::advance(it, rng.Index(model.size()));
      std::vector<ColumnId> cols;
      Row vals;
      if (rng.Chance(0.5)) {
        cols = {1, 2};
        vals = {int32_t(rng.UniformInt(0, 20)), rng.UniformDouble(0, 1000)};
      } else {
        cols = {4, 5};
        vals = {Value("s" + std::to_string(rng.UniformInt(0, 9))),
                Value(rng.UniformInt(-1000, 1000))};
      }
      for (auto& t : tables) {
        ASSERT_TRUE(
            t->UpdateByPk(PrimaryKey::Of(Value(it->first)), cols, vals).ok())
            << t->name() << " step " << step;
      }
      for (size_t i = 0; i < cols.size(); ++i) {
        Value coerced;
        ASSERT_TRUE(
            vals[i].CoerceTo(WideSchema().column(cols[i]).type, &coerced));
        it->second[cols[i]] = coerced;
      }
    } else if (dice < 0.85) {
      // Delete a random existing row.
      auto it = model.begin();
      std::advance(it, rng.Index(model.size()));
      for (auto& t : tables) {
        ASSERT_TRUE(t->DeleteByPk(PrimaryKey::Of(Value(it->first))).ok())
            << t->name() << " step " << step;
      }
      model.erase(it);
    } else {
      // Statement boundary: merges may fire.
      for (auto& t : tables) t->AfterStatement();
    }
  }

  // 1. Row counts match the model.
  for (auto& t : tables) {
    EXPECT_EQ(t->row_count(), model.size()) << t->name();
  }
  // 2. Point lookups agree cell by cell.
  for (const auto& [id, row] : model) {
    for (auto& t : tables) {
      auto got = t->GetByPk(PrimaryKey::Of(Value(id)));
      ASSERT_TRUE(got.ok()) << t->name() << " pk " << id;
      for (ColumnId c = 0; c < row.size(); ++c) {
        ASSERT_TRUE((*got)[c] == row[c])
            << t->name() << " pk " << id << " col " << c << ": "
            << (*got)[c].ToString() << " vs " << row[c].ToString();
      }
    }
  }
  // 3. ForEachRow enumerates exactly the model contents.
  for (auto& t : tables) {
    std::map<int64_t, Row> seen;
    t->ForEachRow([&](const Row& row) {
      seen.emplace(row[0].as_int64(), row);
    });
    ASSERT_EQ(seen.size(), model.size()) << t->name();
    for (const auto& [id, row] : model) {
      auto it = seen.find(id);
      ASSERT_NE(it, seen.end()) << t->name() << " pk " << id;
      for (ColumnId c = 0; c < row.size(); ++c) {
        ASSERT_TRUE(it->second[c] == row[c]) << t->name() << " col " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44));

// Filter results must be identical between the row and column stores.
class FilterEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterEquivalenceTest, FiltersAgreeAcrossStores) {
  Rng rng(GetParam());
  auto rs = RowTable::Create(WideSchema());
  ColumnTable::Options copts;
  copts.auto_merge = false;
  auto cs = ColumnTable::Create(WideSchema(), copts);
  for (int64_t i = 0; i < 800; ++i) {
    Rng row_rng(GetParam() * 131 + i);
    Row row = RandomRow(row_rng, i);
    rs->Insert(row);
    cs->Insert(row);
  }
  // Merge half-way through further inserts so main and delta both matter.
  cs->MergeDelta();
  for (int64_t i = 800; i < 1000; ++i) {
    Rng row_rng(GetParam() * 131 + i);
    Row row = RandomRow(row_rng, i);
    rs->Insert(row);
    cs->Insert(row);
  }

  for (int trial = 0; trial < 60; ++trial) {
    ColumnId col = static_cast<ColumnId>(rng.Index(6));
    ValueRange range;
    switch (WideSchema().column(col).type) {
      case DataType::kInt32: {
        int32_t lo = int32_t(rng.UniformInt(0, 20));
        range = rng.Chance(0.5)
                    ? ValueRange::Eq(Value(lo))
                    : ValueRange::Between(Value(lo),
                                          Value(int32_t(lo + 5)));
        break;
      }
      case DataType::kInt64: {
        int64_t lo = rng.UniformInt(-1000, 1000);
        range = ValueRange::Between(Value(lo), Value(lo + 300));
        break;
      }
      case DataType::kDouble: {
        double lo = rng.UniformDouble(0, 900);
        range = ValueRange::Between(Value(lo), Value(lo + 150));
        break;
      }
      case DataType::kDate: {
        int32_t lo = int32_t(rng.UniformInt(0, 3000));
        range = ValueRange::Between(Value(Date{lo}), Value(Date{lo + 500}));
        break;
      }
      case DataType::kVarchar: {
        range = ValueRange::Eq(
            Value("s" + std::to_string(rng.UniformInt(0, 9))));
        break;
      }
    }
    Bitmap rs_bm = rs->live_bitmap();
    rs->FilterRangeSlice(col, range, 0, rs->slot_count(), &rs_bm);
    Bitmap cs_bm = cs->live_bitmap();
    cs->FilterRangeSlice(col, range, 0, cs->slot_count(), &cs_bm);
    ASSERT_EQ(rs_bm.Count(), cs_bm.Count())
        << "col " << col << " range " << range.ToString();
    // Same physical insert order in both stores, so bit positions agree.
    rs_bm.ForEachSet([&](size_t rid) {
      ASSERT_TRUE(cs_bm.Test(rid)) << "col " << col << " rid " << rid;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterEquivalenceTest,
                         ::testing::Values(7, 17, 27));

// Compression must be invisible to query results: the same operation
// sequence against the row store and column stores with adaptive codecs,
// dictionary-only segments (compression "off"), and every codec forced must
// leave identical logical contents and identical filter results.
class CompressionEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressionEquivalenceTest, CodecsAgreeOnContentsAndFilters) {
  const uint64_t seed = GetParam();
  struct Case {
    const char* name;
    StoreType store;
    compression::EncodingPicker::Options encoding;
  };
  std::vector<Case> cases = {{"row", StoreType::kRow, {}},
                             {"adaptive", StoreType::kColumn, {}}};
  {
    compression::EncodingPicker::Options off;
    off.adaptive = false;
    cases.push_back({"dictionary-only", StoreType::kColumn, off});
    for (Encoding e : {Encoding::kRle, Encoding::kFrameOfReference,
                       Encoding::kRaw}) {
      compression::EncodingPicker::Options forced;
      forced.force = e;
      cases.push_back({EncodingName(e).data(), StoreType::kColumn, forced});
    }
  }
  std::vector<std::unique_ptr<LogicalTable>> tables;
  for (const Case& c : cases) {
    PhysicalOptions opts;
    opts.column.min_merge_rows = 64;  // force frequent re-encodes
    opts.column.encoding = c.encoding;
    auto r = LogicalTable::Create(c.name, WideSchema(),
                                  TableLayout::SingleStore(c.store), opts);
    ASSERT_TRUE(r.ok()) << c.name;
    tables.push_back(std::move(r).value());
  }

  std::map<int64_t, Row> model;
  Rng rng(seed);
  for (int step = 0; step < 900; ++step) {
    double dice = rng.UniformDouble();
    if (dice < 0.55 || model.empty()) {
      int64_t id = rng.UniformInt(0, 699);
      Row row;
      {
        Rng row_rng(seed * 6151 + step);
        row = RandomRow(row_rng, id);
      }
      bool expect_ok = model.find(id) == model.end();
      for (auto& t : tables) {
        ASSERT_EQ(t->Insert(row).ok(), expect_ok)
            << t->name() << " step " << step;
      }
      if (expect_ok) model[id] = row;
    } else if (dice < 0.75) {
      auto it = model.begin();
      std::advance(it, rng.Index(model.size()));
      std::vector<ColumnId> cols = {1, 5};
      Row vals = {int32_t(rng.UniformInt(0, 20)),
                  Value(rng.UniformInt(-1000, 1000))};
      for (auto& t : tables) {
        ASSERT_TRUE(
            t->UpdateByPk(PrimaryKey::Of(Value(it->first)), cols, vals).ok())
            << t->name() << " step " << step;
      }
      for (size_t i = 0; i < cols.size(); ++i) {
        Value coerced;
        ASSERT_TRUE(
            vals[i].CoerceTo(WideSchema().column(cols[i]).type, &coerced));
        it->second[cols[i]] = coerced;
      }
    } else if (dice < 0.85) {
      auto it = model.begin();
      std::advance(it, rng.Index(model.size()));
      for (auto& t : tables) {
        ASSERT_TRUE(t->DeleteByPk(PrimaryKey::Of(Value(it->first))).ok())
            << t->name() << " step " << step;
      }
      model.erase(it);
    } else {
      for (auto& t : tables) t->AfterStatement();
    }
  }
  for (auto& t : tables) t->ForceMerge();

  // Contents agree with the model cell by cell.
  for (auto& t : tables) {
    EXPECT_EQ(t->row_count(), model.size()) << t->name();
    std::map<int64_t, Row> seen;
    t->ForEachRow([&](const Row& row) {
      seen.emplace(row[0].as_int64(), row);
    });
    ASSERT_EQ(seen.size(), model.size()) << t->name();
    for (const auto& [id, row] : model) {
      auto it = seen.find(id);
      ASSERT_NE(it, seen.end()) << t->name() << " pk " << id;
      for (ColumnId c = 0; c < row.size(); ++c) {
        ASSERT_TRUE(it->second[c] == row[c])
            << t->name() << " pk " << id << " col " << c;
      }
    }
  }

  // Filter results agree across all compression configurations: compare
  // matched primary-key sets (slot positions differ across merges).
  Rng filter_rng(seed * 31 + 5);
  for (int trial = 0; trial < 40; ++trial) {
    ColumnId col = static_cast<ColumnId>(filter_rng.Index(6));
    ValueRange range;
    switch (WideSchema().column(col).type) {
      case DataType::kInt32:
        range = ValueRange::Between(
            Value(int32_t(filter_rng.UniformInt(0, 20))),
            Value(int32_t(filter_rng.UniformInt(0, 20) + 4)));
        break;
      case DataType::kInt64:
        range = ValueRange::Between(Value(filter_rng.UniformInt(-1000, 500)),
                                    Value(filter_rng.UniformInt(500, 1000)));
        break;
      case DataType::kDouble:
        range = ValueRange::AtLeast(Value(filter_rng.UniformDouble(0, 900)));
        break;
      case DataType::kDate:
        range = ValueRange::Less(
            Value(Date{int32_t(filter_rng.UniformInt(0, 3650))}));
        break;
      case DataType::kVarchar:
        range = ValueRange::Eq(
            Value("s" + std::to_string(filter_rng.UniformInt(0, 9))));
        break;
    }
    std::vector<std::set<int64_t>> matched(tables.size());
    for (size_t ti = 0; ti < tables.size(); ++ti) {
      const RowGroup& group = tables[ti]->groups()[0];
      const Fragment& frag = group.fragments[0];
      Bitmap bm = frag.table->live_bitmap();
      frag.table->FilterRangeSlice(frag.FragColumn(col), range, 0,
                                   frag.table->slot_count(), &bm);
      bm.ForEachSet([&](size_t rid) {
        matched[ti].insert(frag.table->GetValue(rid, 0).as_int64());
      });
    }
    for (size_t ti = 1; ti < tables.size(); ++ti) {
      ASSERT_EQ(matched[ti], matched[0])
          << tables[ti]->name() << " col " << col << " range "
          << range.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionEquivalenceTest,
                         ::testing::Values(5, 15, 25, 35));

}  // namespace
}  // namespace hsdb
