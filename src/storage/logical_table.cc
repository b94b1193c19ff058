#include "storage/logical_table.h"

#include <algorithm>
#include <utility>

namespace hsdb {

namespace {

/// Slot of `pk` in one fragment of the group that holds the key: every
/// fragment of a group holds every row of the group.
RowId FragmentRid(const Fragment& frag, const PrimaryKey& pk) {
  std::optional<RowId> rid = frag.table->FindByPk(pk);
  HSDB_CHECK_MSG(rid.has_value(), "fragment lost row");
  return *rid;
}

}  // namespace

std::unique_ptr<PhysicalTable> MakePhysicalTable(
    Schema schema, StoreType store, const PhysicalOptions& options) {
  if (store == StoreType::kRow) {
    return RowTable::Create(std::move(schema), options.row);
  }
  return ColumnTable::Create(std::move(schema), options.column);
}

bool Fragment::Covers(const std::vector<ColumnId>& logical_cols) const {
  for (ColumnId col : logical_cols) {
    if (!Contains(col)) return false;
  }
  return true;
}

Result<std::unique_ptr<LogicalTable>> LogicalTable::Create(
    std::string name, Schema schema, TableLayout layout,
    PhysicalOptions options) {
  HSDB_RETURN_IF_ERROR(layout.Validate(schema));
  if (schema.primary_key().empty()) {
    return Status::InvalidArgument("tables require a primary key");
  }
  auto table = std::unique_ptr<LogicalTable>(new LogicalTable(
      std::move(name), std::move(schema), std::move(layout), options));
  const Schema& s = table->schema_;
  const TableLayout& l = table->layout_;

  // All logical columns in schema order.
  std::vector<ColumnId> all_columns(s.num_columns());
  for (ColumnId c = 0; c < s.num_columns(); ++c) all_columns[c] = c;

  // Hot group: full-width rows in the hot store.
  if (l.horizontal.has_value()) {
    RowGroup hot;
    hot.hot = true;
    hot.fragments.push_back(
        table->MakeFragment(all_columns, l.horizontal->hot_store));
    table->groups_.push_back(std::move(hot));
  }

  // Cold group: either one full-width fragment or a vertical split.
  RowGroup cold;
  cold.hot = false;
  if (l.vertical.has_value()) {
    std::vector<ColumnId> rs_cols;
    std::vector<ColumnId> other_cols;
    for (ColumnId c = 0; c < s.num_columns(); ++c) {
      bool in_rs = std::find(l.vertical->row_store_columns.begin(),
                             l.vertical->row_store_columns.end(),
                             c) != l.vertical->row_store_columns.end();
      if (s.IsPrimaryKeyColumn(c)) {
        rs_cols.push_back(c);  // key replicated into both pieces
        other_cols.push_back(c);
      } else if (in_rs) {
        rs_cols.push_back(c);
      } else {
        other_cols.push_back(c);
      }
    }
    cold.fragments.push_back(
        table->MakeFragment(rs_cols, StoreType::kRow));
    cold.fragments.push_back(
        table->MakeFragment(other_cols, l.base_store));
  } else {
    cold.fragments.push_back(
        table->MakeFragment(all_columns, l.base_store));
  }
  table->groups_.push_back(std::move(cold));
  return table;
}

Fragment LogicalTable::MakeFragment(const std::vector<ColumnId>& columns,
                                    StoreType store) const {
  Fragment frag;
  frag.columns = columns;
  frag.logical_to_frag.assign(schema_.num_columns(), -1);
  for (size_t i = 0; i < columns.size(); ++i) {
    frag.logical_to_frag[columns[i]] = static_cast<int>(i);
  }
  // Pinned per-column codecs are specified in logical column ids; slice
  // them into this fragment's column order.
  PhysicalOptions options = options_;
  if (!options.column.column_encodings.empty()) {
    std::vector<std::optional<Encoding>> sliced(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] < options.column.column_encodings.size()) {
        sliced[i] = options.column.column_encodings[columns[i]];
      }
    }
    options.column.column_encodings = std::move(sliced);
  }
  frag.table = MakePhysicalTable(schema_.Project(columns), store, options);
  return frag;
}

size_t LogicalTable::row_count() const {
  size_t total = 0;
  for (const RowGroup& group : groups_) {
    total += group.fragments.front().table->live_count();
  }
  return total;
}

size_t LogicalTable::memory_bytes() const {
  size_t total = 0;
  for (const RowGroup& group : groups_) {
    for (const Fragment& frag : group.fragments) {
      total += frag.table->memory_bytes();
    }
  }
  return total;
}

uint64_t LogicalTable::data_version() const {
  uint64_t version = 0;
  for (const RowGroup& group : groups_) {
    for (const Fragment& frag : group.fragments) {
      version += frag.table->data_version();
    }
  }
  return version;
}

size_t LogicalTable::RouteInsert(const Row& row) const {
  if (!layout_.horizontal.has_value()) return groups_.size() - 1;
  double v = row.at(layout_.horizontal->column).AsNumeric();
  // Group 0 is the hot group when a horizontal split exists.
  return v >= layout_.horizontal->boundary ? 0 : groups_.size() - 1;
}

Status LogicalTable::Insert(Row row) {
  HSDB_RETURN_IF_ERROR(ValidateAndCoerceRow(schema_, &row));
  const PrimaryKey pk = PrimaryKey::FromRow(schema_, row);
  size_t group_index;
  if (FindGroupByPk(pk, &group_index)) {
    return Status::AlreadyExists("duplicate primary key " + pk.ToString());
  }
  // Typed and new to every group: no store can reject the row now. The op
  // log copies it only while attached; a single-fragment group takes it by
  // move.
  if (op_log_ != nullptr) op_log_->Append(TableOp::Upsert(row));
  std::vector<Fragment>& fragments = groups_[RouteInsert(row)].fragments;
  if (fragments.size() == 1) {
    fragments.front().table->Insert(std::move(row));
    return Status::OK();
  }
  for (Fragment& frag : fragments) {
    frag.table->Insert(ProjectRow(row, frag.columns));
  }
  return Status::OK();
}

bool LogicalTable::FindGroupByPk(const PrimaryKey& pk,
                                 size_t* group_index) const {
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].fragments.front().table->FindByPk(pk).has_value()) {
      *group_index = g;
      return true;
    }
  }
  return false;
}

Status LogicalTable::UpdateByPk(const PrimaryKey& pk,
                                const std::vector<ColumnId>& columns,
                                const Row& values) {
  if (columns.size() != values.size()) {
    return Status::InvalidArgument("columns/values arity mismatch");
  }
  Row coerced = values;
  for (size_t i = 0; i < columns.size(); ++i) {
    const ColumnId col = columns[i];
    if (col >= schema_.num_columns()) {
      return Status::InvalidArgument("column id out of range");
    }
    if (schema_.IsPrimaryKeyColumn(col)) {
      return Status::NotSupported("updating primary-key columns");
    }
    if (layout_.horizontal.has_value() && col == layout_.horizontal->column) {
      return Status::NotSupported("updating the horizontal partition column");
    }
    HSDB_RETURN_IF_ERROR(CoerceCell(schema_.column(col), &coerced[i]));
  }
  size_t group_index;
  if (!FindGroupByPk(pk, &group_index)) {
    return Status::NotFound("no row with primary key " + pk.ToString());
  }
  for (Fragment& frag : groups_[group_index].fragments) {
    // The updated columns that live in this fragment; a non-key column
    // lives in exactly one fragment, so its value can move.
    std::vector<ColumnId> frag_cols;
    Row frag_vals;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (frag.Contains(columns[i])) {
        frag_cols.push_back(frag.FragColumn(columns[i]));
        frag_vals.push_back(std::move(coerced[i]));
      }
    }
    if (frag_cols.empty()) continue;
    frag.table->UpdateRow(FragmentRid(frag, pk), frag_cols, frag_vals);
  }
  if (op_log_ != nullptr) {
    // Full post-image upsert: the shadow may hold no pre-image for this pk
    // yet (tombstone+append moved it past the copy cursor), so a column
    // delta would have nothing to apply to.
    Result<Row> full = GetByPk(pk);
    HSDB_CHECK_MSG(full.ok(), full.status().ToString().c_str());
    op_log_->Append(TableOp::Upsert(std::move(full).value()));
  }
  return Status::OK();
}

Status LogicalTable::DeleteByPk(const PrimaryKey& pk) {
  size_t group_index;
  if (!FindGroupByPk(pk, &group_index)) {
    return Status::NotFound("no row with primary key " + pk.ToString());
  }
  for (Fragment& frag : groups_[group_index].fragments) {
    frag.table->DeleteRow(FragmentRid(frag, pk));
  }
  if (op_log_ != nullptr) op_log_->Append(TableOp::Delete(pk));
  return Status::OK();
}

Result<Row> LogicalTable::GetByPk(const PrimaryKey& pk) const {
  size_t group_index;
  if (!FindGroupByPk(pk, &group_index)) {
    return Status::NotFound("no row with primary key " + pk.ToString());
  }
  Row out(schema_.num_columns());
  for (const Fragment& frag : groups_[group_index].fragments) {
    const RowId rid = FragmentRid(frag, pk);
    for (size_t i = 0; i < frag.columns.size(); ++i) {
      out[frag.columns[i]] = frag.table->GetValue(rid, i);
    }
  }
  return out;
}

Row LogicalTable::StitchRow(const RowGroup& group, const Fragment& lead,
                            RowId rid) const {
  Row out(schema_.num_columns());
  Row lead_row = lead.table->GetRow(rid);
  PrimaryKey pk;
  if (group.fragments.size() > 1) {
    pk = PrimaryKey::FromRow(lead.table->schema(), lead_row);
  }
  for (size_t i = 0; i < lead.columns.size(); ++i) {
    out[lead.columns[i]] = std::move(lead_row[i]);
  }
  if (group.fragments.size() > 1) {
    for (size_t f = 1; f < group.fragments.size(); ++f) {
      const Fragment& frag = group.fragments[f];
      const RowId frid = FragmentRid(frag, pk);
      for (size_t i = 0; i < frag.columns.size(); ++i) {
        out[frag.columns[i]] = frag.table->GetValue(frid, i);
      }
    }
  }
  return out;
}

void LogicalTable::AfterStatement() {
  // Merging the delta reshuffles row ids; a concurrent shadow rebuild's
  // chunk cursor would lose or double-copy rows. Writers resume merging
  // after the cut-over detaches the log.
  if (op_log_ != nullptr) return;
  for (RowGroup& group : groups_) {
    for (Fragment& frag : group.fragments) {
      frag.table->AfterStatement();
    }
  }
}

void LogicalTable::ForceMerge() {
  for (RowGroup& group : groups_) {
    for (Fragment& frag : group.fragments) {
      if (auto* cs = dynamic_cast<ColumnTable*>(frag.table.get())) {
        cs->MergeDelta();
      }
    }
  }
}

Status LogicalTable::CreateSortedIndex(ColumnId col) {
  if (col >= schema_.num_columns()) {
    return Status::InvalidArgument("column id out of range");
  }
  for (RowGroup& group : groups_) {
    for (Fragment& frag : group.fragments) {
      if (!frag.Contains(col)) continue;
      if (auto* rs = dynamic_cast<RowTable*>(frag.table.get())) {
        HSDB_RETURN_IF_ERROR(rs->CreateSortedIndex(frag.FragColumn(col)));
      }
    }
  }
  return Status::OK();
}

}  // namespace hsdb
