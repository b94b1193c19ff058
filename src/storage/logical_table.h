// LogicalTable: one table as the user sees it, physically organized into
// partition pieces according to a TableLayout. Row groups split the rows
// (horizontal partitioning); fragments within a group split the columns
// (vertical partitioning, primary key replicated). The executor plans
// against groups/fragments; DML is validated once and routed here.
#ifndef HSDB_STORAGE_LOGICAL_TABLE_H_
#define HSDB_STORAGE_LOGICAL_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/column_table.h"
#include "storage/partition.h"
#include "storage/physical_table.h"
#include "storage/row_table.h"
#include "storage/table_version.h"

namespace hsdb {

/// Physical-table tuning knobs shared by every piece of a logical table.
struct PhysicalOptions {
  RowTable::Options row;
  ColumnTable::Options column;
};

/// Creates an empty physical table of the given store.
std::unique_ptr<PhysicalTable> MakePhysicalTable(
    Schema schema, StoreType store, const PhysicalOptions& options);

/// One vertical piece of a row group: a physical table holding a subset of
/// the logical columns (always including the primary key).
struct Fragment {
  std::unique_ptr<PhysicalTable> table;
  /// Logical column ids in fragment order: fragment column i stores logical
  /// column columns[i].
  std::vector<ColumnId> columns;
  /// logical id -> fragment id, or -1 when the column is absent.
  std::vector<int> logical_to_frag;

  bool Contains(ColumnId logical) const {
    return logical_to_frag[logical] >= 0;
  }
  /// True when every column in `logical_cols` is stored in this fragment.
  bool Covers(const std::vector<ColumnId>& logical_cols) const;
  ColumnId FragColumn(ColumnId logical) const {
    HSDB_DCHECK(Contains(logical));
    return static_cast<ColumnId>(logical_to_frag[logical]);
  }
};

/// One horizontal piece: all fragments holding the same set of rows.
struct RowGroup {
  bool hot = false;
  std::vector<Fragment> fragments;
};

class LogicalTable {
 public:
  /// Creates an empty logical table with the given layout. Validates the
  /// layout against the schema; a schema without a primary key is
  /// InvalidArgument (DML, replay and the physical stores address rows by
  /// key).
  static Result<std::unique_ptr<LogicalTable>> Create(
      std::string name, Schema schema, TableLayout layout,
      PhysicalOptions options = {});

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const TableLayout& layout() const { return layout_; }
  const PhysicalOptions& physical_options() const { return options_; }

  const std::vector<RowGroup>& groups() const { return groups_; }
  std::vector<RowGroup>& mutable_groups() { return groups_; }

  /// Number of live logical rows.
  size_t row_count() const;
  size_t memory_bytes() const;

  /// Statistics version of the whole table: moves whenever any piece's
  /// value distribution or encoding changed (see
  /// PhysicalTable::data_version). Catalog::UpdateStatistics memoizes
  /// Analyze() — and with it the EncodingPicker re-profiling of every
  /// column — on this counter.
  uint64_t data_version() const;

  // DML: the one validation boundary; the pieces trust it --------------------

  /// Validates and coerces `row`, enforces primary-key uniqueness across all
  /// groups and routes the row to one group's fragments.
  Status Insert(Row row);

  /// Updates `columns` of the row with primary key `pk`. Updating the
  /// horizontal partition column (it could migrate the row across groups) or
  /// primary-key columns is not supported. Every check and coercion runs
  /// before the first fragment is written: a rejected update changes nothing.
  Status UpdateByPk(const PrimaryKey& pk, const std::vector<ColumnId>& columns,
                    const Row& values);

  Status DeleteByPk(const PrimaryKey& pk);

  /// Stitches the full logical row with primary key `pk`.
  Result<Row> GetByPk(const PrimaryKey& pk) const;

  /// True if some group holds `pk`; fills the group index when found.
  bool FindGroupByPk(const PrimaryKey& pk, size_t* group_index) const;

  /// Index of the group an insert of `row` routes to.
  size_t RouteInsert(const Row& row) const;

  /// Visits every live logical row of one row group (stitched across the
  /// group's fragments).
  template <typename Fn>
  void ForEachRowInGroup(size_t group_index, Fn&& fn) const {
    const RowGroup& group = groups_[group_index];
    const Fragment& lead = group.fragments.front();
    lead.table->live_bitmap().ForEachSet(
        [&](size_t rid) { fn(StitchRow(group, lead, rid)); });
  }

  /// Visits the live rows of one group whose lead-fragment slot lies in
  /// [begin_rid, end_rid) — the chunked form of ForEachRowInGroup a shadow
  /// rebuild uses to copy a table in bounded writer-blocking slices. Only
  /// sound while slots are stable, i.e. no delta merge between chunks (an
  /// attached op log suppresses merges; see AfterStatement).
  template <typename Fn>
  void ForEachRowInGroupRange(size_t group_index, size_t begin_rid,
                              size_t end_rid, Fn&& fn) const {
    const RowGroup& group = groups_[group_index];
    const Fragment& lead = group.fragments.front();
    lead.table->live_bitmap().ForEachSetInRange(
        begin_rid, end_rid,
        [&](size_t rid) { fn(StitchRow(group, lead, rid)); });
  }

  /// Slot-space size of one group's lead fragment (the end bound for
  /// ForEachRowInGroupRange).
  size_t GroupSlotCount(size_t group_index) const {
    return groups_[group_index].fragments.front().table->slot_count();
  }

  /// Visits every live logical row (stitched across fragments).
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (size_t g = 0; g < groups_.size(); ++g) {
      ForEachRowInGroup(g, fn);
    }
  }

  /// Statement-boundary maintenance for every physical piece. A no-op
  /// while an op log is attached: delta merges reshuffle row ids, which
  /// would silently teleport rows across a shadow rebuild's chunk cursor.
  void AfterStatement();

  // Shadow-rebuild support ---------------------------------------------------

  /// Attaches a write-op log: every subsequent successful Insert/UpdateByPk/
  /// DeleteByPk also appends a replayable TableOp, and delta merges are
  /// suppressed (rid stability for the concurrent chunked copy). Call under
  /// the table's writer latch so no statement straddles the transition; the
  /// log must outlive the attachment. Detach (same latch rule) before the
  /// table version is retired. At most one log is attached at a time:
  /// MigrateShadow checks HasOpLog under the same latch and refuses a
  /// second layout change while one is in flight.
  void AttachOpLog(TableOpLog* log) { op_log_ = log; }
  void DetachOpLog() { op_log_ = nullptr; }
  bool HasOpLog() const { return op_log_ != nullptr; }

  /// Forces a delta merge on every column-store piece (bulk-load epilogue).
  void ForceMerge();

  /// Builds a sorted secondary index on `col` in every row-store piece that
  /// contains the column (no-op for column-store pieces, which carry their
  /// implicit dictionary index).
  Status CreateSortedIndex(ColumnId col);

 private:
  LogicalTable(std::string name, Schema schema, TableLayout layout,
               PhysicalOptions options)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        layout_(std::move(layout)),
        options_(options) {}

  Fragment MakeFragment(const std::vector<ColumnId>& columns,
                        StoreType store) const;

  /// Stitches the logical row whose lead-fragment slot is `rid`.
  Row StitchRow(const RowGroup& group, const Fragment& lead,
                RowId rid) const;

  std::string name_;
  Schema schema_;
  TableLayout layout_;
  PhysicalOptions options_;
  std::vector<RowGroup> groups_;
  /// Non-null while a shadow rebuild of this table is in flight. Written
  /// and read only under the table's writer latch (DML path), so it needs
  /// no atomicity of its own.
  TableOpLog* op_log_ = nullptr;
};

}  // namespace hsdb

#endif  // HSDB_STORAGE_LOGICAL_TABLE_H_
