// Store-aware partitioning layouts (paper §3.2): a table may be split
// horizontally (hot/new rows vs. cold/historic rows), vertically (OLTP
// attributes vs. OLAP attributes), or both at once. The layout is the unit
// the storage advisor recommends and the catalog annotates. `LayoutPieces`
// is its one description as row groups and pieces: `LogicalTable` builds a
// fragment per piece, and the cost model walks the same pieces to price a
// query on the partitions it touches.
#ifndef HSDB_STORAGE_PARTITION_H_
#define HSDB_STORAGE_PARTITION_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "storage/store_type.h"

namespace hsdb {

/// Two-way horizontal split on a numeric column: rows with
/// value >= boundary form the "hot" partition (newly arriving / frequently
/// updated tuples), the rest the "cold" partition. Inserts route by the same
/// rule, matching the paper's row-store partition for new data.
struct HorizontalSpec {
  ColumnId column = 0;
  double boundary = 0.0;
  StoreType hot_store = StoreType::kRow;

  bool operator==(const HorizontalSpec& o) const {
    return column == o.column && boundary == o.boundary &&
           hot_store == o.hot_store;
  }
};

/// Two-way vertical split: the listed non-key columns form a row-store
/// partition (frequently modified "OLTP attributes"); all remaining non-key
/// columns form the other partition. Primary-key columns are replicated into
/// both pieces (paper §3.2: "the partitions ... all contain the primary key
/// attributes").
struct VerticalSpec {
  std::vector<ColumnId> row_store_columns;

  bool operator==(const VerticalSpec& o) const {
    return row_store_columns == o.row_store_columns;
  }
};

/// Complete physical layout of one logical table: an unpartitioned store
/// choice, optionally refined by a horizontal split and/or a vertical split
/// of the cold rows (the paper's combined scheme: new tuples whole in the
/// row store, historic tuples split vertically).
struct TableLayout {
  /// Store of the unsplit table; with a vertical split, the store of the
  /// non-row-store (OLAP) piece.
  StoreType base_store = StoreType::kColumn;
  std::optional<HorizontalSpec> horizontal;
  std::optional<VerticalSpec> vertical;

  static TableLayout SingleStore(StoreType store) {
    TableLayout l;
    l.base_store = store;
    return l;
  }

  bool IsPartitioned() const {
    return horizontal.has_value() || vertical.has_value();
  }

  bool operator==(const TableLayout& o) const {
    return base_store == o.base_store && horizontal == o.horizontal &&
           vertical == o.vertical;
  }

  std::string ToString() const;

  /// Checks the layout against a schema: the horizontal column must be
  /// numeric; vertical columns must exist, be distinct non-key columns, and
  /// leave at least one non-key column for the other piece.
  Status Validate(const Schema& schema) const;
};

/// True when any piece of the layout is column-resident (and therefore
/// stores compressed, per-column-encoded segments the advisor's encoding
/// machinery applies to).
bool HasColumnStorePiece(const TableLayout& layout);

/// The row groups a layout splits a table into and the pieces (vertical
/// fragments) of each, in the order `LogicalTable::Create` builds them:
/// - the hot group, when there is a horizontal split, holds whole rows in
///   the hot store;
/// - the cold group holds the vertical split's row-store piece and then its
///   base piece, or else one whole-row piece in the base store.
/// Both pieces of a vertical split hold the primary key. The description
/// refers to the layout and schema it was built from (both must outlive it)
/// and allocates nothing: at most 2 groups of at most 2 pieces.
class LayoutPieces {
 public:
  /// Which logical columns a piece holds.
  enum class Columns : uint8_t { kAll, kRowStoreSide, kBaseSide };
  struct Piece {
    StoreType store = StoreType::kRow;
    Columns columns = Columns::kAll;
  };
  struct Group {
    bool hot = false;
    size_t size = 0;
    Piece pieces[2];

    const Piece* begin() const { return pieces; }
    const Piece* end() const { return pieces + size; }
    /// The last piece: the base store's, which spanning reads scan and the
    /// other piece stitches to.
    const Piece& base() const { return pieces[size - 1]; }
  };

  LayoutPieces(const TableLayout& layout, const Schema& schema);

  const Group* begin() const { return groups_; }
  const Group* end() const { return groups_ + num_groups_; }
  size_t num_groups() const { return num_groups_; }
  const TableLayout& layout() const { return *layout_; }

  /// True when `piece` stores logical column `col`.
  bool Holds(const Piece& piece, ColumnId col) const;
  /// The first piece of `group` that holds every column in `columns` (the
  /// fragment a read of them is served from), or nullptr when the columns
  /// span the group's pieces and the read must stitch.
  const Piece* Cover(const Group& group,
                     const std::vector<ColumnId>& columns) const;

 private:
  const TableLayout* layout_;
  const Schema* schema_;
  Group groups_[2];
  size_t num_groups_ = 0;
};

/// True when logical column `col` of a layout with a column-store piece is
/// encoded: when the cold group's base piece holds it. False for every
/// column of a row-store layout and for the non-key columns a vertical split
/// sends to the row store (also where a column-store hot group holds them).
bool ColumnInColumnStorePiece(const LayoutPieces& pieces, ColumnId col);

}  // namespace hsdb

#endif  // HSDB_STORAGE_PARTITION_H_
