#include "storage/shadow_rebuild.h"

namespace hsdb {

Status ReplayOps(LogicalTable* shadow, const std::vector<TableOp>& ops,
                 uint64_t* applied) {
  for (const TableOp& op : ops) {
    switch (op.kind) {
      case TableOp::Kind::kUpsert: {
        const PrimaryKey pk = PrimaryKey::FromRow(shadow->schema(), op.row);
        Status removed = shadow->DeleteByPk(pk);
        if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
          return removed;
        }
        HSDB_RETURN_IF_ERROR(shadow->Insert(op.row));
        break;
      }
      case TableOp::Kind::kDelete: {
        Status removed = shadow->DeleteByPk(op.pk);
        if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
          return removed;
        }
        break;
      }
    }
    if (applied != nullptr) ++*applied;
  }
  return Status::OK();
}

}  // namespace hsdb
