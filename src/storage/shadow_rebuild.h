// Replay half of a non-blocking table rebuild: apply the writes a
// TableOpLog captured while Database::MigrateShadow copied the live rows
// into a shadow under the target layout.
//
// Replay is lock-free — MigrateShadow owns the locking protocol: the
// chunked copy runs each chunk under the source's reader lock, replay
// touches only the private shadow, and the final drain happens inside the
// writer-latch cut-over window. docs/CONCURRENCY.md walks the full
// timeline.
#ifndef HSDB_STORAGE_SHADOW_REBUILD_H_
#define HSDB_STORAGE_SHADOW_REBUILD_H_

#include <cstdint>
#include <vector>

#include "storage/logical_table.h"
#include "storage/table_version.h"

namespace hsdb {

/// Applies drained ops onto the shadow, idempotently: an upsert removes any
/// existing row with the same primary key before inserting, a delete of an
/// absent key is a no-op. Idempotence is what makes the chunked copy sound
/// — a row can legitimately be both copied by a chunk and logged (insert
/// after the chunk bound, update of a copied row), and replay must converge
/// on the post-image either way. `applied` (optional) accumulates the
/// number of ops applied.
Status ReplayOps(LogicalTable* shadow, const std::vector<TableOp>& ops,
                 uint64_t* applied = nullptr);

}  // namespace hsdb

#endif  // HSDB_STORAGE_SHADOW_REBUILD_H_
