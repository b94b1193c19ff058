// AdmissionQueue: the bounded hand-off between the connection readers that
// admit shareable reads and the readers that drain them. A reader TryPushes
// one admitted query (and is told "busy" instead of blocking when the queue
// is full — back-pressure is the client's problem, not the server's
// memory). While fewer than `slots` drainers are active, the push also makes
// the pusher a drainer: it PopBatchOrRetires up to max_batch queued queries
// at a time and executes them. Once every slot is taken, pushes just queue,
// and the active drainers pick them up as one shared-scan batch:
// concurrency beyond the slot count *is* the batch width.
//
// A drainer stops as soon as its own query is answered, so its client never
// waits on other clients' reads: it releases the slot when the queue is
// empty or another drainer is active, and otherwise hands the slot to the
// reader of the oldest queued query, whose future it fulfils with a Wakeup
// that carries the slot. The invariant: every queued item has an active
// drainer. The slot count only changes inside the queue mutex, and a slot
// is released only when the queue is empty or another drainer holds one.
//
// Lock rules (docs/CONCURRENCY.md): the queue's internal mutex is a leaf —
// no table lock, catalog lock or epoch pin is ever taken while holding it,
// and none of its methods call back into the engine (the only other write
// under it is the depth gauge's atomic store). Drainers execute their
// batches, and a hand-off fulfils its promise, outside it. Readers block
// only on the future of their own admitted query. Close() rejects further
// pushes; items queued before it are still drained by the active drainers,
// so every admitted promise is eventually fulfilled.
#ifndef HSDB_SERVER_ADMISSION_QUEUE_H_
#define HSDB_SERVER_ADMISSION_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "executor/query.h"
#include "executor/result.h"
#include "telemetry/metrics.h"

namespace hsdb {
namespace server {

/// What a reader waiting on its admitted query is woken with. Normally the
/// query's result. When the last drainer stops with the reader's query
/// still queued, `handoff` is set instead: the reader now holds that
/// drainer's slot, and its query stays queued under this new future.
struct Wakeup {
  Result<QueryResult> result = Status::Internal("drain slot handed over");
  std::unique_ptr<std::future<Wakeup>> handoff;
};

/// One admitted query and the promise its connection reader waits on.
struct Admitted {
  Query query;
  std::promise<Wakeup> reply;
  /// Stamped at admission; the drainer turns it into the queue-wait
  /// histogram and the slow-query log's queue_wait_ms attribution.
  std::chrono::steady_clock::time_point admitted_at;
};

/// How many readers may drain at once: one per core the scan pool leaves
/// free. A drainer runs its batch at the database's DOP, which adds
/// `num_threads - 1` pool workers, so `slots` drainers plus the pool stay
/// within `hardware_threads` cores. At least 1; 0 cores (unknown) counts
/// as 1. The server passes std::thread::hardware_concurrency(), which
/// counts online CPUs and ignores a cgroup CPU quota: under a quota smaller
/// than the machine, the slots oversubscribe the quota and reads rarely
/// queue to share a batch.
inline size_t DrainSlots(unsigned hardware_threads, int num_threads) {
  const long cores = std::max(1L, static_cast<long>(hardware_threads));
  const long pool_workers = std::max(0L, static_cast<long>(num_threads) - 1);
  return static_cast<size_t>(std::max(1L, cores - pool_workers));
}

class AdmissionQueue {
 public:
  enum class Push {
    kRejected,  // full or closed: nothing was queued
    kQueued,    // queued; an active drainer will execute it
    kDrain,     // queued, and the caller now holds a drain slot
  };

  /// With `metrics` (optional), the queue keeps the hsdb_server_queue_depth
  /// gauge: while the registry is enabled, it is set after every push and
  /// pop, under the queue mutex, so its last value is the real depth.
  AdmissionQueue(size_t capacity, size_t slots,
                 telemetry::MetricsRegistry* metrics = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity),
        slots_(slots == 0 ? 1 : slots),
        metrics_(metrics),
        depth_gauge_(metrics != nullptr && telemetry::kCompiledIn
                         ? &metrics->GetGauge(
                               "hsdb_server_queue_depth",
                               "Admission-queue depth after the latest admit "
                               "or drain.")
                         : nullptr) {}
  HSDB_DISALLOW_COPY_AND_ASSIGN(AdmissionQueue);

  /// Admits one query. On kDrain the caller must PopBatchOrRetire until it
  /// returns false; on kRejected it answers "err busy" / "err shutting
  /// down" itself.
  Push TryPush(Admitted item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return Push::kRejected;
    items_.push_back(std::move(item));
    SampleDepth();
    if (drainers_ >= slots_) return Push::kQueued;
    ++drainers_;
    return Push::kDrain;
  }

  /// A drainer's next step: moves up to `max_batch` items into `*out`
  /// (cleared first) and returns true; or gives up the caller's drain slot
  /// and returns false. Until the caller's own query is answered
  /// (`own_answered`), it pops whenever the queue is not empty. After, it
  /// never pops: it releases the slot if the queue is empty or another
  /// drainer is active, and otherwise hands the slot to the reader of the
  /// oldest queued item (see Wakeup).
  bool PopBatchOrRetire(size_t max_batch, bool own_answered,
                        std::vector<Admitted>* out) {
    out->clear();
    std::promise<Wakeup> woken;
    Wakeup slot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.empty() || (own_answered && drainers_ > 1)) {
        --drainers_;
        return false;
      }
      if (!own_answered) {
        const size_t n = std::min(max_batch, items_.size());
        for (size_t i = 0; i < n; ++i) {
          out->push_back(std::move(items_.front()));
          items_.pop_front();
        }
        SampleDepth();
        return true;
      }
      // The only drainer, answered, with reads still queued. Every queued
      // item's reader is waiting on its future, so the oldest one takes the
      // slot; its item stays queued under a fresh promise.
      Admitted& oldest = items_.front();
      woken = std::exchange(oldest.reply, std::promise<Wakeup>());
      slot.handoff =
          std::make_unique<std::future<Wakeup>>(oldest.reply.get_future());
    }
    woken.set_value(std::move(slot));
    return false;
  }

  /// Rejects further pushes. Idempotent.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t slots() const { return slots_; }

 private:
  void SampleDepth() {
    if (depth_gauge_ != nullptr && metrics_->enabled()) {
      depth_gauge_->Set(static_cast<double>(items_.size()));
    }
  }

  const size_t capacity_;
  const size_t slots_;
  const telemetry::MetricsRegistry* const metrics_;
  telemetry::Gauge* const depth_gauge_;
  mutable std::mutex mu_;
  std::deque<Admitted> items_;
  size_t drainers_ = 0;
  bool closed_ = false;
};

}  // namespace server
}  // namespace hsdb

#endif  // HSDB_SERVER_ADMISSION_QUEUE_H_
