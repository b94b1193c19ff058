// AdmissionQueue invariants without a server: the drain-slot grant (the
// first `slots` concurrent pushes drain, the next one only queues), slot
// release on an empty pop, a drainer that stops once its own query is
// answered (releasing its slot beside another drainer, handing it to the
// oldest waiting reader when it is the last), and the guarantee the
// server's Stop() and every waiting reader rely on — each queued item has
// an active drainer, so every admitted promise is fulfilled and the queue
// ends empty with every slot free. The concurrent case runs under TSan in
// CI (label "stress").
#include "server/admission_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

namespace hsdb {
namespace server {
namespace {

using Push = AdmissionQueue::Push;

constexpr size_t kSlots = 2;

/// An admitted item tagged with `tag` (carried as the query's table name).
Admitted Item(int64_t tag) {
  Admitted item;
  SelectQuery query;
  query.table = std::to_string(tag);
  item.query = std::move(query);
  item.admitted_at = std::chrono::steady_clock::now();
  return item;
}

/// Answers each popped item with its own tag as the single aggregate, so
/// a waiter can tell its reply from another item's.
void Answer(std::vector<Admitted>* batch) {
  for (Admitted& a : *batch) {
    QueryResult result;
    result.aggregates.push_back(
        std::stod(std::get<SelectQuery>(a.query).table));
    Wakeup reply;
    reply.result = std::move(result);
    a.reply.set_value(std::move(reply));
  }
}

bool Ready(const std::future<Wakeup>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Pushes `slots` items and expects every one of them to be granted a slot:
/// proof that no drainer was left holding one.
void ExpectAllSlotsFree(AdmissionQueue* queue) {
  for (size_t i = 0; i < queue->slots(); ++i) {
    EXPECT_EQ(queue->TryPush(Item(100 + static_cast<int64_t>(i))),
              Push::kDrain);
  }
}

TEST(AdmissionQueueTest, FirstSlotsPushesDrainAndTheNextQueues) {
  AdmissionQueue queue(/*capacity=*/8, kSlots);
  EXPECT_EQ(queue.slots(), kSlots);
  EXPECT_EQ(queue.TryPush(Item(1)), Push::kDrain);
  EXPECT_EQ(queue.TryPush(Item(2)), Push::kDrain);
  EXPECT_EQ(queue.TryPush(Item(3)), Push::kQueued);
  EXPECT_EQ(queue.depth(), 3u);

  // One drainer pops everything; both retire on the empty queue.
  std::vector<Admitted> batch;
  ASSERT_TRUE(queue.PopBatchOrRetire(/*max_batch=*/32, false, &batch));
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_FALSE(queue.PopBatchOrRetire(32, false, &batch));
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(queue.PopBatchOrRetire(32, false, &batch));
  EXPECT_EQ(queue.depth(), 0u);
  ExpectAllSlotsFree(&queue);
}

TEST(AdmissionQueueTest, RetireOnEmptyFreesTheSlotForTheNextPush) {
  AdmissionQueue queue(/*capacity=*/8, kSlots);
  ASSERT_EQ(queue.TryPush(Item(1)), Push::kDrain);
  ASSERT_EQ(queue.TryPush(Item(2)), Push::kDrain);
  std::vector<Admitted> batch;
  ASSERT_TRUE(queue.PopBatchOrRetire(1, false, &batch));
  ASSERT_TRUE(queue.PopBatchOrRetire(1, false, &batch));
  EXPECT_EQ(queue.TryPush(Item(3)), Push::kQueued);  // both slots held
  ASSERT_TRUE(queue.PopBatchOrRetire(1, false, &batch));

  // Empty queue: the pop fails and releases its slot.
  EXPECT_FALSE(queue.PopBatchOrRetire(1, false, &batch));
  EXPECT_EQ(queue.TryPush(Item(4)), Push::kDrain);
  EXPECT_EQ(queue.TryPush(Item(5)), Push::kQueued);  // both held again
}

TEST(AdmissionQueueTest, AnsweredDrainerLeavesABusyQueueToTheOthers) {
  // Two drainers, reads still queued behind them: each stops once its own
  // read is answered. The first releases its slot to the other drainer;
  // the last hands its slot to the oldest waiting reader.
  AdmissionQueue queue(/*capacity=*/8, kSlots);
  Admitted a = Item(1);
  Admitted b = Item(2);
  Admitted c = Item(3);
  std::future<Wakeup> a_reply = a.reply.get_future();
  std::future<Wakeup> b_reply = b.reply.get_future();
  std::future<Wakeup> c_reply = c.reply.get_future();
  ASSERT_EQ(queue.TryPush(std::move(a)), Push::kDrain);
  ASSERT_EQ(queue.TryPush(std::move(b)), Push::kDrain);
  ASSERT_EQ(queue.TryPush(std::move(c)), Push::kQueued);
  ASSERT_EQ(queue.TryPush(Item(4)), Push::kQueued);

  std::vector<Admitted> batch;
  ASSERT_TRUE(queue.PopBatchOrRetire(1, Ready(a_reply), &batch));
  Answer(&batch);  // a's drainer answered its own read
  ASSERT_TRUE(Ready(a_reply));
  EXPECT_FALSE(queue.PopBatchOrRetire(1, Ready(a_reply), &batch));
  EXPECT_EQ(queue.depth(), 3u);  // left to b's drainer
  EXPECT_EQ(a_reply.get().result->aggregates[0], 1.0);

  ASSERT_TRUE(queue.PopBatchOrRetire(1, Ready(b_reply), &batch));
  Answer(&batch);
  EXPECT_EQ(queue.TryPush(Item(5)), Push::kDrain);  // a's slot is free
  // Item 5's drainer is active, so b's drainer just releases its slot.
  EXPECT_FALSE(queue.PopBatchOrRetire(1, Ready(b_reply), &batch));
  EXPECT_FALSE(Ready(c_reply));

  // Item 5's drainer answers c and 4, then (its own read still queued)
  // pops itself, answers, and finds the queue empty.
  ASSERT_TRUE(queue.PopBatchOrRetire(8, false, &batch));
  ASSERT_EQ(batch.size(), 3u);
  Answer(&batch);
  EXPECT_FALSE(queue.PopBatchOrRetire(8, true, &batch));
  EXPECT_EQ(c_reply.get().result->aggregates[0], 3.0);
  ExpectAllSlotsFree(&queue);
}

TEST(AdmissionQueueTest, LastAnsweredDrainerHandsItsSlotToTheOldestReader) {
  AdmissionQueue queue(/*capacity=*/8, /*slots=*/1);
  Admitted a = Item(1);
  Admitted b = Item(2);
  Admitted c = Item(3);
  std::future<Wakeup> a_reply = a.reply.get_future();
  std::future<Wakeup> b_reply = b.reply.get_future();
  std::future<Wakeup> c_reply = c.reply.get_future();
  ASSERT_EQ(queue.TryPush(std::move(a)), Push::kDrain);
  ASSERT_EQ(queue.TryPush(std::move(b)), Push::kQueued);
  ASSERT_EQ(queue.TryPush(std::move(c)), Push::kQueued);

  std::vector<Admitted> batch;
  ASSERT_TRUE(queue.PopBatchOrRetire(1, Ready(a_reply), &batch));
  Answer(&batch);
  EXPECT_FALSE(queue.PopBatchOrRetire(1, Ready(a_reply), &batch));

  // b's reader is woken with the slot, not an answer; b is still queued
  // under the new future, and the slot count is unchanged.
  ASSERT_TRUE(Ready(b_reply));
  Wakeup woken = b_reply.get();
  ASSERT_NE(woken.handoff, nullptr);
  std::future<Wakeup> b_answer = std::move(*woken.handoff);
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_FALSE(Ready(c_reply));
  EXPECT_EQ(queue.TryPush(Item(4)), Push::kQueued);

  // b's reader drains until its own read is answered, then hands on again.
  ASSERT_TRUE(queue.PopBatchOrRetire(1, Ready(b_answer), &batch));
  Answer(&batch);
  Wakeup b_final = b_answer.get();
  ASSERT_EQ(b_final.handoff, nullptr);
  EXPECT_EQ(b_final.result->aggregates[0], 2.0);
  EXPECT_FALSE(queue.PopBatchOrRetire(1, true, &batch));
  Wakeup c_woken = c_reply.get();
  EXPECT_NE(c_woken.handoff, nullptr);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(AdmissionQueueTest, MaxBatchBoundsOnePop) {
  AdmissionQueue queue(/*capacity=*/8, kSlots);
  for (int64_t i = 0; i < 5; ++i) queue.TryPush(Item(i));
  std::vector<Admitted> batch;
  ASSERT_TRUE(queue.PopBatchOrRetire(/*max_batch=*/2, false, &batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(std::get<SelectQuery>(batch[0].query).table, "0");  // FIFO
  EXPECT_EQ(queue.depth(), 3u);
}

TEST(AdmissionQueueTest, DepthGaugeFollowsEveryPushAndPopWhileEnabled) {
  telemetry::MetricsRegistry metrics;
  AdmissionQueue queue(/*capacity=*/8, kSlots, &metrics);
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::Gauge& gauge =
      metrics.GetGauge("hsdb_server_queue_depth");
  queue.TryPush(Item(1));
  queue.TryPush(Item(2));
  EXPECT_EQ(gauge.value(), 2.0);
  std::vector<Admitted> batch;
  queue.PopBatchOrRetire(1, false, &batch);
  EXPECT_EQ(gauge.value(), 1.0);
  // Disabled at runtime, the gauge freezes like every other metric.
  metrics.set_enabled(false);
  queue.PopBatchOrRetire(8, false, &batch);
  EXPECT_EQ(gauge.value(), 1.0);
  metrics.set_enabled(true);
  queue.TryPush(Item(3));
  queue.TryPush(Item(4));
  EXPECT_EQ(gauge.value(), 2.0);
}

/// Parameter: the slot count. One slot makes every answered drainer with
/// reads queued behind it hand its slot over.
class AdmissionQueueStressTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AdmissionQueueStressTest, ConcurrentPushDrainWaitFulfillsEveryFuture) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 2'000;
  telemetry::MetricsRegistry metrics;
  AdmissionQueue queue(/*capacity=*/kThreads, GetParam(), &metrics);
  std::atomic<int> fulfilled{0};
  std::atomic<int> wrong{0};
  std::atomic<int> rejected{0};
  std::atomic<int> handoffs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Admitted> batch;
      for (int round = 0; round < kRounds; ++round) {
        const int64_t tag = int64_t{t} * kRounds + round;
        Admitted item = Item(tag);
        std::future<Wakeup> reply = item.reply.get_future();
        // The server's Admit/Drain loop, with Answer as the executor.
        const auto drain = [&] {
          while (queue.PopBatchOrRetire(/*max_batch=*/3, Ready(reply),
                                        &batch)) {
            Answer(&batch);
          }
        };
        switch (queue.TryPush(std::move(item))) {
          case Push::kRejected:
            // At most one item per thread is in flight: never full.
            rejected.fetch_add(1);
            continue;
          case Push::kDrain:
            drain();
            break;
          case Push::kQueued:
            break;
        }
        Wakeup woken = reply.get();
        while (woken.handoff != nullptr) {
          handoffs.fetch_add(1);
          reply = std::move(*woken.handoff);
          drain();
          woken = reply.get();
        }
        if (woken.result.ok() && woken.result->aggregates.size() == 1 &&
            woken.result->aggregates[0] == static_cast<double>(tag)) {
          fulfilled.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rejected.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(fulfilled.load(), kThreads * kRounds);
  EXPECT_EQ(queue.depth(), 0u);
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(metrics.GetGauge("hsdb_server_queue_depth").value(), 0.0);
  }
  ExpectAllSlotsFree(&queue);
  RecordProperty("handoffs", handoffs.load());
}

INSTANTIATE_TEST_SUITE_P(Slots, AdmissionQueueStressTest,
                         ::testing::Values(size_t{1}, kSlots));

TEST(AdmissionQueueTest, CloseRejectsPushes) {
  AdmissionQueue queue(/*capacity=*/8, kSlots);
  queue.Close();
  queue.Close();  // idempotent
  EXPECT_EQ(queue.TryPush(Item(1)), Push::kRejected);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionQueueTest, FullQueueRejectsPushes) {
  AdmissionQueue queue(/*capacity=*/2, kSlots);
  EXPECT_EQ(queue.TryPush(Item(1)), Push::kDrain);
  EXPECT_EQ(queue.TryPush(Item(2)), Push::kDrain);
  EXPECT_EQ(queue.TryPush(Item(3)), Push::kRejected);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(DrainSlotsTest, OneSlotPerCoreTheScanPoolLeavesFree) {
  // (hardware threads, DOP) -> slots.
  EXPECT_EQ(DrainSlots(0, 1), 1u);  // unknown core count counts as 1
  EXPECT_EQ(DrainSlots(1, 4), 1u);  // never below one
  EXPECT_EQ(DrainSlots(4, 2), 3u);
  EXPECT_EQ(DrainSlots(4, 1), 4u);
}

}  // namespace
}  // namespace server
}  // namespace hsdb
