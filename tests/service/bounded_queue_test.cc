// BoundedQueue semantics under contention: close/drain guarantees (no
// admitted item is ever lost, even when Close() races pushes — the
// regression for the closed-but-racing-push window), deadline-bounded
// PushFor (a producer never blocks forever),
// and high_water accounting under 8-thread storms. Runs under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "service/bounded_queue.h"

namespace ufilter::service {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

TEST(BoundedQueueTest, FifoAndSize) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.size(), 0u);
}

// The per-entry push timestamp is what the service's queue_wait histogram
// is built on: Pop must hand back the instant the item entered the queue,
// so residency (pop − pushed_at) reflects real queue wait.
TEST(BoundedQueueTest, PopReturnsPushTimestamp) {
  BoundedQueue<int> q(4);
  auto before_push = steady_clock::now();
  ASSERT_TRUE(q.Push(1));
  auto after_push = steady_clock::now();
  std::this_thread::sleep_for(milliseconds(20));
  int out = 0;
  steady_clock::time_point pushed_at{};
  ASSERT_TRUE(q.Pop(&out, &pushed_at));
  EXPECT_EQ(out, 1);
  auto popped_at = steady_clock::now();
  // The stamp brackets the Push call, not the Pop.
  EXPECT_GE(pushed_at, before_push);
  EXPECT_LE(pushed_at, after_push);
  // Residency covers the sleep between push and pop.
  EXPECT_GE(popped_at - pushed_at, milliseconds(20));
}

TEST(BoundedQueueTest, TryPushShedsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BoundedQueueTest, PushForTimesOutOnFullQueue) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  auto start = steady_clock::now();
  QueueWaitResult r = q.PushFor(2, start + milliseconds(30));
  EXPECT_EQ(r, QueueWaitResult::kTimedOut);
  EXPECT_GE(steady_clock::now() - start, milliseconds(25));
  // The queue is untouched and still usable.
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.PushFor(2, steady_clock::now() + milliseconds(30)),
            QueueWaitResult::kOk);
}

TEST(BoundedQueueTest, PushForSucceedsWhenRoomAppears) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread popper([&] {
    std::this_thread::sleep_for(milliseconds(20));
    int out = 0;
    ASSERT_TRUE(q.Pop(&out));
  });
  EXPECT_EQ(q.PushFor(2, steady_clock::now() + milliseconds(2000)),
            QueueWaitResult::kOk);
  popper.join();
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
}

TEST(BoundedQueueTest, PushForRefusedWhenClosed) {
  BoundedQueue<int> q(4);
  q.Close();
  EXPECT_EQ(q.PushFor(1, steady_clock::now() + milliseconds(10)),
            QueueWaitResult::kClosed);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> push_refused{false};
  std::thread producer([&] {
    // Blocks (queue full) until Close() wakes it with a refusal.
    push_refused = !q.Push(2);
  });
  BoundedQueue<int> empty(1);
  std::atomic<bool> pop_refused{false};
  std::thread consumer([&] {
    int out = 0;
    pop_refused = !empty.Pop(&out);
  });
  std::this_thread::sleep_for(milliseconds(20));
  q.Close();
  empty.Close();
  producer.join();
  consumer.join();
  EXPECT_TRUE(push_refused);
  EXPECT_TRUE(pop_refused);
  // The item admitted before Close is still drainable.
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(q.Pop(&out));
}

// Regression for the closed-but-racing-push window: N producers hammer
// Push/TryPush/PushFor while a closer thread closes mid-storm and M
// consumers drain. Every push that reported success must be popped exactly
// once before consumers observe closed-and-drained — an admitted item is
// never lost, and no consumer exits while admitted items remain.
TEST(BoundedQueueTest, CloseRacingPushNeverLosesAdmittedItems) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 400;
  for (int round = 0; round < 8; ++round) {
    BoundedQueue<int> q(8);
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> popped{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          bool ok = false;
          switch (i % 3) {
            case 0:
              ok = q.Push(p * kPerProducer + i);
              break;
            case 1:
              ok = q.TryPush(p * kPerProducer + i);
              break;
            default:
              ok = q.PushFor(p * kPerProducer + i,
                             steady_clock::now() + milliseconds(1)) ==
                   QueueWaitResult::kOk;
              break;
          }
          if (ok) {
            ++admitted;
          } else if (q.closed()) {
            return;  // refusals after close are expected; stop producing
          }
        }
      });
    }
    for (int c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        int out = 0;
        while (q.Pop(&out)) ++popped;
        // Closed and drained: nothing may remain.
        EXPECT_EQ(q.size(), 0u);
      });
    }
    // Close somewhere in the middle of the storm.
    std::this_thread::sleep_for(milliseconds(2));
    q.Close();
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(admitted.load(), popped.load()) << "round " << round;
    EXPECT_EQ(q.size(), 0u);
  }
}

// high_water accounting under 8-thread contention: it only grows, never
// exceeds capacity, and reflects at least the deepest stable backlog.
TEST(BoundedQueueTest, HighWaterUnderContention) {
  constexpr size_t kCapacity = 16;
  BoundedQueue<int> q(kCapacity);
  // Deterministic floor: fill to capacity once, drain, then storm.
  for (size_t i = 0; i < kCapacity; ++i) ASSERT_TRUE(q.Push(1));
  EXPECT_EQ(q.high_water(), kCapacity);
  int out = 0;
  while (q.size() > 0) ASSERT_TRUE(q.Pop(&out));

  std::vector<std::thread> threads;
  std::atomic<uint64_t> admitted{0};
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (q.TryPush(i)) ++admitted;
      }
    });
  }
  std::atomic<uint64_t> popped{0};
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      int v = 0;
      while (q.Pop(&v)) ++popped;
    });
  }
  // Let the storm run, then drain.
  std::this_thread::sleep_for(milliseconds(20));
  for (int p = 0; p < 4; ++p) threads[static_cast<size_t>(p)].join();
  q.Close();
  for (size_t t = 4; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(admitted.load(), popped.load());
  EXPECT_GE(q.high_water(), 1u);
  EXPECT_LE(q.high_water(), kCapacity);
}

}  // namespace
}  // namespace ufilter::service
