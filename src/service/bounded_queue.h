// A bounded MPMC (multi-producer / multi-consumer) queue: the admission
// queue of the check service. Bounded on purpose — when clients outrun the
// worker pool, Push blocks (backpressure) instead of letting the queue grow
// without limit; TryPush refuses instead, for callers that prefer shedding
// load; PushFor gives up at a deadline, for callers (the network front
// end) that must never block forever. Close() drains:
// producers are refused, consumers keep popping until the queue is empty,
// then Pop returns false and workers exit.
//
// Close/race guarantees (regression-tested in
// tests/service/bounded_queue_test.cc):
//   - every push that reported success is popped by some consumer before
//     any consumer observes "closed and drained" — an admitted item is
//     never lost, even when Close() races the push;
//   - a push racing Close() either succeeds (item will be drained) or
//     reports failure (the item never entered the queue) — never both,
//     never neither.
#ifndef UFILTER_SERVICE_BOUNDED_QUEUE_H_
#define UFILTER_SERVICE_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace ufilter::service {

/// Outcome of a deadline-bounded push.
enum class QueueWaitResult {
  kOk,        ///< pushed
  kTimedOut,  ///< the deadline passed first (item untouched)
  kClosed,    ///< the queue refused it
};

template <typename T>
class BoundedQueue {
 public:
  using Clock = std::chrono::steady_clock;
  using SteadyTime = Clock::time_point;

  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  /// Blocks until there is room (or the queue is closed). Returns false —
  /// and drops `item` — only when the queue was closed.
  bool Push(T item) {
    return PushUntil(std::move(item), nullptr) == QueueWaitResult::kOk;
  }

  /// Non-blocking variant: false when full or closed (load shedding).
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(Entry{std::move(item), Clock::now()});
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Deadline-bounded Push: waits for room until `deadline`, then gives up
  /// with kTimedOut (the caller still owns a meaningful decision — shed,
  /// retry, or answer the client). kClosed when the queue refused it.
  QueueWaitResult PushFor(T item, SteadyTime deadline) {
    return PushUntil(std::move(item), &deadline);
  }

  /// Blocks until an item arrives. False when the queue is closed *and*
  /// drained — the consumer's exit signal. When `pushed_at` is non-null it
  /// receives the steady-clock instant the item was pushed, so the
  /// consumer can attribute queue residency (the queue_wait histogram).
  ///
  /// The close-vs-push window: an item admitted before Close() makes
  /// items_ non-empty, and closed_ is only ever set *after* such a push's
  /// critical section, so the empty+closed exit condition can never be
  /// observed while an admitted item is still queued — false really means
  /// drained.
  bool Pop(T* out, SteadyTime* pushed_at = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    *out = std::move(items_.front().item);
    if (pushed_at != nullptr) *pushed_at = items_.front().pushed_at;
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Refuses further pushes; consumers drain what is queued, then stop.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }
  /// Deepest the queue has been (how close clients came to backpressure).
  size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  // Shared push body; `deadline` null = wait forever. Loop-based rather
  // than predicate-wait so every wakeup re-evaluates closed/full under the
  // lock: a push that raced Close() is refused atomically (the item never
  // entered), and one that won the race has its item safely queued before
  // closed_ became visible — consumers drain it.
  QueueWaitResult PushUntil(T item, const SteadyTime* deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (closed_) return QueueWaitResult::kClosed;
      if (items_.size() < capacity_) break;
      if (deadline == nullptr) {
        not_full_.wait(lock);
      } else if (not_full_.wait_until(lock, *deadline) ==
                 std::cv_status::timeout) {
        // Re-check once under the lock: a slot/close that appeared at the
        // same instant as the timeout must win, or a caller could shed
        // while the queue had room.
        if (closed_) return QueueWaitResult::kClosed;
        if (items_.size() < capacity_) break;
        return QueueWaitResult::kTimedOut;
      }
    }
    items_.push_back(Entry{std::move(item), Clock::now()});
    if (items_.size() > high_water_) high_water_ = items_.size();
    lock.unlock();
    not_empty_.notify_one();
    return QueueWaitResult::kOk;
  }

  // Every entry is stamped at push so consumers can measure queue
  // residency (push -> pop) without the producer threading a timestamp
  // through T itself.
  struct Entry {
    T item;
    SteadyTime pushed_at;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Entry> items_;
  size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace ufilter::service

#endif  // UFILTER_SERVICE_BOUNDED_QUEUE_H_
