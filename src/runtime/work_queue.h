// Multi-producer, multi-consumer blocking work queue: the open-loop
// admission queue between the arrival thread and the executor threads
// (runtime/load_gen.h). Pop is mutex-serialized, so any number of executors
// can drain it. TryPush never waits: at an optional capacity it refuses,
// which is the arrival thread's signal to shed the transaction instead of
// stalling the arrival schedule. Close() lets the consumers drain what is
// queued and then stop.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

namespace jecb {

template <typename T>
class WorkQueue {
 public:
  /// Caps the queue depth; 0 (default) means unbounded. Not thread-safe:
  /// call before any producer or consumer runs.
  void SetCapacity(size_t capacity) { capacity_ = capacity; }

  /// Enqueues one item and wakes a consumer, or returns false — without
  /// ever waiting — when the queue is at capacity or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (closed_ || (capacity_ != 0 && items_.size() >= capacity_)) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed. Returns
  /// nullopt only when closed AND drained, so no pushed item is ever lost.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// After Close(), Pop() drains remaining items then returns nullopt.
  void Close() {
    {
      std::lock_guard<std::mutex> guard(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  size_t capacity_ = 0;
  bool closed_ = false;
};

}  // namespace jecb
