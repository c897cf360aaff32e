// Wake-up channel for rank threads.
//
// Doorbell is host-side only. Virtual time handles *modeled* waiting
// (clocks jump via flag stamps); this doorbell handles *wall-clock*
// waiting so that spin loops don't burn the (single) host core. Every
// protocol-level flag publication rings it; a waiting rank re-checks its
// predicate on each ring. A timeout re-check guards against lost wake-ups
// from writers outside the doorbell's scope (e.g. forked processes).
//
// Nothing in the pool models a doorbell: a receiver learns which of its
// inbound rings hold cells by polling each ring's head cell with an
// untimed read (see p2p/endpoint.hpp, "Progress").
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>

namespace cmpi::runtime {

class Doorbell {
 public:
  /// `recheck` bounds how long a waiter can miss an out-of-scope wake-up
  /// (and therefore the granularity of failure-detector lease checks made
  /// from wait loops). The 1 ms default matches the historical constant.
  explicit Doorbell(std::chrono::milliseconds recheck =
                        std::chrono::milliseconds(1)) noexcept
      : recheck_(recheck) {}

  [[nodiscard]] std::chrono::milliseconds recheck_interval() const noexcept {
    return recheck_;
  }

  /// Wake all current waiters.
  void ring() noexcept {
    {
      std::lock_guard lock(mutex_);
      ++generation_;
    }
    cv_.notify_all();
  }

  /// Block until `pred()` is true, re-evaluating after every ring (and at
  /// least every recheck interval).
  template <typename Pred>
  void wait_until(Pred pred) {
    (void)wait_until(std::move(pred),
                     std::chrono::steady_clock::time_point::max());
  }

  /// Deadline overload: block until `pred()` is true or `deadline` passes.
  /// Returns whether the predicate was satisfied — false means the
  /// deadline expired with the predicate still false (the caller maps this
  /// to ErrorCode::kTimedOut). The predicate is always evaluated at least
  /// once, and once more after the deadline (a last-instant ring between
  /// the final check and the deadline must not be lost).
  template <typename Pred>
  [[nodiscard]] bool wait_until(
      Pred pred, std::chrono::steady_clock::time_point deadline) {
    if (pred()) {
      return true;
    }
    std::unique_lock lock(mutex_);
    for (;;) {
      const std::uint64_t seen = generation_;
      lock.unlock();
      if (pred()) {
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return pred();
      }
      lock.lock();
      const auto next = std::min(
          deadline, std::chrono::steady_clock::now() + recheck_);
      cv_.wait_until(lock, next, [&] { return generation_ != seen; });
    }
  }

  /// Arm a wait: the current generation, to pass to wait_past() AFTER
  /// re-checking the wake condition. The epoch/wait_past pair closes the
  /// classic check-then-sleep race: a ring landing between the caller's
  /// last condition check and the sleep bumps the generation past `seen`,
  /// so wait_past returns immediately instead of stalling a full recheck
  /// interval.
  [[nodiscard]] std::uint64_t epoch() {
    std::lock_guard lock(mutex_);
    return generation_;
  }

  /// Block until a ring newer than `seen` (or one recheck interval),
  /// whichever comes first. Correct arming order: seen = epoch(); check
  /// the wake condition (run the progress engine); wait_past(seen).
  void wait_past(std::uint64_t seen) {
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, recheck_, [&] { return generation_ != seen; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
  std::chrono::milliseconds recheck_;
};

}  // namespace cmpi::runtime
