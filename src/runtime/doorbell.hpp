// Wake-up channels for rank threads.
//
// Two kinds live here:
//
//  * Doorbell — the functional (host-side) wake-up channel. Virtual time
//    handles *modeled* waiting (clocks jump via flag stamps); this doorbell
//    handles *wall-clock* waiting so that spin loops don't burn the
//    (single) host core. Every protocol-level flag publication rings it; a
//    waiting rank re-checks its predicate on each ring. A timeout re-check
//    guards against lost wake-ups from writers outside the doorbell's
//    scope (e.g. forked processes).
//
//  * AggDoorbell — the *modeled* (pool-resident) aggregated doorbell the
//    message-rate engine polls instead of scanning every peer ring. One
//    u64 slot per (receiver, sender) pair, written only by that sender
//    (the pooled device has no cross-host atomic RMW, so a shared bitmask
//    is out — single-writer counter slots are the §3.3 answer). A
//    receiver's slots are packed into one row, cacheline-aligned, so for
//    ≤8 peers the whole poll is one line. Senders bump their slot on the
//    ring's empty→non-empty edge; the receiver compares each slot against
//    a host-local `seen` copy and visits only peers whose slot moved.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>

#include "common/align.hpp"
#include "cxlsim/accessor.hpp"

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

/// Pool-resident aggregated doorbell (see file header). All accesses go
/// through the caller's Accessor: sender slots are fire-and-forget hint
/// stores (hint_store_u64), receiver polls are time-free peeks — a failed
/// poll is waiting, not work, and the hint word orders against nothing
/// (the periodic fallback scan in the p2p progress loop bounds the cost of
/// a stale read).
class AggDoorbell {
 public:
  /// Bytes of one receiver's row of sender slots, cacheline-padded so two
  /// receivers' rows never share a line.
  static constexpr std::size_t row_stride(std::size_t ranks) noexcept {
    return align_up(ranks * sizeof(std::uint64_t), kCacheLineSize);
  }

  /// Bytes of CXL SHM the doorbell matrix occupies.
  static constexpr std::size_t footprint(std::size_t ranks) noexcept {
    return ranks * row_stride(ranks);
  }

  /// One-time zeroing (bootstrap, done by the Universe).
  static void format(cxlsim::Accessor& acc, std::uint64_t base,
                     std::size_t ranks);

  AggDoorbell(std::uint64_t base, int nranks) noexcept
      : base_(base), nranks_(nranks) {}

  /// Pool offset of the slot `sender` writes to wake `receiver`.
  [[nodiscard]] std::uint64_t slot(int receiver, int sender) const noexcept {
    return base_ +
           static_cast<std::uint64_t>(receiver) *
               row_stride(static_cast<std::size_t>(nranks_)) +
           static_cast<std::uint64_t>(sender) * sizeof(std::uint64_t);
  }

  /// Sender side: post `value` (a monotonic per-sender counter) into the
  /// (receiver, sender) slot. Single-writer — only `sender` ever stores
  /// here, so no RMW is needed.
  void ring(cxlsim::Accessor& acc, int receiver, int sender,
            std::uint64_t value) {
    acc.hint_store_u64(slot(receiver, sender), value);
  }

  /// Receiver side: time-free poll of one slot.
  [[nodiscard]] std::uint64_t peek(cxlsim::Accessor& acc, int receiver,
                                   int sender) {
    return acc.peek_u64(slot(receiver, sender));
  }

  /// Survivor side: zero every slot the dead sender owns (its column), so
  /// the corpse's stale rings cannot linger and its next incarnation
  /// restarts the counter cleanly. Called by PoolRecovery::scavenge under
  /// the arena lock (exactly-once per incarnation).
  static void clear_sender(cxlsim::Accessor& acc, std::uint64_t base,
                           std::size_t ranks, int dead_rank);

 private:
  std::uint64_t base_;
  int nranks_;
};

}  // namespace cmpi::runtime
