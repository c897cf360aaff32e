// Lamport bakery lock resident in CXL SHM.
//
// The pooled device offers no cross-host atomic read-modify-write (§3.5),
// so mutual exclusion across nodes must be built from plain loads and
// stores. The bakery algorithm needs exactly that: per-participant
// `choosing` and `number` words, written only by their owner and read by
// everyone. All accesses use the non-temporal u64 path (never cached), so
// the lock needs no explicit flushes; the `number` word carries a virtual
// timestamp so that lock hand-off propagates time between rank clocks.
//
// Used for: CXL SHM Arena create/destroy serialization, and the paper's
// Lock-Unlock one-sided synchronization (§3.4, "placing the window lock in
// CXL SHM").
//
// The lock view itself is a value object (offsets only); each caller passes
// its own Accessor. Participants are dense ids in [0, max_participants).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/align.hpp"
#include "common/status.hpp"
#include "cxlsim/accessor.hpp"

namespace cmpi::arena {

class BakeryLock {
 public:
  /// Bytes of CXL SHM the lock occupies for `max_participants`.
  static constexpr std::size_t footprint(std::size_t max_participants) noexcept {
    return kHeaderBytes + max_participants * kSlotBytes;
  }

  /// One-time initialization of the lock's CXL SHM (single caller, before
  /// any lock/unlock).
  static BakeryLock format(cxlsim::Accessor& acc, std::uint64_t base,
                           std::size_t max_participants);

  /// Attach to an already-formatted lock. Validates the on-pool header
  /// (magic word + participant-count range) and returns kInvalidArgument
  /// describing the mismatch when `base` does not hold a formatted lock —
  /// a wrong base offset otherwise manifests as a silent hang inside
  /// lock() against garbage tickets.
  static Result<BakeryLock> attach(cxlsim::Accessor& acc, std::uint64_t base);

  /// Acquire for `participant`. Blocks (yielding) until the lock is held.
  void lock(cxlsim::Accessor& acc, std::size_t participant) const;

  /// Judges whether a participant id belongs to a dead rank (see
  /// runtime::FailureDetector; the caller owns the participant-to-rank
  /// mapping). Consulted while waiting behind that participant.
  using DeadPredicate = std::function<bool(std::size_t)>;

  /// Deadline- and failure-aware acquire. Waits at most `timeout`; while
  /// blocked behind a participant that `peer_dead` judges dead, BREAKS the
  /// dead holder's doorway/ticket by clearing its choosing and number
  /// slots — the one sanctioned violation of the single-writer discipline,
  /// sound because a dead verdict is sticky (the fenced-off rank never
  /// writes again). `beat`, when non-empty, is invoked each wait iteration
  /// so the caller stays visibly alive (FailureDetector::beat is
  /// throttled; pass it directly). Returns kTimedOut if the deadline
  /// expires (own slots are cleaned up first — the caller holds nothing),
  /// Status::ok once the lock is held.
  [[nodiscard]] Status lock_for(cxlsim::Accessor& acc, std::size_t participant,
                                std::chrono::milliseconds timeout,
                                const DeadPredicate& peer_dead,
                                const std::function<void()>& beat = {}) const;

  /// Release. Precondition: `participant` holds the lock.
  ///
  /// Releasing is a publish point: data written inside the critical
  /// section becomes visible to the next holder via the `number` flag
  /// hand-off. Callers that want the coherence checker to recognize that
  /// payload must annotate it on their Accessor (annotate_publish_range)
  /// before calling unlock() — as rma::Window::unlock does for its
  /// passive-epoch puts.
  void unlock(cxlsim::Accessor& acc, std::size_t participant) const;

  /// Break a dead participant's doorway and ticket outright (the same
  /// clearing lock_for performs while waiting behind a corpse, exposed for
  /// PoolRecovery's scavenge pass — a stale ticket blocks every FUTURE
  /// acquirer whose drawn ticket is larger, even ones that never wait
  /// behind the dead rank directly). Only sound when the participant's
  /// rank has a sticky dead verdict: its slots have no writer left.
  /// Returns true when a ticket or doorway flag was actually standing.
  bool break_participant(cxlsim::Accessor& acc, std::size_t participant) const;

  /// True if `participant` currently advertises a drawn ticket or an open
  /// doorway (peek only; for recovery accounting and tests).
  [[nodiscard]] bool participant_active(cxlsim::Accessor& acc,
                                        std::size_t participant) const;

  [[nodiscard]] std::size_t max_participants() const noexcept {
    return max_participants_;
  }

  /// RAII guard.
  class Guard {
   public:
    Guard(const BakeryLock& lock_view, cxlsim::Accessor& acc,
          std::size_t participant)
        : lock_(lock_view), acc_(acc), participant_(participant) {
      lock_.lock(acc_, participant_);
    }
    ~Guard() { lock_.unlock(acc_, participant_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    const BakeryLock& lock_;
    cxlsim::Accessor& acc_;
    std::size_t participant_;
  };

 private:
  static constexpr std::size_t kHeaderBytes = kCacheLineSize;
  static constexpr std::size_t kSlotBytes = kCacheLineSize;
  // Header cacheline: participant count at +0, magic word at +8.
  static constexpr std::size_t kMagicOffset = 8;
  static constexpr std::uint64_t kMagic = 0x62616b6572796c6bULL;  // "bakerylk"
  /// Sanity ceiling for the attach-time participant-count check (far above
  /// any real universe; a corrupt header mostly reads as huge garbage).
  static constexpr std::uint64_t kMaxAttachParticipants = 65536;
  // Within a slot: choosing flag at +0, number flag at +16 (both
  // timestamped 16-byte flags).
  static constexpr std::size_t kChoosingOffset = 0;
  static constexpr std::size_t kNumberOffset = 16;

  BakeryLock(std::uint64_t base, std::size_t max_participants)
      : base_(base), max_participants_(max_participants) {}

  /// The one acquire behind lock() and lock_for(): doorway, then wait
  /// behind every lower-priority ticket until `deadline`, breaking the
  /// slots of a holder `peer_dead` convicts and calling `beat` (either may
  /// be empty) on each blocked tick.
  [[nodiscard]] Status acquire(cxlsim::Accessor& acc, std::size_t participant,
                               std::chrono::steady_clock::time_point deadline,
                               const DeadPredicate& peer_dead,
                               const std::function<void()>& beat) const;

  [[nodiscard]] std::uint64_t slot(std::size_t participant) const noexcept {
    return base_ + kHeaderBytes + participant * kSlotBytes;
  }

  std::uint64_t base_;
  std::size_t max_participants_;
};

}  // namespace cmpi::arena
