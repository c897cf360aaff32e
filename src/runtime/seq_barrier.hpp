// Sequence-number barrier over CXL SHM (paper §3.4, "initialization
// barrier").
//
// The classic sense-reversing barrier needs an atomic increment on a shared
// counter — unavailable across CXL heads. cMPI's refactored barrier instead
// gives each rank its own slot in a shared barrier array: a rank entering
// the barrier increments a private sequence number, publishes it to its
// slot, and spin-waits until every other slot is >= its own sequence
// number. Single-writer slots need no atomicity; the timestamped flags in
// each slot also propagate virtual time, so a barrier correctly
// synchronizes rank clocks (the slowest rank's time wins).
//
// Each slot's cacheline holds two timestamped flags, indexed by epoch
// parity: epoch e publishes to flag e % 2. A peer can run at most one
// epoch ahead of a waiter (it cannot leave the waiter's epoch without the
// waiter), so the waiter's parity flag still holds the peer's arrival at
// the waiter's own epoch — and a waiter absorbs that epoch's stamp, never
// the stamp of a next epoch the peer has already entered.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/align.hpp"
#include "common/status.hpp"
#include "cxlsim/accessor.hpp"
#include "runtime/doorbell.hpp"
#include "runtime/failure_detector.hpp"

namespace cmpi::runtime {

class SeqBarrier {
 public:
  /// Bytes of CXL SHM for `ranks` slots (one cacheline each).
  static constexpr std::size_t footprint(std::size_t ranks) noexcept {
    return ranks * kCacheLineSize;
  }
  static_assert(2 * cxlsim::Accessor::kFlagBytes <= kCacheLineSize);

  /// One-time zeroing of the slots (bootstrap, before any enter()).
  static void format(cxlsim::Accessor& acc, std::uint64_t base,
                     std::size_t ranks);

  /// View for one rank. `base` must match format's. The rank's local
  /// sequence number is restored from its own slot (the newer of its two
  /// flags), so a re-attached view (e.g. a new Universe::run epoch over
  /// the same pool) stays in step with the persistent barrier array.
  SeqBarrier(cxlsim::Accessor& acc, std::uint64_t base, std::size_t ranks,
             std::size_t my_rank)
      : base_(base), ranks_(ranks), my_rank_(my_rank) {
    CMPI_EXPECTS(my_rank < ranks);
    sequence_ = published(acc, base, my_rank);
  }

  /// Enter the barrier and block until all ranks have entered it at least
  /// as many times.
  ///
  /// The barrier publishes only its own slot flag; it is also the publish
  /// point for any payload the caller wrote before entering (e.g. a
  /// Window fence epoch). Callers that want the coherence checker to
  /// recognize such payload must annotate it on their Accessor
  /// (annotate_publish_range) before calling enter() — the slot's
  /// publish_flag then both flushes and vouches for those ranges.
  void enter(cxlsim::Accessor& acc, Doorbell& doorbell);

  /// Deadline- and failure-aware enter: publishes this rank's arrival,
  /// then waits at most `timeout` for the peers, beating the caller's
  /// heartbeat while waiting. Returns kPeerFailed naming the first peer
  /// the detector declares dead, kTimedOut if the deadline expires with
  /// peers still missing, Status::ok otherwise. On failure the barrier
  /// epoch is torn — this rank has entered but not synchronized — so the
  /// caller must abandon the collective operation, not retry the wait.
  [[nodiscard]] Status enter_for(cxlsim::Accessor& acc, Doorbell& doorbell,
                                 FailureDetector& detector,
                                 std::chrono::milliseconds timeout);

  /// Number of times this rank has entered the barrier.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return sequence_; }

  /// Recovery: release a dead rank's barrier occupancy by forging its slot
  /// to the maximum sequence any survivor has published (both parity
  /// flags: the latest epoch of each parity up to that maximum, so a
  /// survivor still one epoch behind is released too). Survivors then
  /// never wait on the corpse, and a respawned rank (whose constructor
  /// restores its sequence from this slot) rejoins in step with the
  /// group. Sound for the same reason ticket-breaking is: the dead rank's
  /// verdict is sticky, so its slot has no writer left. Returns true when
  /// the slot actually lagged and was forged.
  static bool forge_slot(cxlsim::Accessor& acc, std::uint64_t base,
                         std::size_t ranks, std::size_t dead_rank);

 private:
  /// Pool offset of `rank`'s flag for the epochs of parity `epoch % 2`.
  [[nodiscard]] static std::uint64_t flag(std::uint64_t base,
                                          std::size_t rank,
                                          std::uint64_t epoch) noexcept {
    return base + rank * kCacheLineSize +
           (epoch % 2) * cxlsim::Accessor::kFlagBytes;
  }
  /// Latest epoch `rank` has published (time-free read of both flags).
  [[nodiscard]] static std::uint64_t published(cxlsim::Accessor& acc,
                                               std::uint64_t base,
                                               std::size_t rank);

  std::uint64_t base_;
  std::size_t ranks_;
  std::size_t my_rank_;
  std::uint64_t sequence_ = 0;  // local, per §3.4
};

}  // namespace cmpi::runtime
