// Shared-pool fsck + reclamation after a rank death (the recovery layer
// the ROADMAP's production north star requires on top of PR 2's
// detection).
//
// A crashed host cannot clean up after itself: its arena allocations,
// bakery-lock tickets and barrier occupancy sit in the pool forever unless
// a survivor reclaims them. PoolRecovery::scavenge(dead_rank) is that
// reclamation pass — callable by ANY survivor once the FailureDetector
// (or the fault injector, for scripted crashes) has convicted the rank:
//
//   1. acquire the arena lock with the dead-aware lock_for (breaking the
//      corpse's ticket if it died inside the critical section),
//   2. consult the on-pool recovery ledger: if another survivor already
//      scavenged this incarnation of the rank, return without touching
//      anything (exactly-once semantics, serialized by the arena lock),
//   3. walk the arena slot table freeing every kOwned object of the dead
//      incarnation (Arena::scavenge_locked),
//   4. break the dead rank's remaining arena-lock ticket outright (a
//      stale ticket blocks all future acquirers with larger tickets),
//   5. forge the dead rank's barrier slot level with the survivors
//      (SeqBarrier::forge_slot) so collectives drain past the corpse,
//   6. publish the per-rank ledger stamp and bump the global recovery
//      epoch — still inside the critical section.
//
// The ledger lives in its own reserved pool region (between the heartbeat
// slots and the arena): one cacheline holding the global recovery epoch,
// plus one cacheline per rank holding "scavenged through incarnation + 1".
// All ledger traffic is single-writer-under-lock timestamped flags — the
// recovery path needs only the same flush + invalidate discipline as every
// other layer, no cross-node atomics (see DESIGN.md).
//
// Ring cells and RMA window words are NOT touched here: the runtime layer
// cannot reach into p2p/rma (layering). Endpoint::scavenge_peer and
// Window::scavenge_peer do the structure-local repairs; core::Session ties
// them together.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/align.hpp"
#include "common/status.hpp"
#include "cxlsim/accessor.hpp"
#include "runtime/universe.hpp"

namespace cmpi::runtime {

class PoolRecovery {
 public:
  /// Bytes of CXL SHM for the ledger: the global epoch cacheline plus one
  /// per-rank stamp cacheline.
  static constexpr std::size_t footprint(std::size_t ranks) noexcept {
    return (1 + ranks) * kCacheLineSize;
  }

  /// One-time zeroing of the ledger (bootstrap, done by the Universe).
  static void format(cxlsim::Accessor& acc, std::uint64_t base,
                     std::size_t ranks);

  /// View for the calling rank (valid for the RankCtx's lifetime).
  explicit PoolRecovery(RankCtx& ctx) : ctx_(&ctx) {}

  /// What one scavenge pass did.
  struct ScavengeReport {
    /// False when another survivor had already scavenged this incarnation
    /// — nothing was touched, `epoch` is the current epoch.
    bool performed = false;
    /// Global recovery epoch after (or at, when !performed) this call.
    std::uint64_t epoch = 0;
    std::uint64_t arena_bytes_reclaimed = 0;
    std::uint64_t arena_slots_reclaimed = 0;
    std::uint64_t lock_tickets_broken = 0;
    bool barrier_slot_forged = false;
  };

  /// Reclaim the pool state of `dead_rank`'s current incarnation. The rank
  /// must already be convicted (FailureDetector verdict or injector crash
  /// record); a scavenge of a live rank would race its writes, so an
  /// unconvicted target fails with kInvalidArgument. Waits at most
  /// `timeout` for the arena lock (kTimedOut on expiry).
  Result<ScavengeReport> scavenge(int dead_rank,
                                  std::chrono::milliseconds timeout);

  /// Current global recovery epoch (number of scavenge passes ever
  /// performed on this pool). Survivors that cache the last epoch they
  /// acted on observe each repair exactly once.
  [[nodiscard]] std::uint64_t recovery_epoch();

  /// Ledger stamp for one rank: 0 if never scavenged, otherwise
  /// (incarnation scavenged through) + 1.
  [[nodiscard]] std::uint64_t scavenged_through(int rank);

 private:
  [[nodiscard]] std::uint64_t epoch_slot() const noexcept {
    return ctx_->recovery_base();
  }
  [[nodiscard]] std::uint64_t rank_slot(int rank) const noexcept {
    return ctx_->recovery_base() +
           (1 + static_cast<std::uint64_t>(rank)) * kCacheLineSize;
  }

  RankCtx* ctx_;
};

}  // namespace cmpi::runtime
