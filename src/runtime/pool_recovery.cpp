#include "runtime/pool_recovery.hpp"

#include <string>

#include "arena/bakery_lock.hpp"
#include "runtime/seq_barrier.hpp"

namespace cmpi::runtime {

void PoolRecovery::format(cxlsim::Accessor& acc, std::uint64_t base,
                          std::size_t ranks) {
  CMPI_EXPECTS(is_aligned(base, kCacheLineSize));
  for (std::size_t i = 0; i < 1 + ranks; ++i) {
    acc.publish_flag(base + i * kCacheLineSize, 0);
  }
}

std::uint64_t PoolRecovery::recovery_epoch() {
  return ctx_->acc().peek_flag(epoch_slot()).value;
}

std::uint64_t PoolRecovery::scavenged_through(int rank) {
  CMPI_EXPECTS(rank >= 0 && rank < ctx_->nranks());
  return ctx_->acc().peek_flag(rank_slot(rank)).value;
}

Result<PoolRecovery::ScavengeReport> PoolRecovery::scavenge(
    int dead_rank, std::chrono::milliseconds timeout) {
  RankCtx& ctx = *ctx_;
  cxlsim::Accessor& acc = ctx.acc();
  if (dead_rank < 0 || dead_rank >= ctx.nranks() ||
      dead_rank == ctx.rank()) {
    return status::invalid_argument("scavenge: bad dead rank " +
                                    std::to_string(dead_rank));
  }
  // Conviction gate: scavenging a live rank would race its writes. Accept
  // either this rank's detector verdict or the injector's crash record
  // (a scripted crash is ground truth the detector may not have caught
  // yet; both are sticky until respawn).
  const cxlsim::FaultInjector* injector = ctx.device().fault_injector();
  const bool convicted =
      ctx.failure_detector().dead(acc, dead_rank) ||
      (injector != nullptr && injector->rank_crashed(dead_rank));
  if (!convicted) {
    return status::invalid_argument(
        "scavenge: rank " + std::to_string(dead_rank) +
        " is not convicted dead (detector + injector both silent)");
  }

  arena::Arena& arena = ctx.arena();
  arena::BakeryLock& lock = arena.shm_lock();
  FailureDetector& detector = ctx.failure_detector();
  const auto beat = [&] { detector.beat(acc); };
  const auto dead_pred = [&](std::size_t participant) {
    // Universe arenas use rank ids as participant ids.
    return detector.dead(acc, static_cast<int>(participant)) ||
           (injector != nullptr &&
            injector->rank_crashed(static_cast<int>(participant)));
  };

  ScavengeReport report;
  // A standing ticket now can only be the corpse's (it will never clear
  // it); count it before our own doorway traffic starts churning slots.
  const bool dead_ticket_standing =
      lock.participant_active(acc, static_cast<std::size_t>(dead_rank));

  if (Status locked =
          lock.lock_for(acc, arena.participant(), timeout, dead_pred, beat);
      !locked.is_ok()) {
    return locked;
  }

  const std::uint64_t dead_incarnation = ctx.incarnation(dead_rank);
  const std::uint64_t stamp = acc.peek_flag(rank_slot(dead_rank)).value;
  if (stamp >= dead_incarnation + 1) {
    // Another survivor already scavenged this incarnation: observe, don't
    // repeat (the exactly-once contract of the ledger).
    report.performed = false;
    report.epoch = acc.peek_flag(epoch_slot()).value;
    lock.unlock(acc, arena.participant());
    return report;
  }

  // The walk beats as it goes: a survivor waiting on the lock convicts a
  // holder whose heartbeat stalls for a lease.
  const arena::Arena::ScavengeStats arena_stats = arena.scavenge_locked(
      static_cast<std::size_t>(dead_rank), dead_incarnation, beat);
  report.arena_bytes_reclaimed = arena_stats.bytes;
  report.arena_slots_reclaimed = arena_stats.slots;

  // Break what is left of the corpse's arena-lock state. lock_for already
  // broke its ticket if we waited BEHIND it; a stale ticket LARGER than
  // ours would still be standing and would block every future acquirer.
  lock.break_participant(acc, static_cast<std::size_t>(dead_rank));
  report.lock_tickets_broken = dead_ticket_standing ? 1 : 0;

  report.barrier_slot_forged = SeqBarrier::forge_slot(
      acc, ctx.barrier_base(), static_cast<std::size_t>(ctx.nranks()),
      static_cast<std::size_t>(dead_rank));

  // Ledger last, still inside the critical section: stamp the rank, bump
  // the global epoch. Single writer under the arena lock — plain
  // timestamped flags, no RMW.
  acc.publish_flag(rank_slot(dead_rank), dead_incarnation + 1);
  report.epoch = acc.peek_flag(epoch_slot()).value + 1;
  acc.publish_flag(epoch_slot(), report.epoch);
  lock.unlock(acc, arena.participant());

  report.performed = true;
  ctx.recovery_counters().scavenges.fetch_add(1);
  return report;
}

}  // namespace cmpi::runtime
