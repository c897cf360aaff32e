// Rendezvous × faults: what the large-message one-copy path guarantees
// when ranks die or media rots under it.
//
//   * Sender dies after the RTS is durable: the payload is already in its
//     slab and the descriptor in the ring — the receiver completes the
//     message without the sender, and a survivor's scavenge reclaims the
//     never-FINed slot (counted as a rendezvous slot in the report).
//   * Sender dies after writing the slab but before the RTS: the receiver
//     never learns of the message (kPeerFailed), and the orphaned slab is
//     scavenged the same way.
//   * Receiver dies holding an un-FINed slot: the sender's endpoint-local
//     scavenge destroys its own inflight slabs toward the corpse.
//   * Poison lands on the slab while an unexpected arrival is parked
//     there: the deferred pull surfaces kDataPoisoned at match time.
//   * A crashed sender's stale RTS cells are incarnation-fenced after
//     respawn: descriptors consumed, slab untouched, nothing delivered.
//   * A live sender whose slab create queues behind another rank's arena
//     lock for several leases keeps beating, so its receiver does not
//     convict it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cmpi.hpp"
#include "cxlsim/fault_injector.hpp"
#include "runtime/universe.hpp"

namespace cmpi {
namespace {

using namespace std::chrono_literals;

runtime::UniverseConfig rdvz_fault_config() {
  runtime::UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.pool_size = 32_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  cfg.cell_payload = 4_KiB;  // rendezvous threshold defaults to this
  cfg.failure_lease = 50ms;
  return cfg;
}

bool wait_for_crash(runtime::RankCtx& ctx, int rank,
                    std::chrono::milliseconds limit = 10000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  const cxlsim::FaultInjector* fi = ctx.device().fault_injector();
  while (std::chrono::steady_clock::now() < deadline) {
    if (fi != nullptr && fi->rank_crashed(rank)) {
      return true;
    }
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

std::vector<std::byte> patterned(std::size_t size, std::uint64_t seed) {
  std::vector<std::byte> data(size);
  Rng rng(seed);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_below(256));
  }
  return data;
}

TEST(RendezvousFault, SenderCrashAfterRtsStillDelivers) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // One segment (15 KB rounds up to a single segment quantum): the first
  // RTS is also the last chunk, and the sender dies the instant it is
  // durable.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-rdvz-rts", .occurrence = 1});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(15'000, 61);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      (void)mpi.send(0, 3, payload);
      FAIL() << "scripted crash at the RTS did not fire";
    } else {
      // The slab and the descriptor outlive the sender: the receive
      // completes clean off the dead rank's published state.
      std::vector<std::byte> buf(payload.size());
      const auto r = mpi.recv_for(1, 3, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, payload);
      ASSERT_TRUE(wait_for_crash(ctx, 1));
      // Our FIN went to a corpse, so the slot is still allocated in the
      // pool; scavenge reclaims it and attributes it as a rendezvous slot.
      const auto rep = mpi.scavenge(1);
      ASSERT_TRUE(rep.is_ok()) << rep.status().message();
      EXPECT_TRUE(rep.value().pool.performed);
      EXPECT_EQ(rep.value().pool.rendezvous_slots_reclaimed, 1u);
      EXPECT_EQ(rep.value().pool.arena_slots_reclaimed, 1u);
    }
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));
  EXPECT_EQ(universe.recovery_stats().rendezvous_slots_scavenged, 1u);
}

TEST(RendezvousFault, SenderCrashBeforeRtsLeavesOrphanSlab) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // The slab is written but the RTS never published: the receiver must
  // fail kPeerFailed (no message ever existed for it), and the orphan
  // slab is reclaimed by the pool scavenge.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-rdvz-slab-written", .occurrence = 1});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(100'000, 62);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      (void)mpi.send(0, 3, payload);
      FAIL() << "scripted crash after the slab write did not fire";
    } else {
      std::vector<std::byte> buf(payload.size());
      const auto r = mpi.recv_for(1, 3, buf, 10000ms);
      ASSERT_FALSE(r.is_ok());
      EXPECT_EQ(r.status().code(), ErrorCode::kPeerFailed);
      ASSERT_TRUE(wait_for_crash(ctx, 1));
      const auto rep = mpi.scavenge(1);
      ASSERT_TRUE(rep.is_ok()) << rep.status().message();
      EXPECT_EQ(rep.value().pool.rendezvous_slots_reclaimed, 1u);
    }
  });

  EXPECT_EQ(universe.recovery_stats().rendezvous_slots_scavenged, 1u);
}

TEST(RendezvousFault, ReceiverCrashFreesSendersInflightSlot) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // The victim's only send is a zero-byte token: its first eager chunk
  // sync point kills it — after rank 0's rendezvous send was announced,
  // before any FIN.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-chunk-staged", .occurrence = 1});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(100'000, 63);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      // Never posts the matching recv — the slot can only come back via
      // the sender's scavenge.
      std::byte token{0x1};
      (void)mpi.send(0, 9, {&token, 1});
      FAIL() << "scripted crash did not fire";
    } else {
      check_ok(mpi.send(1, 3, payload));  // completes once announced
      EXPECT_EQ(mpi.endpoint().debug_queue_sizes().rendezvous_inflight, 1u);
      ASSERT_TRUE(wait_for_crash(ctx, 1));
      const auto rep = mpi.scavenge(1);
      ASSERT_TRUE(rep.is_ok()) << rep.status().message();
      // The slab is OURS (sender-owned): the endpoint half destroys it;
      // the pool half finds nothing of the corpse's to reclaim.
      EXPECT_EQ(rep.value().endpoint.rendezvous_slots_freed, 1u);
      EXPECT_EQ(rep.value().pool.rendezvous_slots_reclaimed, 0u);
      EXPECT_EQ(mpi.endpoint().debug_queue_sizes().rendezvous_inflight, 0u);
    }
  });

  EXPECT_EQ(universe.recovery_stats().rendezvous_slots_scavenged, 1u);
}

TEST(RendezvousFault, PoisonedSlabSurfacesDataPoisonedAtDeferredMatch) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // Install the injector with a crash that can never fire; the poison is
  // aimed at runtime once the slab address is known.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 0, .point = "rdvz-test-never", .occurrence = 1});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(100'000, 64);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 0) {
      check_ok(mpi.send(1, 3, payload));
      // The message is parked in our slab (the receiver posts no recv
      // until told to). Poison the slab under it: the deferred pull at
      // match time must surface the media error.
      const auto slots = mpi.endpoint().debug_rendezvous_inflight(1);
      ASSERT_EQ(slots.size(), 1u);
      ctx.device().fault_injector()->poison(slots[0].pool_offset, 64);
      std::byte go{0x1};
      check_ok(mpi.send(1, 4, {&go, 1}));
      // The receiver FINs even a poisoned delivery; its ack follows the
      // FIN in FIFO order, so the slot must be home by now.
      std::byte ack{};
      check_ok(mpi.recv_for(1, 5, {&ack, 1}, 10000ms).status());
      EXPECT_EQ(mpi.endpoint().debug_queue_sizes().rendezvous_inflight, 0u);
    } else {
      std::byte go{};
      check_ok(mpi.recv_for(0, 4, {&go, 1}, 10000ms).status());
      std::vector<std::byte> buf(payload.size());
      const auto r = mpi.recv_for(0, 3, buf, 10000ms);
      ASSERT_FALSE(r.is_ok());
      EXPECT_EQ(r.status().code(), ErrorCode::kDataPoisoned);
      std::byte ack{0x2};
      check_ok(mpi.send(0, 5, {&ack, 1}));
    }
  });

  EXPECT_TRUE(universe.failed_ranks().empty());
}

TEST(RendezvousFault, StaleRtsIsFencedAfterRespawn) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-rdvz-rts", .occurrence = 1});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> stale = patterned(100'000, 65);
  const std::vector<std::byte> fresh = patterned(300, 66);

  // Epoch 1: the victim's RTS goes durable, then it dies. Nobody consumes
  // the descriptor — it waits in the ring for the next epoch.
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      (void)mpi.send(0, 3, stale);
      FAIL() << "scripted crash at the RTS did not fire";
    } else {
      ASSERT_TRUE(wait_for_crash(ctx, 1));
    }
  });
  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));

  universe.respawn(1);
  EXPECT_EQ(universe.incarnation(1), 1u);

  // Epoch 2: the survivor's first drain walks the incarnation-0 RTS and
  // fences it — descriptor consumed, slab untouched, nothing delivered,
  // no FIN. The respawned rank's fresh message arrives intact.
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      check_ok(mpi.send(0, 7, fresh));
    } else {
      std::vector<std::byte> buf(fresh.size());
      const auto r = mpi.recv_for(1, 7, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, fresh);
    }
  });

  const runtime::RecoveryStats stats = universe.recovery_stats();
  EXPECT_EQ(stats.stale_fenced, 1u);
  EXPECT_TRUE(universe.failed_ranks().empty());
}

TEST(RendezvousFault, SenderQueuedOnArenaLockKeepsBeating) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  cfg.nodes = 3;
  cfg.failure_lease = 25ms;
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(15'000, 65);
  std::atomic<std::uint64_t> slab_attempts{0};

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    if (ctx.rank() == 0) {
      // Hold the arena lock across the barrier for three leases: rank 1's
      // slab create queues behind it, and the release comes well inside
      // the rendezvous path's 100 ms lock deadline.
      arena::Arena& arena = ctx.arena();
      arena.shm_lock().lock(ctx.acc(), arena.participant());
      ctx.barrier();
      std::this_thread::sleep_for(3 * cfg.failure_lease);
      arena.shm_lock().unlock(ctx.acc(), arena.participant());
      return;
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      check_ok(mpi.send_for(2, 5, payload, 10000ms));
      const p2p::CommStats& stats = mpi.endpoint().stats();
      slab_attempts = stats.rendezvous_sent + stats.rendezvous_fallbacks;
      return;
    }
    std::vector<std::byte> buf(payload.size());
    const auto r = mpi.recv_for(1, 5, buf, 10000ms);
    ASSERT_TRUE(r.is_ok()) << r.status().message();
    EXPECT_EQ(buf, payload);
  });

  EXPECT_EQ(slab_attempts.load(), 1u);
  EXPECT_TRUE(universe.failed_ranks().empty());
}

}  // namespace
}  // namespace cmpi
