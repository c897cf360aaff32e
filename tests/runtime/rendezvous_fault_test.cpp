// Large messages × faults: what the bulk-ring path guarantees when ranks
// die or media rots under it.
//
//   * Sender dies after its last bulk cell is durable: the envelope and
//     the body are published, so the receiver completes the message
//     without the sender, and the bulk ring (shared infrastructure, like
//     the ring matrix) survives the pool scavenge.
//   * Sender dies mid-message: the receiver has the envelope and the
//     first cells, and its deadline receive fails kPeerFailed.
//   * Receiver dies: a send that fits the bulk ring completed once
//     staged, so the sender's scavenge fails no request.
//   * Poison lands on a bulk cell while the message waits unread: it
//     drains into an unexpected message, and the late receive surfaces
//     kDataPoisoned without a NAK (the sender keeps no retransmit copy).
//   * Poison lands on the envelope of a message that fills the bulk
//     ring: the receive surfaces kDataPoisoned, and the body is still
//     read through, so the sender's next messages find free cells.
//   * A crashed sender's stale envelope, of a message that filled the
//     bulk ring, is incarnation-fenced after respawn; its body is
//     discarded with it, so the respawned sender's next large message
//     finds free cells without a scavenge. A stale body ends at the empty
//     ring or at the respawned sender's first bulk cell, whichever comes
//     first.
//   * A sender that filled its bulk ring and died before anything was
//     read: the survivor's scavenge finds the ring by name and drains it.
//   * A live sender whose bulk-ring create queues behind another rank's
//     arena lock for several leases keeps beating, so its receiver does
//     not convict it. In a later run epoch neither side takes the lock:
//     both find the ring by a lock-free lookup.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cmpi.hpp"
#include "cxlsim/fault_injector.hpp"
#include "queue/spsc_ring.hpp"
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
  // One bulk cell (15 KB rounds up to a single segment quantum): the
  // first cell is also the last, and the sender dies the instant it and
  // the envelope are durable.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-rdvz-rts", .occurrence = 1});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(15'000, 61);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      (void)mpi.send(0, 3, payload);
      FAIL() << "scripted crash at the bulk-cell publish did not fire";
    } else {
      // The envelope and the bulk cell outlive the sender: the receive
      // completes clean off the dead rank's published state.
      std::vector<std::byte> buf(payload.size());
      const auto r = mpi.recv_for(1, 3, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, payload);
      ASSERT_TRUE(wait_for_crash(ctx, 1));
      // Both rings were read dry before the corpse was convicted, and
      // the bulk ring is shared infrastructure the pool scavenge keeps.
      const auto rep = mpi.scavenge(1);
      ASSERT_TRUE(rep.is_ok()) << rep.status().message();
      EXPECT_TRUE(rep.value().pool.performed);
      EXPECT_EQ(rep.value().pool.arena_slots_reclaimed, 0u);
      EXPECT_EQ(rep.value().endpoint.cells_drained, 0u);
    }
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));
}

TEST(RendezvousFault, SenderCrashBeforeRtsLeavesOrphanSlab) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // 100,000 B at 4 KiB cells is seven 16 KiB bulk cells. The sender dies
  // after publishing the envelope and two of them: the receiver matches
  // the envelope, reads what was published, and its deadline receive
  // fails kPeerFailed waiting for the rest.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-rdvz-rts", .occurrence = 2});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(100'000, 62);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      (void)mpi.send(0, 3, payload);
      FAIL() << "scripted crash mid-message did not fire";
    } else {
      std::vector<std::byte> buf(payload.size());
      const auto r = mpi.recv_for(1, 3, buf, 10000ms);
      ASSERT_FALSE(r.is_ok());
      EXPECT_EQ(r.status().code(), ErrorCode::kPeerFailed);
      ASSERT_TRUE(wait_for_crash(ctx, 1));
      const auto rep = mpi.scavenge(1);
      ASSERT_TRUE(rep.is_ok()) << rep.status().message();
      EXPECT_TRUE(rep.value().pool.performed);
    }
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));
}

TEST(RendezvousFault, ReceiverCrashFreesSendersInflightSlot) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // The victim's only send is a one-byte token: its first eager chunk
  // sync point kills it, without its ever reading rank 0's large message.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-chunk-staged", .occurrence = 1});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(100'000, 63);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      // Never posts the matching recv.
      std::byte token{0x1};
      (void)mpi.send(0, 9, {&token, 1});
      FAIL() << "scripted crash did not fire";
    } else {
      // Seven bulk cells fit the 8-cell bulk ring: the send completes
      // once staged, whether or not anyone reads it.
      check_ok(mpi.send(1, 3, payload));
      EXPECT_EQ(mpi.endpoint().debug_queue_sizes().send_queued, 0u);
      ASSERT_TRUE(wait_for_crash(ctx, 1));
      const auto rep = mpi.scavenge(1);
      ASSERT_TRUE(rep.is_ok()) << rep.status().message();
      EXPECT_EQ(rep.value().endpoint.requests_failed, 0u);
    }
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));
}

TEST(RendezvousFault, PoisonedSlabSurfacesDataPoisonedAtDeferredMatch) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // Install the injector with a crash that can never fire; the poison is
  // aimed at runtime once the message sits in the bulk ring.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 0, .point = "rdvz-test-never", .occurrence = 1});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(100'000, 64);
  const std::vector<std::byte> after = patterned(300, 67);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 0) {
      check_ok(mpi.send(1, 3, payload));
      // Nobody has read the message yet: poison the first payload line
      // of bulk cell 0 under it.
      const arena::ObjectHandle bulk =
          check_ok(ctx.arena().open("cmpi.bulk.0.1"));
      ctx.device().fault_injector()->poison(
          bulk.pool_offset + queue::SpscRing::kCellsOffset +
              sizeof(queue::CellHeader),
          64);
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      // Eager, so it rides the small ring, never the poisoned cell.
      check_ok(mpi.send(1, 4, after));
    } else {
      // FIFO: by the time the later message is in, the large one has
      // drained into an unexpected message, its poison recorded.
      std::vector<std::byte> small(after.size());
      check_ok(mpi.recv_for(0, 4, small, 10000ms).status());
      EXPECT_EQ(small, after);
      std::vector<std::byte> buf(payload.size());
      const auto r = mpi.recv_for(0, 3, buf, 10000ms);
      ASSERT_FALSE(r.is_ok());
      EXPECT_EQ(r.status().code(), ErrorCode::kDataPoisoned);
    }
  });

  EXPECT_TRUE(universe.failed_ranks().empty());
  EXPECT_EQ(universe.recovery_stats().naks_sent, 0u);
}

TEST(RendezvousFault, PoisonedEnvelopeStillDrainsItsBody) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // Install the injector with a crash that can never fire; the poison is
  // aimed before any traffic.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "rdvz-test-never", .occurrence = 1});
  runtime::Universe universe(cfg);
  // 1 MiB at 4 KiB cells is eight 128 KiB bulk cells: the whole bulk ring.
  const std::vector<std::byte> poisoned = patterned(1_MiB, 71);
  const std::vector<std::byte> next_large = patterned(300'000, 72);
  const std::vector<std::byte> next_eager = patterned(300, 73);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    if (ctx.rank() == 1) {
      // The envelope of rank 0's first message lands in small-ring cell 0:
      // poison both lines a receiver reads of it.
      ctx.device().fault_injector()->poison(
          mpi.endpoint().debug_ring_base(/*receiver=*/1, /*sender=*/0) +
              queue::SpscRing::kCellsOffset,
          2 * sizeof(queue::CellHeader));
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      check_ok(mpi.send(1, 3, poisoned));
      // Both need cells the poisoned message's body holds until the
      // receiver reads it.
      const Status large = mpi.send_for(1, 4, next_large, 10000ms);
      EXPECT_TRUE(large.is_ok()) << large.message();
      const Status eager = mpi.send_for(1, 5, next_eager, 10000ms);
      EXPECT_TRUE(eager.is_ok()) << eager.message();
      return;
    }
    std::vector<std::byte> buf(poisoned.size());
    const auto r = mpi.recv_for(0, 3, buf, 10000ms);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kDataPoisoned);
    std::vector<std::byte> large(next_large.size());
    const auto r_large = mpi.recv_for(0, 4, large, 10000ms);
    ASSERT_TRUE(r_large.is_ok()) << r_large.status().message();
    EXPECT_EQ(large, next_large);
    std::vector<std::byte> eager(next_eager.size());
    const auto r_eager = mpi.recv_for(0, 5, eager, 10000ms);
    ASSERT_TRUE(r_eager.is_ok()) << r_eager.status().message();
    EXPECT_EQ(eager, next_eager);
  });

  EXPECT_TRUE(universe.failed_ranks().empty());
  EXPECT_EQ(universe.recovery_stats().naks_sent, 0u);
}

TEST(RendezvousFault, StaleRtsIsFencedAfterRespawn) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // 1.5 MiB at 4 KiB cells is twelve 128 KiB bulk cells. The victim dies
  // after publishing the envelope and eight of them: its bulk ring toward
  // rank 0 is full, and the message has no last cell.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-rdvz-rts", .occurrence = 8});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> stale = patterned(1_MiB + 512_KiB, 65);
  const std::vector<std::byte> fresh = patterned(300, 66);
  const std::vector<std::byte> fresh_large = patterned(200'000, 68);

  // Epoch 1: the victim's envelope and eight bulk cells go durable, then
  // it dies. Nobody consumes them — they wait in the rings for the next
  // epoch.
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      (void)mpi.send(0, 3, stale);
      FAIL() << "scripted crash at the bulk-cell publish did not fire";
    } else {
      ASSERT_TRUE(wait_for_crash(ctx, 1));
    }
  });
  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));

  universe.respawn(1);
  EXPECT_EQ(universe.incarnation(1), 1u);

  // Epoch 2, with no scavenge: the survivor's first drain walks the
  // incarnation-0 envelope and fences it, then discards its body up to
  // where the dead incarnation's cells end, the empty bulk ring, nothing
  // delivered. The respawned rank's eager message behind the envelope
  // arrives before it sends anything large, and its large message, which
  // needs a free cell before it can publish its envelope, arrives too.
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    std::byte token{0x8};
    if (ctx.rank() == 1) {
      check_ok(mpi.send(0, 7, fresh));
      const auto go = mpi.recv_for(0, 9, {&token, 1}, 10000ms);
      ASSERT_TRUE(go.is_ok()) << go.status().message();
      const Status large = mpi.send_for(0, 8, fresh_large, 10000ms);
      EXPECT_TRUE(large.is_ok()) << large.message();
    } else {
      std::vector<std::byte> buf(fresh.size());
      const auto r = mpi.recv_for(1, 7, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, fresh);
      check_ok(mpi.send(1, 9, {&token, 1}));
      std::vector<std::byte> large(fresh_large.size());
      const auto r2 = mpi.recv_for(1, 8, large, 10000ms);
      ASSERT_TRUE(r2.is_ok()) << r2.status().message();
      EXPECT_EQ(large, fresh_large);
    }
  });

  const runtime::RecoveryStats stats = universe.recovery_stats();
  EXPECT_EQ(stats.stale_fenced, 1u);
  EXPECT_TRUE(universe.failed_ranks().empty());
}

TEST(RendezvousFault, StaleBodyEndsAtTheRespawnedSendersFirstCell) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // 100,000 B at 4 KiB cells is seven 16 KiB bulk cells. The victim dies
  // after publishing the envelope and three of them.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-rdvz-rts", .occurrence = 3});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> stale = patterned(100'000, 75);
  // Seven 32 KiB bulk cells, five of which fit behind the stale three.
  const std::vector<std::byte> fresh_large = patterned(200'000, 76);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      (void)mpi.send(0, 3, stale);
      FAIL() << "scripted crash at the bulk-cell publish did not fire";
    } else {
      ASSERT_TRUE(wait_for_crash(ctx, 1));
    }
  });
  universe.respawn(1);

  // Epoch 2: the respawned sender publishes its envelope and first five
  // cells behind the stale ones before the survivor reads anything. The
  // survivor fences the stale envelope and discards its three cells; the
  // next bulk cell is the live incarnation's, where the stale body ends.
  // Discarding it too would lose the fresh message's first five cells.
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    if (ctx.rank() == 1) {
      const p2p::RequestPtr req = mpi.isend(0, 8, fresh_large);
      ctx.barrier();
      const Status st = mpi.endpoint().wait_for(req, 10000ms);
      EXPECT_TRUE(st.is_ok()) << st.message();
      return;
    }
    ctx.barrier();
    std::vector<std::byte> large(fresh_large.size());
    const auto r = mpi.recv_for(1, 8, large, 10000ms);
    ASSERT_TRUE(r.is_ok()) << r.status().message();
    EXPECT_EQ(large, fresh_large);
  });

  EXPECT_EQ(universe.recovery_stats().stale_fenced, 1u);
  EXPECT_TRUE(universe.failed_ranks().empty());
}

TEST(RendezvousFault, ScavengeDrainsTheCorpsesBulkRing) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  // 1 MiB at 4 KiB cells is eight 128 KiB bulk cells: the victim fills its
  // whole bulk ring toward rank 0 and dies after the last publish.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-rdvz-rts", .occurrence = 8});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> stale = patterned(1_MiB, 69);
  const std::vector<std::byte> fresh = patterned(1_MiB, 70);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      (void)mpi.send(0, 3, stale);
      FAIL() << "scripted crash at the last bulk-cell publish did not fire";
    } else {
      ASSERT_TRUE(wait_for_crash(ctx, 1));
      // Nothing was read, so no envelope has located the bulk ring: the
      // scavenge opens it by name. The envelope plus eight bulk cells.
      const auto rep = mpi.scavenge(1);
      ASSERT_TRUE(rep.is_ok()) << rep.status().message();
      EXPECT_EQ(rep.value().endpoint.cells_drained, 9u);
    }
  });
  universe.respawn(1);

  // Both rings start epoch 2 empty: no stale envelope is left to fence,
  // and the respawned sender's message finds all eight cells free.
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      check_ok(mpi.send(0, 4, fresh));
    } else {
      std::vector<std::byte> buf(fresh.size());
      const auto r = mpi.recv_for(1, 4, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, fresh);
    }
  });

  EXPECT_TRUE(universe.failed_ranks().empty());
  EXPECT_EQ(universe.recovery_stats().ring_cells_tombstoned, 9u);
  EXPECT_EQ(universe.recovery_stats().stale_fenced, 0u);
}

TEST(RendezvousFault, SenderQueuedOnArenaLockKeepsBeating) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  cfg.nodes = 3;
  cfg.failure_lease = 25ms;
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(15'000, 65);
  std::atomic<std::uint64_t> large_attempts{0};

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    if (ctx.rank() == 0) {
      // Hold the arena lock across the barrier for three leases: rank 1's
      // bulk-ring create queues behind it, and the release comes well
      // inside the create's 100 ms lock deadline.
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
      large_attempts = stats.rendezvous_sent + stats.rendezvous_fallbacks;
      return;
    }
    std::vector<std::byte> buf(payload.size());
    const auto r = mpi.recv_for(1, 5, buf, 10000ms);
    ASSERT_TRUE(r.is_ok()) << r.status().message();
    EXPECT_EQ(buf, payload);
  });

  EXPECT_EQ(large_attempts.load(), 1u);
  EXPECT_TRUE(universe.failed_ranks().empty());
}

TEST(RendezvousFault, LaterEpochLargeMessageNeedsNoArenaLock) {
  runtime::UniverseConfig cfg = rdvz_fault_config();
  cfg.nodes = 3;
  runtime::Universe universe(cfg);
  const std::vector<std::byte> payload = patterned(15'000, 74);
  const auto transfer = [&](Session& mpi, int rank) {
    if (rank == 1) {
      check_ok(mpi.send_for(2, 5, payload, 10000ms));
      EXPECT_EQ(mpi.endpoint().stats().rendezvous_sent, 1u);
    } else if (rank == 2) {
      std::vector<std::byte> buf(payload.size());
      const auto r = mpi.recv_for(1, 5, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, payload);
    }
  };

  // Epoch 1 creates rank 1's bulk ring toward rank 2.
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    transfer(mpi, ctx.rank());
  });

  // Epoch 2: rank 0 holds the arena lock until the message is in, or for
  // 5 s at most. The sender finds its ring and the receiver finds it at
  // the envelope, both by lock-free lookup, so neither waits for the lock.
  std::atomic<bool> received{false};
  std::atomic<bool> received_under_lock{false};
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    if (ctx.rank() == 0) {
      arena::Arena& arena = ctx.arena();
      arena.shm_lock().lock(ctx.acc(), arena.participant());
      ctx.barrier();
      const auto deadline = std::chrono::steady_clock::now() + 5s;
      while (!received && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
      }
      received_under_lock = received.load();
      arena.shm_lock().unlock(ctx.acc(), arena.participant());
      return;
    }
    ctx.barrier();
    transfer(mpi, ctx.rank());
    if (ctx.rank() == 2) {
      received = true;
    }
  });

  EXPECT_TRUE(received_under_lock.load());
  EXPECT_TRUE(universe.failed_ranks().empty());
}

}  // namespace
}  // namespace cmpi
