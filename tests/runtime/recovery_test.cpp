// Crash → scavenge → respawn: the pool-recovery acceptance suite.
//
//   * A rank killed mid-send leaves arena objects, half-staged ring cells
//     and (possibly) a standing bakery ticket in the pool. Survivors run
//     Session::scavenge: 100% of the corpse's arena bytes return to the
//     free list, its inbound cells are tombstoned, and the on-pool ledger
//     makes the pool-global half exactly-once across survivors.
//   * Universe::respawn restarts the rank under a bumped incarnation; the
//     stale cells its previous life published are fenced at the endpoint
//     match path and never delivered.
//   * Payload integrity end to end: a poisoned or bit-flipped cell fails
//     the per-cell CRC (or surfaces a media error), the receiver NAKs, the
//     sender retransmits from its staging copy, and the receive completes
//     clean — with bounded retries surfacing kDataPoisoned when the damage
//     is persistent.
//   * A dead host's dirty cache lines are DROPPED, never written back.
//
// The seed-parameterized fuzz at the bottom runs the full
// crash → scavenge → respawn cycle under random victims/schedules; CI's
// fault matrix adds CMPI_FAULT_SEED on top of the built-in seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cmpi.hpp"
#include "cxlsim/fault_injector.hpp"
#include "queue/spsc_ring.hpp"
#include "runtime/pool_recovery.hpp"
#include "runtime/universe.hpp"

namespace cmpi {
namespace {

using namespace std::chrono_literals;

runtime::UniverseConfig recovery_config(unsigned nodes = 2,
                                        unsigned per_node = 1) {
  runtime::UniverseConfig cfg;
  cfg.nodes = nodes;
  cfg.ranks_per_node = per_node;
  cfg.pool_size = 32_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  cfg.cell_payload = 4_KiB;  // multi-chunk messages at modest sizes
  cfg.failure_lease = 50ms;  // deadlines below are 100x longer
  return cfg;
}

/// Spin (wall clock) until the injector records `rank`'s scripted crash.
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

/// Cells ever published into the ring at `ring_base`: a producer view
/// attached now resumes after the last of them, which attach finds by
/// scanning the cells' generations from the published head.
std::uint64_t published_cells(runtime::RankCtx& ctx, std::uint64_t ring_base) {
  return check_ok(queue::SpscRing::attach(ctx.acc(), ring_base)).tail_index();
}

// ---------------------------------------------------------------------
// Scavenge: arena bytes, ring cells, exactly-once ledger.

TEST(PoolRecoveryScavenge, MidSendCrashSurvivorsReclaimEverything) {
  runtime::UniverseConfig cfg = recovery_config(2, 2);
  // This test scripts its crash at eager chunk boundaries; keep message B
  // on the chunked path (the rendezvous-path crashes have their own suite
  // in rendezvous_fault_test).
  cfg.rendezvous_threshold = 64_KiB;
  cfg.cell_payload = 8_KiB;  // kPublishBatchBytes = two chunks
  // Rank 3 dies after staging chunk 3 of its second message: message A
  // (1 chunk, to rank 0) is durable, message B (4 chunks, to rank 1) is
  // forever partial — chunks 1-2 published as one batch, chunk 3 not.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 3, .point = "p2p-chunk-staged", .occurrence = 4});
  runtime::Universe universe(cfg);

  constexpr int kVictim = 3;
  const std::vector<std::byte> msg_a = patterned(256, 7);
  const std::vector<std::byte> msg_b = patterned(30000, 8);
  std::atomic<std::uint64_t> free_before{0};

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      free_before = ctx.arena().free_bytes();
    }
    ctx.barrier();
    if (ctx.rank() == kVictim) {
      check_ok(ctx.arena().create("victim_a", 4096).status());
      check_ok(ctx.arena().create("victim_b", 8192).status());
    }
    ctx.barrier();

    switch (ctx.rank()) {
      case kVictim: {
        check_ok(mpi.send(0, 0, msg_a));
        (void)mpi.send(1, 1, msg_b);  // crashes at chunk 3
        FAIL() << "scripted mid-send crash did not fire";
        break;
      }
      case 0: {
        // The fully-staged message survives the sender's death.
        std::vector<std::byte> buf(msg_a.size());
        const auto r = mpi.recv_for(kVictim, 0, buf, 10000ms);
        ASSERT_TRUE(r.is_ok()) << r.status().message();
        EXPECT_EQ(buf, msg_a);
        ASSERT_TRUE(wait_for_crash(ctx, kVictim));
        // Wait for rank 1's scavenge, then run our own: the pool-global
        // half must observe the ledger and do nothing (exactly-once).
        std::byte token{};
        check_ok(mpi.recv_for(1, 5, {&token, 1}, 10000ms).status());
        const auto again = mpi.scavenge(kVictim);
        ASSERT_TRUE(again.is_ok()) << again.status().message();
        EXPECT_FALSE(again.value().pool.performed);
        EXPECT_EQ(again.value().pool.epoch, 1u);
        break;
      }
      case 1: {
        ASSERT_TRUE(wait_for_crash(ctx, kVictim));
        const auto rep = mpi.scavenge(kVictim);
        ASSERT_TRUE(rep.is_ok()) << rep.status().message();
        const Session::RecoveryReport& report = rep.value();
        EXPECT_TRUE(report.pool.performed);
        EXPECT_EQ(report.pool.epoch, 1u);
        // 100% of the corpse's arena state: both owned objects, all bytes.
        EXPECT_EQ(report.pool.arena_slots_reclaimed, 2u);
        EXPECT_EQ(report.pool.arena_bytes_reclaimed, 4096u + 8192u);
        EXPECT_EQ(ctx.arena().free_bytes(), free_before.load());
        // The two published-but-undeliverable chunks of message B.
        EXPECT_EQ(report.endpoint.cells_drained, 2u);
        EXPECT_EQ(report.endpoint.cells_torn, 0u);
        std::byte token{0x1};
        check_ok(mpi.send(0, 5, {&token, 1}));
        break;
      }
      default:
        ASSERT_TRUE(wait_for_crash(ctx, kVictim));
        break;
    }
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{kVictim}));
  const runtime::RecoveryStats stats = universe.recovery_stats();
  EXPECT_EQ(stats.scavenges, 1u);
  EXPECT_EQ(stats.ring_cells_tombstoned, 2u);
}

TEST(PoolRecoveryScavenge, DeadLockHolderTicketIsBroken) {
  runtime::UniverseConfig cfg = recovery_config();
  // Rank 1's first bakery acquisition is the arena lock for its attach
  // fsck; the second is the arena lock inside its create(): it dies
  // holding the lock, ticket standing.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "lock-acquired", .occurrence = 2});
  runtime::Universe universe(cfg);

  universe.run([&](runtime::RankCtx& ctx) {
    ctx.barrier();
    if (ctx.rank() == 1) {
      (void)ctx.arena().create("doomed", 4096);
      FAIL() << "scripted crash inside create() did not fire";
      return;
    }
    ASSERT_TRUE(wait_for_crash(ctx, 1));
    runtime::PoolRecovery recovery(ctx);
    const auto rep = recovery.scavenge(1, 5000ms);
    ASSERT_TRUE(rep.is_ok()) << rep.status().message();
    EXPECT_TRUE(rep.value().performed);
    EXPECT_EQ(rep.value().lock_tickets_broken, 1u);
    // Death fired before the slot was written: nothing to free.
    EXPECT_EQ(rep.value().arena_slots_reclaimed, 0u);
    // The lock is usable again — a plain create must go straight through.
    check_ok(ctx.arena().create("after_scavenge", 64).status());
    // Exactly-once, observed from the same survivor.
    const auto again = recovery.scavenge(1, 5000ms);
    ASSERT_TRUE(again.is_ok()) << again.status().message();
    EXPECT_FALSE(again.value().performed);
    EXPECT_EQ(recovery.scavenged_through(1), 1u);
  });

  EXPECT_EQ(universe.recovery_stats().scavenges, 1u);
}

TEST(PoolRecoveryScavenge, SlotWalkBeatsWhileHoldingTheLock) {
  // The scavenger walks the whole slot table under the arena lock, and a
  // survivor waiting on that lock convicts a holder whose heartbeat is
  // silent for a lease. With a detector clock that moves a lease on every
  // read, each beat publishes, so the walk's beats show up one for one.
  runtime::UniverseConfig cfg = recovery_config();
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "lock-acquired", .occurrence = 2});
  runtime::Universe universe(cfg);

  universe.run([&](runtime::RankCtx& ctx) {
    ctx.barrier();
    if (ctx.rank() == 1) {
      (void)ctx.arena().create("doomed", 4096);
      FAIL() << "scripted crash inside create() did not fire";
      return;
    }
    ASSERT_TRUE(wait_for_crash(ctx, 1));
    ctx.failure_detector().debug_set_clock(
        [at = std::chrono::steady_clock::time_point{},
         lease = cfg.failure_lease]() mutable { return at += lease; });
    const std::uint64_t heartbeat =
        universe.heartbeat_base() +
        static_cast<std::uint64_t>(ctx.rank()) * kCacheLineSize;
    const std::uint64_t before = ctx.acc().peek_flag(heartbeat).value;
    runtime::PoolRecovery recovery(ctx);
    const auto rep = recovery.scavenge(1, 5000ms);
    ASSERT_TRUE(rep.is_ok()) << rep.status().message();
    EXPECT_TRUE(rep.value().performed);
    const std::uint64_t beats = ctx.acc().peek_flag(heartbeat).value - before;
    EXPECT_GE(beats, ctx.arena().index().total_slots() /
                         arena::Arena::kScavengeBeatSlots);
  });
}

TEST(PoolRecoveryScavenge, RecvDrainsADeadSendersRingBeforeGivingUp) {
  // Rank 1 publishes 20 one-cell messages into a 32-cell ring and falls
  // silent. The receiver convicts it first (the verdict is sticky), then
  // receives the 20th message. One progress() pass reaps only
  // kReapBatchCells (16) of the cells, so the receive sees a dead peer
  // while its message still sits in the ring: wait_for must drain the
  // ring dry before giving up on the receive.
  constexpr int kMessages = 20;
  static_assert(kMessages > static_cast<int>(p2p::Endpoint::kReapBatchCells));
  runtime::UniverseConfig cfg = recovery_config();
  cfg.ring_cells = 32;
  cfg.failure_lease = 20ms;
  runtime::Universe universe(cfg);
  std::atomic<bool> sent{false};
  std::atomic<bool> done{false};

  universe.run([&](runtime::RankCtx& ctx) {
    p2p::Endpoint ep = p2p::Endpoint::create(ctx);
    if (ctx.rank() == 1) {
      for (int k = 0; k < kMessages; ++k) {
        check_ok(ep.send(0, k, patterned(256, static_cast<std::uint64_t>(k))));
      }
      sent = true;
      // Silent: no heartbeat, no send, until the receiver is done.
      while (!done.load()) {
        std::this_thread::sleep_for(1ms);
      }
      return;
    }
    while (!sent.load()) {
      std::this_thread::yield();
    }
    while (!ctx.failure_detector().dead(ctx.acc(), 1)) {
      std::this_thread::sleep_for(1ms);
    }
    std::vector<std::byte> buf(256);
    const auto r = ep.recv_for(1, kMessages - 1, buf, 10000ms);
    done = true;
    ASSERT_TRUE(r.is_ok()) << r.status().message();
    EXPECT_EQ(buf, patterned(256, kMessages - 1));
  });
}

// ---------------------------------------------------------------------
// Respawn: incarnation-fenced rejoin.

TEST(PoolRecoveryRespawn, StaleCellsAreFencedAndTheRankRejoins) {
  runtime::UniverseConfig cfg = recovery_config();
  // Crash scripted at eager chunk boundaries (see the rendezvous fault
  // suite for the large-message analogue).
  cfg.rendezvous_threshold = 64_KiB;
  cfg.cell_payload = 8_KiB;  // kPublishBatchBytes = two chunks
  // Epoch 1: rank 1 fully stages message A (1 chunk), dies after chunk 3
  // of message B (chunks 1-2 published as one batch, chunk 3 not) — three
  // incarnation-0 cells sit unconsumed in the ring.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "p2p-chunk-staged", .occurrence = 4});
  runtime::Universe universe(cfg);

  const std::vector<std::byte> msg_a = patterned(300, 21);
  const std::vector<std::byte> msg_b = patterned(30000, 22);
  const std::vector<std::byte> msg_c = patterned(500, 23);
  const std::vector<std::byte> msg_d = patterned(64, 24);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      check_ok(mpi.send(0, 0, msg_a));
      (void)mpi.send(0, 1, msg_b);  // crashes at chunk 3
      FAIL() << "scripted mid-send crash did not fire";
    } else {
      // Deliberately no scavenge and no receive: the stale cells stay in
      // the ring so the NEXT epoch has to fence them.
      ASSERT_TRUE(wait_for_crash(ctx, 1));
    }
  });
  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));

  universe.respawn(1);
  EXPECT_EQ(universe.incarnation(1), 1u);
  EXPECT_TRUE(universe.failed_ranks().empty());

  // Epoch 2: the respawned incarnation talks to the old survivor through
  // the same rings. The survivor's first drain walks message A (whole)
  // and message B (partial) — both stamped incarnation 0 — and discards
  // them; message C, stamped incarnation 1, is delivered intact.
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 1) {
      check_ok(mpi.send(0, 2, msg_c));
      std::vector<std::byte> buf(msg_d.size());
      const auto r = mpi.recv_for(0, 3, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, msg_d);
    } else {
      std::vector<std::byte> buf(msg_c.size());
      const auto r = mpi.recv_for(1, 2, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, msg_c);
      EXPECT_EQ(r.value().bytes, msg_c.size());
      check_ok(mpi.send(1, 3, msg_d));
    }
  });

  const runtime::RecoveryStats stats = universe.recovery_stats();
  EXPECT_EQ(stats.stale_fenced, 2u);  // message A + message B (partial)
  EXPECT_EQ(stats.scavenges, 0u);
  EXPECT_TRUE(universe.failed_ranks().empty());
}

// ---------------------------------------------------------------------
// End-to-end payload integrity: NAK + retransmission.

TEST(PayloadIntegrity, PoisonedCellIsRetransmittedTransparently) {
  runtime::UniverseConfig cfg = recovery_config();
  // Install the injector with a crash that can never fire; the poison is
  // added at runtime once the ring addresses are known.
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 0, .point = "recovery-test-never", .occurrence = 1});
  runtime::Universe universe(cfg);

  const std::vector<std::byte> payload = patterned(1000, 31);
  const std::vector<std::byte> reply = patterned(8, 32);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    if (ctx.rank() == 0) {
      // Poison the first cell's payload in the rank1→rank0 ring: the
      // first delivery attempt surfaces a media error, the retransmission
      // lands in the next (clean) cell.
      const std::uint64_t cell0_payload =
          mpi.endpoint().debug_ring_base(/*receiver=*/0, /*sender=*/1) +
          queue::SpscRing::kCellsOffset + sizeof(queue::CellHeader);
      ctx.device().fault_injector()->poison(cell0_payload, 64);
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      std::vector<std::byte> buf(payload.size());
      const auto r = mpi.recv_for(1, 3, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, payload);
      EXPECT_EQ(r.value().bytes, payload.size());
      // The NAK un-matched the receive and the retransmission completed
      // it: neither may leave it pinned.
      EXPECT_EQ(mpi.endpoint().debug_queue_sizes().matched_keepalive, 0u);
      check_ok(mpi.send(1, 4, reply));
    } else {
      check_ok(mpi.send(0, 3, payload));
      // Keep pumping progress so the NAK is serviced and the staging copy
      // is resent; the reply only arrives after the clean delivery.
      std::vector<std::byte> buf(reply.size());
      const auto r = mpi.recv_for(0, 4, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, reply);
    }
  });

  const runtime::RecoveryStats stats = universe.recovery_stats();
  EXPECT_EQ(stats.naks_sent, 1u);
  EXPECT_EQ(stats.retransmits, 1u);
  EXPECT_EQ(stats.retransmit_rejects, 0u);
  EXPECT_EQ(stats.crc_failures, 0u);  // media error, not bit rot
  EXPECT_TRUE(universe.failed_ranks().empty());
}

TEST(PayloadIntegrity, BitFlippedCellFailsCrcAndIsRetransmitted) {
  // No fault plan at all: the CRC path is always armed. The receiver
  // flips bytes of the staged payload directly in the pool (bit rot /
  // torn write between staging and consumption).
  runtime::Universe universe(recovery_config());
  const std::vector<std::byte> payload = patterned(1000, 41);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 0) {
      const std::uint64_t ring_base =
          mpi.endpoint().debug_ring_base(/*receiver=*/0, /*sender=*/1);
      // Wait (wall clock) until the sender has published cell 0...
      const auto deadline = std::chrono::steady_clock::now() + 10s;
      while (published_cells(ctx, ring_base) == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "sender never staged the message";
        std::this_thread::sleep_for(1ms);
      }
      // ...then clobber the first 8 payload bytes before consuming them.
      ctx.acc().nt_store_u64(ring_base + queue::SpscRing::kCellsOffset +
                                 sizeof(queue::CellHeader),
                             0xDEADBEEFCAFEF00DULL);
      std::vector<std::byte> buf(payload.size());
      const auto r = mpi.recv_for(1, 3, buf, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(buf, payload);
      std::byte token{0x7};
      check_ok(mpi.send(1, 4, {&token, 1}));
    } else {
      check_ok(mpi.send(0, 3, payload));
      std::byte token{};
      check_ok(mpi.recv_for(0, 4, {&token, 1}, 10000ms).status());
    }
  });

  const runtime::RecoveryStats stats = universe.recovery_stats();
  EXPECT_EQ(stats.crc_failures, 1u);
  EXPECT_EQ(stats.naks_sent, 1u);
  EXPECT_EQ(stats.retransmits, 1u);
}

TEST(PayloadIntegrity, PersistentDamageExhaustsRetriesAndSurfaces) {
  runtime::UniverseConfig cfg = recovery_config();
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 0, .point = "recovery-test-never", .occurrence = 1});
  runtime::Universe universe(cfg);

  const std::vector<std::byte> payload = patterned(1000, 51);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    if (ctx.rank() == 0) {
      // Poison EVERY cell of the inbound ring: the original delivery and
      // all retransmissions are damaged; the bounded retry budget must
      // surface kDataPoisoned instead of looping forever.
      const std::uint64_t ring_base =
          mpi.endpoint().debug_ring_base(/*receiver=*/0, /*sender=*/1);
      const std::size_t cells_bytes =
          ctx.config().ring_cells *
          (sizeof(queue::CellHeader) + mpi.endpoint().cell_payload());
      ctx.device().fault_injector()->poison(
          ring_base + queue::SpscRing::kCellsOffset, cells_bytes);
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      std::vector<std::byte> buf(payload.size());
      const auto r = mpi.recv_for(1, 3, buf, 10000ms);
      EXPECT_EQ(r.status().code(), ErrorCode::kDataPoisoned)
          << r.status().message();
      std::byte token{0x3};
      check_ok(mpi.send(1, 4, {&token, 1}));
    } else {
      check_ok(mpi.send(0, 3, payload));
      std::byte token{};
      check_ok(mpi.recv_for(0, 4, {&token, 1}, 10000ms).status());
    }
  });

  const runtime::RecoveryStats stats = universe.recovery_stats();
  EXPECT_EQ(stats.naks_sent,
            static_cast<std::uint64_t>(p2p::Endpoint::kMaxRetransmits));
  EXPECT_EQ(stats.retransmits,
            static_cast<std::uint64_t>(p2p::Endpoint::kMaxRetransmits));
  EXPECT_EQ(stats.retransmit_rejects, 0u);
}

/// Sender A (rank 1) publishes `burst` one-cell messages of `bytes` bytes
/// before the receiver drains; poison sits on `line` of A's cell
/// `poisoned`, one of the last Endpoint::kRetransmitStagingDepth (A still
/// holds its staging copy). The receiver reads A's cells ahead of
/// consuming them: a gathered peek reads up to SpscRing::kGatherCells at
/// once, and a drain that reaps kReapBatchCells peeks A's next cells
/// before it visits sender B (rank 2). The poison belongs to A's seq
/// `poisoned` wherever it was read: exactly one NAK and one intact
/// retransmission, both A's, B's clean message goes through untouched,
/// and the coherence checker records nothing.
void expect_read_ahead_poison_charged_to_its_cell(int burst,
                                                  std::uint32_t poisoned,
                                                  std::uint64_t line,
                                                  std::size_t bytes) {
  // A sends `burst` messages; B sends one more.
  runtime::UniverseConfig cfg = recovery_config(3);
  cfg.ring_cells = 32;  // A's burst and its retransmission fit
  cfg.coherence_check = runtime::CoherenceChecking::kEnabled;
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 0, .point = "recovery-test-never", .occurrence = 1});
  runtime::Universe universe(cfg);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const auto ring = [&](int sender) {
      return mpi.endpoint().debug_ring_base(0, sender);
    };
    const std::uint64_t stride =
        sizeof(queue::CellHeader) + mpi.endpoint().cell_payload();
    const auto cell_a = [&](std::uint64_t index) {
      return ring(1) + queue::SpscRing::kCellsOffset + index * stride;
    };
    if (ctx.rank() == 0) {
      ctx.device().fault_injector()->poison(cell_a(poisoned) + line, 64);
    }
    ctx.barrier();
    std::vector<std::vector<std::byte>> sent(burst + 1);
    std::vector<std::vector<std::byte>> got(burst + 1,
                                            std::vector<std::byte>(bytes));
    std::vector<p2p::RequestPtr> reqs;
    for (int k = 0; k <= burst; ++k) {
      const int from = k < burst ? 1 : 2;
      const auto i = static_cast<std::size_t>(k);
      sent[i] = patterned(bytes, 100 + i);
      if (ctx.rank() == from) {
        reqs.push_back(mpi.isend(0, k, sent[i]));
      } else if (ctx.rank() == 0) {
        reqs.push_back(mpi.irecv(from, k, got[i]));
      }
    }
    if (ctx.rank() != 0) {
      check_ok(mpi.wait_all(reqs));
    }
    ctx.barrier();  // everything is published before the receiver drains
    if (ctx.rank() != 0) {
      std::byte token{};  // keep progressing: a NAK must be serviced
      check_ok(mpi.recv_for(0, 99, {&token, 1}, 10000ms).status());
      return;
    }
    for (const p2p::RequestPtr& req : reqs) {
      const Status st = mpi.endpoint().wait_for(req, 10000ms);
      EXPECT_TRUE(st.is_ok()) << st.message();
    }
    EXPECT_EQ(got, sent);
    // Cells each sender ever published toward us: B's one; A's burst plus
    // a retransmission, which must be of seq `poisoned`.
    const auto tail = [&](int sender) {
      return published_cells(ctx, ring(sender));
    };
    EXPECT_EQ(tail(2), 1u) << "B's clean message was NAKed";
    EXPECT_EQ(tail(1), burst + 1u)
        << "A's seq " << poisoned << " was never NAKed";
    queue::CellHeader resent{};
    ctx.acc().nt_load(cell_a(burst), {reinterpret_cast<std::byte*>(&resent),
                                       sizeof(resent)});
    EXPECT_NE(resent.flags & queue::kRetransmit, 0u);
    EXPECT_EQ(resent.msg_seq, poisoned);
    for (const int sender : {1, 2}) {
      std::byte token{0x1};
      check_ok(mpi.send(sender, 99, {&token, 1}));
    }
    EXPECT_EQ(mpi.coherence_violations(), 0u);
  });

  const runtime::RecoveryStats stats = universe.recovery_stats();
  EXPECT_EQ(stats.naks_sent, 1u);
  EXPECT_EQ(stats.retransmits, 1u);
  EXPECT_EQ(stats.crc_failures, 0u);  // media error, not bit rot
}

/// The cell past a reap batch, read before the drain visits B.
constexpr std::uint32_t kPastReapBatch = p2p::Endpoint::kReapBatchCells;
/// Cell 3 of a one-wave burst: the wave reads cells 0-7 at once, and cells
/// 0-2, dequeued after it, must not pick up cell 3's poison.
constexpr std::uint32_t kMidWave = 3;

TEST(PayloadIntegrity, ReadAheadPoisonedHeaderIsChargedToItsOwnCell) {
  expect_read_ahead_poison_charged_to_its_cell(20, kPastReapBatch, 0, 8);
}

TEST(PayloadIntegrity, ReadAheadPoisonedPayloadLineIsChargedToItsOwnCell) {
  expect_read_ahead_poison_charged_to_its_cell(
      20, kPastReapBatch, sizeof(queue::CellHeader), 8);
}

TEST(PayloadIntegrity, ReadAheadPoisonedHeaderMidWaveIsChargedToItsOwnCell) {
  expect_read_ahead_poison_charged_to_its_cell(
      static_cast<int>(queue::SpscRing::kGatherCells), kMidWave, 0, 8);
}

TEST(PayloadIntegrity,
     ReadAheadPoisonedPayloadLineMidWaveIsChargedToItsOwnCell) {
  expect_read_ahead_poison_charged_to_its_cell(
      static_cast<int>(queue::SpscRing::kGatherCells), kMidWave,
      sizeof(queue::CellHeader), 8);
}

TEST(PayloadIntegrity,
     PoisonedSecondPayloadLineOf512ByteCellIsChargedToItsOwnCell) {
  // A 512 B chunk's second payload line is read by its own dequeue's
  // wave, not by the gather: the wave raises the poison on that cell.
  expect_read_ahead_poison_charged_to_its_cell(
      static_cast<int>(queue::SpscRing::kGatherCells), kMidWave,
      sizeof(queue::CellHeader) + kCacheLineSize, 512);
}

TEST(PayloadIntegrity, SecondPoisonedCellStaysWithItsMessage) {
  // Sender A's (rank 1) three-cell message has media errors in its first
  // two cells. Both belong to A's message: one NAK, one retransmission,
  // and sender B's (rank 2) clean message that the receiver dequeues
  // afterwards goes through untouched.
  runtime::UniverseConfig cfg = recovery_config(3);
  cfg.rendezvous_threshold = 64_KiB;  // keep A's message on the cells
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 0, .point = "recovery-test-never", .occurrence = 1});
  runtime::Universe universe(cfg);
  const std::vector<std::byte> msg_a = patterned(3 * cfg.cell_payload, 61);
  const std::vector<std::byte> msg_b = patterned(8, 62);

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const auto ring = [&](int sender) {
      return mpi.endpoint().debug_ring_base(0, sender);
    };
    if (ctx.rank() == 0) {
      const std::uint64_t stride =
          sizeof(queue::CellHeader) + mpi.endpoint().cell_payload();
      for (const std::uint64_t cell : {0, 1}) {
        ctx.device().fault_injector()->poison(
            ring(1) + queue::SpscRing::kCellsOffset + cell * stride +
                sizeof(queue::CellHeader),
            64);
      }
    }
    ctx.barrier();
    if (ctx.rank() != 0) {
      check_ok(mpi.send(0, ctx.rank(), ctx.rank() == 1 ? msg_a : msg_b));
      ctx.barrier();  // both messages are published before any drain
      std::byte token{};  // keep progressing: A's NAK must be serviced
      check_ok(mpi.recv_for(0, 99, {&token, 1}, 10000ms).status());
      return;
    }
    std::vector<std::byte> got_a(msg_a.size());
    std::vector<std::byte> got_b(msg_b.size());
    const p2p::RequestPtr reqs[] = {mpi.irecv(1, 1, got_a),
                                    mpi.irecv(2, 2, got_b)};
    ctx.barrier();
    for (const p2p::RequestPtr& req : reqs) {
      const Status st = mpi.endpoint().wait_for(req, 10000ms);
      EXPECT_TRUE(st.is_ok()) << st.message();
    }
    EXPECT_EQ(got_a, msg_a);
    EXPECT_EQ(got_b, msg_b);
    EXPECT_EQ(published_cells(ctx, ring(2)), 1u)
        << "B's clean message was NAKed";
    for (const int sender : {1, 2}) {
      std::byte token{0x1};
      check_ok(mpi.send(sender, 99, {&token, 1}));
    }
  });

  const runtime::RecoveryStats stats = universe.recovery_stats();
  EXPECT_EQ(stats.naks_sent, 1u);
  EXPECT_EQ(stats.retransmits, 1u);
  EXPECT_EQ(stats.crc_failures, 0u);  // media error, not bit rot
}

// ---------------------------------------------------------------------
// S1 regression: a dead host's dirty lines are dropped, never flushed.

TEST(DeadNodeTeardown, DirtyLinesAreDiscardedNotWrittenBack) {
  runtime::UniverseConfig cfg = recovery_config();
  // The victim deliberately leaves an unflushed cached store behind; the
  // coherence checker would (correctly) flag that as a protocol gap, but
  // this test is about teardown semantics, not discipline.
  cfg.coherence_check = runtime::CoherenceChecking::kDisabled;
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 1, .point = "test-kill", .occurrence = 1});
  runtime::Universe universe(cfg);

  constexpr std::uint64_t kBaseline = 0x5151515151515151ULL;
  std::atomic<std::uint64_t> probe_offset{0};

  universe.run([&](runtime::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const auto obj = check_ok(ctx.arena().create(
          "dirty_probe", 4096, arena::Ownership::kShared));
      ctx.acc().nt_store_u64(obj.pool_offset, kBaseline);
      probe_offset = obj.pool_offset;
      ctx.barrier();
      ASSERT_TRUE(wait_for_crash(ctx, 1));
    } else {
      ctx.barrier();
      const auto obj = check_ok(ctx.arena().open("dirty_probe"));
      // Cached store, never flushed: the line is dirty ONLY in node 1's
      // private cache when the host dies.
      const std::vector<std::byte> sentinel(64, std::byte{0xEE});
      ctx.acc().store(obj.pool_offset, sentinel);
      ctx.acc().fault_sync_point("test-kill");
      FAIL() << "scripted crash did not fire";
    }
  });
  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{1}));

  // Read the pool through a fresh cache: had teardown written the dead
  // node's dirty lines back, the sentinel would have leaked into the
  // device. It must still hold the baseline.
  simtime::VClock clock;
  cxlsim::CacheSim cache(universe.device(), {.sets = 64, .ways = 4});
  cxlsim::Accessor acc(universe.device(), cache, clock);
  EXPECT_EQ(acc.nt_load_u64(probe_offset.load()), kBaseline)
      << "dead node's dirty line was written back into the pool";
}

// ---------------------------------------------------------------------
// Seeded crash → scavenge → respawn fuzz (CI fault matrix entry point).

std::uint64_t fuzz_seed(std::uint64_t param) {
  if (const char* env = std::getenv("CMPI_FAULT_SEED")) {
    return param + std::strtoull(env, nullptr, 10);
  }
  return param;
}

std::vector<std::byte> fuzz_payload(std::uint64_t seed, int rank, int tag,
                                    std::size_t size) {
  return patterned(size, seed ^ (static_cast<std::uint64_t>(rank) << 32) ^
                             static_cast<std::uint64_t>(tag));
}

class RecoveryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzz,
                         ::testing::Values(11u, 222u, 3333u));

TEST_P(RecoveryFuzz, CrashScavengeRespawnCycleSurvives) {
  const std::uint64_t seed = fuzz_seed(GetParam());
  Rng rng(seed);
  constexpr int kRanks = 4;
  const int victim =
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(kRanks)));
  // Single-chunk messages the victim streams before dying mid-plan.
  const int per_survivor = 1 + static_cast<int>(rng.next_below(3));
  const std::size_t msg_size = 1 + rng.next_below(4096);
  const int total_chunks = per_survivor * (kRanks - 1);
  const std::uint64_t crash_occurrence =
      1 + rng.next_below(static_cast<std::uint64_t>(total_chunks));

  runtime::UniverseConfig cfg = recovery_config(2, 2);
  cfg.pool_size = 64_MiB;
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = victim,
       .point = "p2p-chunk-staged",
       .occurrence = crash_occurrence});
  runtime::Universe universe(cfg);

  std::vector<int> survivors;
  for (int r = 0; r < kRanks; ++r) {
    if (r != victim) {
      survivors.push_back(r);
    }
  }
  std::atomic<int> performed_count{0};

  // Epoch 1: the victim dies at a seeded point of its send plan; every
  // survivor scavenges concurrently (the ledger keeps the pool-global
  // half exactly-once), then survivor ring traffic proves the pool works.
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const int me = ctx.rank();
    ctx.barrier();
    if (me == victim) {
      for (const int s : survivors) {
        for (int k = 0; k < per_survivor; ++k) {
          (void)mpi.send(s, k, fuzz_payload(seed, s, k, msg_size));
        }
      }
      FAIL() << "victim " << victim << " outlived its crash schedule";
      return;
    }
    ASSERT_TRUE(wait_for_crash(ctx, victim));
    const auto rep = mpi.scavenge(victim, 5000ms);
    ASSERT_TRUE(rep.is_ok()) << rep.status().message();
    if (rep.value().pool.performed) {
      performed_count.fetch_add(1);
    }
    // Survivor ring: each sends to the next survivor, receives from the
    // previous, through the deadline-aware paths (no hangs, no stale
    // leakage from the scavenged corpse rings).
    const std::size_t my_idx = static_cast<std::size_t>(
        std::find(survivors.begin(), survivors.end(), me) -
        survivors.begin());
    const int next = survivors[(my_idx + 1) % survivors.size()];
    const int prev =
        survivors[(my_idx + survivors.size() - 1) % survivors.size()];
    check_ok(mpi.send_for(next, 500, fuzz_payload(seed, me, 500, 2048),
                          10000ms));
    std::vector<std::byte> in(2048);
    const auto r = mpi.recv_for(prev, 500, in, 10000ms);
    ASSERT_TRUE(r.is_ok()) << r.status().message();
    EXPECT_EQ(in, fuzz_payload(seed, prev, 500, 2048));
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{victim}));
  EXPECT_EQ(performed_count.load(), 1);
  EXPECT_EQ(universe.recovery_stats().scavenges, 1u);

  // Epoch 2: respawn and full bidirectional traffic with every survivor.
  universe.respawn(victim);
  EXPECT_EQ(universe.incarnation(victim), 1u);
  EXPECT_TRUE(universe.failed_ranks().empty());

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const int me = ctx.rank();
    ctx.barrier();
    if (me == victim) {
      for (const int s : survivors) {
        check_ok(mpi.send_for(s, 600, fuzz_payload(seed, s, 600, msg_size),
                              10000ms));
      }
      for (const int s : survivors) {
        std::vector<std::byte> in(msg_size);
        const auto r = mpi.recv_for(s, 700, in, 10000ms);
        ASSERT_TRUE(r.is_ok()) << r.status().message();
        EXPECT_EQ(in, fuzz_payload(seed, s, 700, msg_size));
      }
    } else {
      std::vector<std::byte> in(msg_size);
      const auto r = mpi.recv_for(victim, 600, in, 10000ms);
      ASSERT_TRUE(r.is_ok()) << r.status().message();
      EXPECT_EQ(in, fuzz_payload(seed, me, 600, msg_size));
      check_ok(mpi.send_for(victim, 700,
                            fuzz_payload(seed, me, 700, msg_size), 10000ms));
    }
  });

  EXPECT_TRUE(universe.failed_ranks().empty());
  EXPECT_EQ(universe.recovery_stats().scavenges, 1u);
}

}  // namespace
}  // namespace cmpi
