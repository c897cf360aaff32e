// Fan-in soak × faults: 16 senders stream mixed eager/rendezvous
// messages at one receiver while a seeded victim sender crashes
// mid-plan. The progress engine's bookkeeping (per-peer drain state,
// match queues) must neither lose nor duplicate a message:
//
//  * every survivor's full plan arrives intact and in tag order,
//  * the victim's delivered messages form an exact prefix of its plan
//    (published cells arrive; the cell it died staging does not), and
//  * nothing is left parked in the receiver's unexpected queue.
//
// KillMidBatch aims the crash between staging a cell and publishing its
// batch: the unpublished batch must die with the sender, whole.
//
// The CI fault matrix reruns this binary under several CMPI_FAULT_SEED
// values (the label regex selects *fault_test* binaries).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cmpi.hpp"
#include "cxlsim/fault_injector.hpp"
#include "p2p/endpoint.hpp"
#include "runtime/universe.hpp"

namespace cmpi {
namespace {

using namespace std::chrono_literals;

constexpr int kSenders = 16;
constexpr int kReceiver = kSenders;
constexpr int kPerSender = 8;
constexpr int kDoneTag = 200;

runtime::UniverseConfig fanin_config() {
  runtime::UniverseConfig cfg;
  cfg.nodes = kSenders + 1;
  cfg.ranks_per_node = 1;
  cfg.pool_size = 128_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  cfg.cell_payload = 4_KiB;  // rendezvous threshold defaults to this
  cfg.ring_cells = 8;
  cfg.failure_lease = 50ms;
  return cfg;
}

/// Message size for (sender, index): straddles the rendezvous threshold
/// so the fan-in mixes the eager chunked path and the one-copy path.
std::size_t msg_size(int sender, int k) {
  constexpr std::size_t kSizes[] = {64, 2_KiB, 12_KiB, 512};
  return kSizes[static_cast<std::size_t>(sender + k) % 4];
}

std::uint64_t fuzz_seed(std::uint64_t param) {
  if (const char* env = std::getenv("CMPI_FAULT_SEED")) {
    return param + std::strtoull(env, nullptr, 10);
  }
  return param;
}

std::vector<std::byte> payload_for(std::uint64_t seed, int sender, int k) {
  std::vector<std::byte> data(msg_size(sender, k));
  Rng rng(seed ^ (static_cast<std::uint64_t>(sender) << 32) ^
          static_cast<std::uint64_t>(k));
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.next_below(256));
  }
  return data;
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

class FaninFault : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FaninFault, ::testing::Values(7u, 1234u));

TEST_P(FaninFault, SeededSenderCrashLosesNothingAndClearsDoorbell) {
  const std::uint64_t seed = fuzz_seed(GetParam());
  Rng rng(seed);
  const int victim =
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(kSenders)));
  // Early enough that eager chunks remain in the victim's plan: every
  // sender's first four messages include at least three eager ones.
  const std::uint64_t crash_occurrence = 1 + rng.next_below(3);

  runtime::UniverseConfig cfg = fanin_config();
  cfg.fault_plan.crash_at_sync.push_back({.rank = victim,
                                          .point = "p2p-chunk-staged",
                                          .occurrence = crash_occurrence});
  runtime::Universe universe(cfg);
  std::atomic<int> victim_delivered{-1};

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const int me = ctx.rank();
    ctx.barrier();
    if (me == victim) {
      for (int k = 0; k < kPerSender; ++k) {
        (void)mpi.send(kReceiver, k, payload_for(seed, me, k));
      }
      FAIL() << "victim " << victim << " outlived its crash schedule";
      return;
    }
    if (me != kReceiver) {
      // Deadline sends heartbeat while they wait: a plain send stalled by
      // host load past the lease would read as a death to the receiver.
      for (int k = 0; k < kPerSender; ++k) {
        check_ok(
            mpi.send_for(kReceiver, k, payload_for(seed, me, k), 30000ms));
      }
      // Stay alive (heartbeating) until the receiver has drained and
      // audited everything — an early exit would read as a failure.
      std::byte done{};
      check_ok(mpi.recv_for(kReceiver, kDoneTag, {&done, 1}, 30000ms)
                   .status());
      return;
    }
    // Receiver: every survivor's plan must arrive complete, in tag
    // order, byte-exact.
    for (int s = 0; s < kSenders; ++s) {
      if (s == victim) {
        continue;
      }
      for (int k = 0; k < kPerSender; ++k) {
        const auto want = payload_for(seed, s, k);
        std::vector<std::byte> buf(want.size());
        const auto r = mpi.recv_for(s, k, buf, 10000ms);
        ASSERT_TRUE(r.is_ok())
            << "survivor " << s << " message " << k << ": "
            << r.status().message();
        ASSERT_EQ(r.value().bytes, want.size());
        ASSERT_EQ(buf, want) << "survivor " << s << " message " << k;
      }
    }
    // The victim's delivered messages form an exact prefix of its plan.
    int delivered = 0;
    for (int k = 0; k < kPerSender; ++k) {
      const auto want = payload_for(seed, victim, k);
      std::vector<std::byte> buf(want.size());
      const auto r = mpi.recv_for(victim, k, buf, 2000ms);
      if (!r.is_ok()) {
        break;
      }
      ASSERT_EQ(buf, want) << "victim message " << k << " corrupted";
      ++delivered;
    }
    victim_delivered = delivered;
    // No gaps past the prefix: a message AFTER the first missing one
    // arriving would mean the FIFO/drain bookkeeping resurrected or
    // reordered a cell.
    for (int k = delivered + 1; k < kPerSender; ++k) {
      std::vector<std::byte> buf(msg_size(victim, k));
      EXPECT_FALSE(mpi.recv_for(victim, k, buf, 150ms).is_ok())
          << "victim message " << k << " arrived after the prefix ended";
    }
    // Nothing parked: a duplicate delivery would strand a message in the
    // unexpected queue (its tag can never match again), and a receive the
    // deadline cancelled must not stay pinned as matched.
    EXPECT_EQ(mpi.endpoint().debug_queue_sizes().unexpected, 0u);
    EXPECT_EQ(mpi.endpoint().debug_queue_sizes().matched_keepalive, 0u);
    ASSERT_TRUE(wait_for_crash(ctx, victim));
    const auto rep = mpi.scavenge(victim);
    ASSERT_TRUE(rep.is_ok()) << rep.status().message();
    ASSERT_TRUE(rep.value().pool.performed);
    for (int s = 0; s < kSenders; ++s) {
      if (s != victim) {
        std::byte done{0x1};
        check_ok(mpi.send(s, kDoneTag, {&done, 1}));
      }
    }
  });

  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{victim}));
  EXPECT_GE(victim_delivered.load(), 0);
  EXPECT_LT(victim_delivered.load(), kPerSender)
      << "the scripted crash fired too late to test anything";
}

class KillMidBatch : public ::testing::TestWithParam<std::uint64_t> {};

// Crash at the Nth "p2p-chunk-staged": 1 is the blocking send, 2..25 the
// burst. The burst's first batch publishes at 17, so 2 and 10 die inside
// it, 17 right after it, 18 and 20 inside the second.
INSTANTIATE_TEST_SUITE_P(Occurrences, KillMidBatch,
                         ::testing::Values(2u, 10u, 17u, 18u, 20u));

TEST_P(KillMidBatch, UnpublishedBatchDiesWithTheSender) {
  constexpr int kBurst = 24;
  constexpr std::uint64_t kBatch = p2p::Endpoint::kPublishBatchCells;
  const std::uint64_t occurrence = GetParam();
  runtime::UniverseConfig cfg = fanin_config();
  cfg.nodes = 2;
  cfg.pool_size = 32_MiB;
  cfg.cell_payload = 256;  // one 64 B message per cell
  cfg.ring_cells = 64;     // never full: only batching decides publication
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = 0, .point = "p2p-chunk-staged", .occurrence = occurrence});
  runtime::Universe universe(cfg);
  std::vector<std::vector<std::byte>> sent;
  for (int k = 0; k <= kBurst; ++k) {
    sent.emplace_back(64, static_cast<std::byte>(k + 1));
  }

  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    if (ctx.rank() == 0) {
      check_ok(mpi.send(1, 3, sent[0]));
      std::vector<p2p::RequestPtr> reqs;
      for (int k = 1; k <= kBurst; ++k) {
        reqs.push_back(mpi.isend(1, 3, sent[static_cast<std::size_t>(k)]));
      }
      FAIL() << "victim outlived its crash schedule";
      return;
    }
    ASSERT_TRUE(wait_for_crash(ctx, 0));
    // The blocking send plus every whole batch the burst published, in
    // order; the receive past that prefix finds the victim dead.
    const std::uint64_t prefix = 1 + kBatch * ((occurrence - 1) / kBatch);
    for (std::uint64_t k = 0; k <= prefix; ++k) {
      std::vector<std::byte> buf(64);
      const auto r = mpi.recv_for(0, 3, buf, 10000ms);
      if (k == prefix) {
        EXPECT_EQ(r.status().code(), ErrorCode::kPeerFailed)
            << "message " << k << " arrived past the published prefix";
      } else {
        ASSERT_TRUE(r.is_ok()) << "message " << k << ": "
                               << r.status().message();
        ASSERT_EQ(buf, sent[k]) << "message " << k << " out of order";
      }
    }
    EXPECT_EQ(mpi.endpoint().debug_queue_sizes().unexpected, 0u);
    const auto rep = mpi.scavenge(0);
    ASSERT_TRUE(rep.is_ok()) << rep.status().message();
    EXPECT_EQ(rep.value().endpoint.cells_drained, 0u);
    EXPECT_EQ(rep.value().endpoint.cells_torn, 0u);
  });
  EXPECT_EQ(universe.failed_ranks(), (std::vector<int>{0}));
}

}  // namespace
}  // namespace cmpi
