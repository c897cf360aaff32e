// Regression test for unsynchronized stats reads: a monitoring thread
// concurrently polls Universe::recovery_stats(), copies a live
// Endpoint's CommStats, and takes registry snapshots (which walk every
// registered provider, including the endpoints' own) while rank threads
// stream messages. All counters are atomics and the provider walk is
// internally locked, so this must be TSan-clean; run under the TSan CI
// job (label runtime_test) it guards against reintroducing plain-field
// stats.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "p2p/endpoint.hpp"

namespace cmpi::runtime {
namespace {

TEST(StatsRace, ConcurrentStatsReadersSeeConsistentCounters) {
  obs::Config obs_config;
  obs_config.metrics = true;
  obs::configure(obs_config);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::instance().snapshot();

  UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.pool_size = 64_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  cfg.cell_payload = 4_KiB;
  Universe universe(cfg);

  // The poller borrows rank 0's endpoint under a mutex; the owning rank
  // nulls the pointer (same mutex) before the endpoint is destroyed.
  std::mutex ep_mutex;
  p2p::Endpoint* shared_ep = nullptr;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> polls{0};

  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const RecoveryStats rs = universe.recovery_stats();
      (void)rs;
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::instance().snapshot();
      (void)snap;
      {
        std::lock_guard<std::mutex> lock(ep_mutex);
        if (shared_ep != nullptr) {
          // The copy constructor performs the relaxed per-field loads —
          // this is the read that raced before CommStats went atomic.
          const p2p::CommStats copy = shared_ep->stats();
          (void)copy;
        }
      }
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });

  constexpr int kMessages = 200;
  universe.run([&](RankCtx& ctx) {
    p2p::Endpoint ep = p2p::Endpoint::create(ctx);
    if (ctx.rank() == 0) {
      {
        std::lock_guard<std::mutex> lock(ep_mutex);
        shared_ep = &ep;
      }
      // Stream only after one whole poll has read this endpoint: on a
      // loaded host the poller may otherwise not run before the ranks
      // finish, and nothing would race.
      const std::uint64_t seen = polls.load(std::memory_order_relaxed);
      while (polls.load(std::memory_order_relaxed) < seen + 2) {
        std::this_thread::yield();
      }
    }
    std::vector<std::byte> payload(1024, std::byte{0x3C});
    for (int i = 0; i < kMessages; ++i) {
      if (ctx.rank() == 0) {
        check_ok(ep.send(1, i, payload));
      } else {
        std::vector<std::byte> buf(payload.size());
        check_ok(ep.recv(0, i, buf));
      }
    }
    ctx.barrier();  // both sides quiesce before the endpoint dies
    if (ctx.rank() == 0) {
      std::lock_guard<std::mutex> lock(ep_mutex);
      shared_ep = nullptr;
    }
  });

  stop.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls.load(), 0u);

  // After quiescence the registry's totals reflect the run: rank 0 sent
  // kMessages, rank 1 received them (snapshot deltas — other tests in
  // this binary may have contributed to the same families).
  const obs::MetricsSnapshot after =
      obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(after.counter("p2p.messages_sent") -
                before.counter("p2p.messages_sent"),
            static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(after.counter("p2p.messages_received") -
                before.counter("p2p.messages_received"),
            static_cast<std::uint64_t>(kMessages));

  obs::configure(obs::Config{});
}

}  // namespace
}  // namespace cmpi::runtime
