#include "runtime/universe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cmpi::runtime {
namespace {

UniverseConfig small_config(unsigned nodes = 2, unsigned per_node = 2) {
  UniverseConfig cfg;
  cfg.nodes = nodes;
  cfg.ranks_per_node = per_node;
  cfg.pool_size = 32_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  return cfg;
}

TEST(Universe, RunsOneThreadPerRank) {
  Universe universe(small_config(2, 2));
  std::atomic<int> count{0};
  std::array<std::atomic<bool>, 4> seen{};
  universe.run([&](RankCtx& ctx) {
    count.fetch_add(1);
    seen[static_cast<std::size_t>(ctx.rank())] = true;
    EXPECT_EQ(ctx.nranks(), 4);
  });
  EXPECT_EQ(count.load(), 4);
  for (const auto& s : seen) {
    EXPECT_TRUE(s.load());
  }
}

TEST(Universe, BlockNodeMapping) {
  Universe universe(small_config(2, 2));
  universe.run([&](RankCtx& ctx) {
    EXPECT_EQ(ctx.node(), ctx.rank() / 2);
  });
}

TEST(Universe, CurrentContextIsThreadLocal) {
  Universe universe(small_config(1, 2));
  universe.run([&](RankCtx& ctx) {
    EXPECT_EQ(RankCtx::current(), &ctx);
  });
  EXPECT_EQ(RankCtx::current(), nullptr);
}

TEST(Universe, EveryRankAttachesTheSameArena) {
  Universe universe(small_config(2, 1));
  std::atomic<std::uint64_t> offsets[2];
  universe.run([&](RankCtx& ctx) {
    offsets[ctx.rank()] = ctx.arena().objects_offset();
  });
  EXPECT_EQ(offsets[0].load(), offsets[1].load());
}

TEST(Universe, ArenaObjectsVisibleAcrossRanks) {
  Universe universe(small_config(2, 1));
  universe.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      check_ok(ctx.arena().create("bootstrap_obj", 4096));
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      const auto handle = check_ok(ctx.arena().open("bootstrap_obj"));
      EXPECT_EQ(handle.size, 4096u);
    }
  });
}

TEST(Universe, RankExceptionPropagates) {
  Universe universe(small_config(1, 2));
  EXPECT_THROW(
      universe.run([&](RankCtx& ctx) {
        if (ctx.rank() == 1) {
          throw std::runtime_error("rank 1 failed");
        }
      }),
      std::runtime_error);
}

TEST(Universe, RunTwiceOnSameUniverse) {
  Universe universe(small_config(2, 1));
  for (int round = 0; round < 2; ++round) {
    universe.run([&](RankCtx& ctx) {
      // Names must not collide across rounds.
      check_ok(ctx.arena().create(
          "round" + std::to_string(round) + "_" + std::to_string(ctx.rank()),
          64));
    });
  }
}

TEST(Universe, MpiOverheadCharged) {
  Universe universe(small_config(1, 1));
  universe.run([&](RankCtx& ctx) {
    const double before = ctx.clock().now();
    ctx.charge_mpi_overhead();
    EXPECT_DOUBLE_EQ(ctx.clock().now() - before,
                     ctx.config().mpi_call_overhead);
  });
}

TEST(SeqBarrier, SynchronizesClocksToSlowest) {
  Universe universe(small_config(2, 2));
  universe.run([&](RankCtx& ctx) {
    // Rank 2 is far ahead in virtual time.
    if (ctx.rank() == 2) {
      ctx.clock().advance(1e6);
    }
    ctx.barrier();
    EXPECT_GE(ctx.clock().now(), 1e6);
  });
}

TEST(SeqBarrier, ActsAsExecutionBarrier) {
  Universe universe(small_config(2, 2));
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  for (int round = 0; round < 5; ++round) {
    before = 0;
    universe.run([&](RankCtx& ctx) {
      before.fetch_add(1);
      ctx.barrier();
      if (before.load() != ctx.nranks()) {
        violated = true;
      }
    });
  }
  EXPECT_FALSE(violated.load());
}

TEST(SeqBarrier, ReusableManyTimes) {
  Universe universe(small_config(2, 1));
  universe.run([&](RankCtx& ctx) {
    for (int i = 0; i < 50; ++i) {
      ctx.barrier();
    }
  });
}

TEST(SeqBarrier, EachEpochExitsAtItsOwnLastArrival) {
  // Rank r works (1 + (r + k) % 8) x 100 us before epoch k, so the last
  // arrival rotates and early leavers enter epoch k + 1 while slower
  // ranks still wait in k. A waiter must absorb each peer's epoch-k
  // arrival, not the next epoch's.
  constexpr int kRanks = 8;
  constexpr int kEpochs = 50;
  struct Crossing {
    double arrived = 0;
    double left = 0;
  };
  std::vector<Crossing> crossings(kRanks * kEpochs);
  Universe universe(small_config(2, 4));
  universe.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    for (int k = 0; k < kEpochs; ++k) {
      ctx.clock().advance((1 + (r + k) % kRanks) * 100e3);
      Crossing& c = crossings[static_cast<std::size_t>(k * kRanks + r)];
      c.arrived = ctx.clock().now();
      ctx.barrier();
      c.left = ctx.clock().now();
    }
  });
  for (int k = 0; k < kEpochs; ++k) {
    const auto epoch = std::span(crossings).subspan(
        static_cast<std::size_t>(k * kRanks), kRanks);
    double last_arrival = 0;
    for (const Crossing& c : epoch) {
      last_arrival = std::max(last_arrival, c.arrived);
    }
    for (int r = 0; r < kRanks; ++r) {
      const double left = epoch[static_cast<std::size_t>(r)].left;
      EXPECT_GE(left, last_arrival) << "rank " << r << " epoch " << k;
      EXPECT_LE(left, last_arrival + 50e3) << "rank " << r << " epoch " << k;
    }
  }
}

TEST(Doorbell, WaitUntilReturnsWhenPredicateHolds) {
  Doorbell bell;
  std::atomic<bool> flag{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    flag.store(true);
    bell.ring();
  });
  bell.wait_until([&] { return flag.load(); });
  setter.join();
  EXPECT_TRUE(flag.load());
}

}  // namespace
}  // namespace cmpi::runtime
