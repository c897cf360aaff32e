#include "coll/cxl_collectives.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "coll/collectives.hpp"
#include "p2p/endpoint.hpp"

namespace cmpi::coll {
namespace {

runtime::UniverseConfig config_for(int nranks) {
  runtime::UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = static_cast<unsigned>((nranks + 1) / 2);
  cfg.pool_size = 64_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  return cfg;
}

TEST(CxlCollectives, DirectAllgather) {
  runtime::Universe universe(config_for(4));
  universe.run([](runtime::RankCtx& ctx) {
    CxlCollectives cxl(ctx, "ag", 1024);
    std::vector<std::uint64_t> mine{
        static_cast<std::uint64_t>(ctx.rank() * 11 + 1)};
    std::vector<std::uint64_t> all(static_cast<std::size_t>(ctx.nranks()));
    cxl.allgather(std::as_bytes(std::span(mine)),
                  std::as_writable_bytes(std::span(all)));
    for (int r = 0; r < ctx.nranks(); ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)],
                static_cast<std::uint64_t>(r * 11 + 1));
    }
    cxl.free();
  });
}

TEST(CxlCollectives, DirectAllgatherRepeatsEpochs) {
  runtime::Universe universe(config_for(4));
  universe.run([](runtime::RankCtx& ctx) {
    CxlCollectives cxl(ctx, "ag_rep", 64);
    for (int round = 0; round < 5; ++round) {
      std::vector<std::uint64_t> mine{
          static_cast<std::uint64_t>(ctx.rank() + round * 100)};
      std::vector<std::uint64_t> all(static_cast<std::size_t>(ctx.nranks()));
      cxl.allgather(std::as_bytes(std::span(mine)),
                    std::as_writable_bytes(std::span(all)));
      for (int r = 0; r < ctx.nranks(); ++r) {
        ASSERT_EQ(all[static_cast<std::size_t>(r)],
                  static_cast<std::uint64_t>(r + round * 100))
            << "round " << round;
      }
    }
    cxl.free();
  });
}

TEST(CxlCollectives, DirectBcast) {
  runtime::Universe universe(config_for(4));
  universe.run([](runtime::RankCtx& ctx) {
    CxlCollectives cxl(ctx, "bc", 256);
    for (int root = 0; root < ctx.nranks(); ++root) {
      std::vector<std::uint32_t> data(16);
      if (ctx.rank() == root) {
        std::iota(data.begin(), data.end(),
                  static_cast<std::uint32_t>(root * 1000));
      }
      cxl.bcast(root, std::as_writable_bytes(std::span(data)));
      EXPECT_EQ(data[15], static_cast<std::uint32_t>(root * 1000 + 15));
    }
    cxl.free();
  });
}

TEST(CxlCollectives, DirectAllreduceSum) {
  runtime::Universe universe(config_for(4));
  universe.run([](runtime::RankCtx& ctx) {
    CxlCollectives cxl(ctx, "ar", 256);
    std::vector<double> values{1.0 * ctx.rank(), 2.0};
    cxl.allreduce_sum(values);
    const int n = ctx.nranks();
    EXPECT_DOUBLE_EQ(values[0], n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(values[1], 2.0 * n);
    cxl.free();
  });
}

TEST(CxlCollectives, MatchesP2pAllgather) {
  runtime::Universe universe(config_for(4));
  universe.run([](runtime::RankCtx& ctx) {
    p2p::Endpoint ep = p2p::Endpoint::create(ctx);
    CxlCollectives cxl(ctx, "cmp", 4096);
    std::vector<double> mine(32);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = ctx.rank() * 100.0 + static_cast<double>(i);
    }
    const std::size_t n = static_cast<std::size_t>(ctx.nranks());
    std::vector<double> via_p2p(32 * n);
    std::vector<double> via_cxl(32 * n);
    allgather(ep, std::as_bytes(std::span(mine)),
              std::as_writable_bytes(std::span(via_p2p)));
    cxl.allgather(std::as_bytes(std::span(mine)),
                  std::as_writable_bytes(std::span(via_cxl)));
    EXPECT_EQ(via_p2p, via_cxl);
    cxl.free();
  });
}

TEST(CxlCollectives, DirectSmallAllgatherIsFasterThanRing) {
  // The latency argument for CXL-direct collectives: one deposit + direct
  // reads beats n-1 queue-protocol rounds for small payloads.
  runtime::Universe universe(config_for(8));
  universe.run([](runtime::RankCtx& ctx) {
    p2p::Endpoint ep = p2p::Endpoint::create(ctx);
    CxlCollectives cxl(ctx, "perf", 64);
    std::vector<std::uint64_t> mine{static_cast<std::uint64_t>(ctx.rank())};
    std::vector<std::uint64_t> all(static_cast<std::size_t>(ctx.nranks()));
    constexpr int kIters = 10;

    // Back-to-back attempts; the direct variant must win every one.
    constexpr int kAttempts = 5;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      ctx.barrier();
      double t0 = ctx.clock().now();
      for (int i = 0; i < kIters; ++i) {
        allgather(ep, std::as_bytes(std::span(mine)),
                  std::as_writable_bytes(std::span(all)));
      }
      ctx.barrier();
      const double ring_cost = ctx.clock().now() - t0;

      t0 = ctx.clock().now();
      for (int i = 0; i < kIters; ++i) {
        cxl.allgather(std::as_bytes(std::span(mine)),
                      std::as_writable_bytes(std::span(all)));
      }
      ctx.barrier();
      const double direct_cost = ctx.clock().now() - t0;
      if (ctx.rank() == 0) {
        EXPECT_LT(direct_cost, ring_cost) << "attempt " << attempt;
      }
    }
    cxl.free();
  });
}

}  // namespace
}  // namespace cmpi::coll
