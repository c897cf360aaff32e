// Large-message one-copy rendezvous protocol: adaptive path selection,
// deferred (unexpected) pulls, slot recycling bounds, eager fallback when
// no slab is available, the bounded retransmit-staging budget that rides
// along with the fused eager staging pass, and one flush sweep per
// segment on each side.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "p2p/endpoint.hpp"

namespace cmpi::p2p {
namespace {

runtime::UniverseConfig rdvz_config(std::size_t cell_payload = 4_KiB,
                                    std::size_t ring_cells = 8) {
  runtime::UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.pool_size = 64_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  cfg.cell_payload = cell_payload;
  cfg.ring_cells = ring_cells;
  return cfg;
}

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed * 13 + i * 7) & 0xFF);
  }
  return out;
}

TEST(Rendezvous, ThresholdRoutesLargeNotSmall) {
  runtime::Universe universe(rdvz_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    EXPECT_EQ(ep.rendezvous_threshold(), 4_KiB);  // one cell
    const auto small = pattern(4_KiB, 1);    // == threshold: eager
    const auto large = pattern(4_KiB + 1, 2);  // > threshold: rendezvous
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 0, small));
      check_ok(ep.send(1, 1, large));
      EXPECT_EQ(ep.stats().rendezvous_sent, 1u);
      EXPECT_EQ(ep.stats().rendezvous_fallbacks, 0u);
    } else {
      std::vector<std::byte> buf_s(small.size());
      std::vector<std::byte> buf_l(large.size());
      check_ok(ep.recv(0, 0, buf_s));
      check_ok(ep.recv(0, 1, buf_l));
      EXPECT_EQ(buf_s, small);
      EXPECT_EQ(buf_l, large);
      EXPECT_EQ(ep.stats().rendezvous_sent, 0u);
    }
  });
}

TEST(Rendezvous, ConfiguredThresholdOverridesDefault) {
  runtime::UniverseConfig cfg = rdvz_config();
  cfg.rendezvous_threshold = 1_MiB;
  runtime::Universe universe(cfg);
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    EXPECT_EQ(ep.rendezvous_threshold(), 1_MiB);
    const auto data = pattern(64_KiB, 3);  // under the raised threshold
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 0, data));
      EXPECT_EQ(ep.stats().rendezvous_sent, 0u);
    } else {
      std::vector<std::byte> buf(data.size());
      check_ok(ep.recv(0, 0, buf));
      EXPECT_EQ(buf, data);
    }
  });
}

TEST(Rendezvous, MultiSegmentMessageDeliversIntact) {
  // 2.5 MiB spans twenty 128 KiB segments — exercises the pipelined
  // announce-while-writing loop and CRC chaining across sub-chunks.
  runtime::Universe universe(rdvz_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(2 * 1024 * 1024 + 512 * 1024 + 37, 4);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 9, data));
      EXPECT_EQ(ep.stats().rendezvous_sent, 1u);
    } else {
      std::vector<std::byte> buf(data.size());
      const RecvInfo info = check_ok(ep.recv(0, 9, buf));
      EXPECT_EQ(info.bytes, data.size());
      EXPECT_EQ(buf, data);
    }
  });
}

TEST(Rendezvous, UnexpectedArrivalPullsOnMatch) {
  // The receiver posts nothing until after the message has fully arrived:
  // the payload must wait parked in the sender's slab (no host-side copy
  // of the bytes) and be pulled pool→user at match time.
  runtime::Universe universe(rdvz_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(700 * 1000, 5);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 2, data));
      // The receiver FINs only when its late recv matches; wait for the
      // slot to come home so teardown sees a clean endpoint.
      check_ok(ep.recv(1, 3, {}).status());
      EXPECT_EQ(ep.debug_queue_sizes().rendezvous_inflight, 0u);
    } else {
      // Let the whole message land unexpected before posting the receive.
      ctx.doorbell().wait_until([&] { return ep.iprobe(0, 2).has_value(); });
      std::vector<std::byte> buf(data.size());
      check_ok(ep.recv(0, 2, buf));
      EXPECT_EQ(buf, data);
      check_ok(ep.send(0, 3, {}));
    }
  });
}

TEST(Rendezvous, TruncationReportsAndKeepsPrefix) {
  runtime::Universe universe(rdvz_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(300 * 1024, 6);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 0, data));
    } else {
      std::vector<std::byte> buf(100 * 1024);
      const auto r = ep.recv(0, 0, buf);
      ASSERT_FALSE(r.is_ok());
      EXPECT_EQ(r.status().code(), ErrorCode::kTruncated);
      EXPECT_TRUE(std::equal(buf.begin(), buf.end(), data.begin()));
    }
  });
}

TEST(Rendezvous, SynchronousSendCompletesOnMatch) {
  runtime::Universe universe(rdvz_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(512 * 1024, 7);
    if (ctx.rank() == 0) {
      check_ok(ep.ssend(1, 4, data));
      EXPECT_EQ(ep.stats().rendezvous_sent, 1u);
    } else {
      std::vector<std::byte> buf(data.size());
      check_ok(ep.recv(0, 4, buf));
      EXPECT_EQ(buf, data);
    }
  });
}

TEST(Rendezvous, SlotRecyclingStaysBounded) {
  // A long stream of large messages must not accumulate arena slots: FINs
  // recycle slabs through the bounded per-destination cache, and inflight
  // never exceeds its cap.
  runtime::Universe universe(rdvz_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(96 * 1024, 8);
    constexpr int kRounds = 40;
    if (ctx.rank() == 0) {
      for (int i = 0; i < kRounds; ++i) {
        check_ok(ep.send(1, i, data));
        const auto sizes = ep.debug_queue_sizes();
        EXPECT_LE(sizes.rendezvous_inflight, Endpoint::kMaxRendezvousInflight);
        EXPECT_LE(sizes.rendezvous_cached,
                  2 * Endpoint::kRendezvousSlotCacheDepth);
      }
      EXPECT_EQ(ep.stats().rendezvous_sent,
                static_cast<std::uint64_t>(kRounds));
      check_ok(ep.recv(1, 999, {}).status());
      EXPECT_EQ(ep.debug_queue_sizes().rendezvous_inflight, 0u);
    } else {
      std::vector<std::byte> buf(data.size());
      for (int i = 0; i < kRounds; ++i) {
        check_ok(ep.recv(0, i, buf));
        EXPECT_EQ(buf, data);
      }
      check_ok(ep.send(0, 999, {}));
    }
  });
}

TEST(Rendezvous, FallsBackToEagerWhenArenaIsFull) {
  runtime::UniverseConfig cfg = rdvz_config();
  cfg.pool_size = 32_MiB;
  runtime::Universe universe(cfg);
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(256 * 1024, 9);
    if (ctx.rank() == 0) {
      // Leave less free arena space than one slab needs.
      const std::uint64_t free = ctx.arena().free_bytes();
      ASSERT_GT(free, 300 * 1024u);
      auto hog = check_ok(
          ctx.arena().create("test.hog", free - 64 * 1024));
      check_ok(ep.send(1, 0, data));
      EXPECT_EQ(ep.stats().rendezvous_sent, 0u);
      EXPECT_EQ(ep.stats().rendezvous_fallbacks, 1u);
      check_ok(ctx.arena().destroy(hog));
    } else {
      std::vector<std::byte> buf(data.size());
      check_ok(ep.recv(0, 0, buf));
      EXPECT_EQ(buf, data);
    }
  });
}

TEST(Rendezvous, EagerStagingBytesStayBounded) {
  // Satellite: a long one-way stream of eager messages must not grow the
  // retransmit staging without bound — the byte budget evicts old copies
  // (the newest always survives so the just-sent message stays NAKable).
  runtime::UniverseConfig cfg = rdvz_config();
  cfg.rendezvous_threshold = ~std::size_t{0};  // force everything eager
  runtime::Universe universe(cfg);
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(192 * 1024, 10);
    constexpr int kRounds = 30;
    if (ctx.rank() == 0) {
      for (int i = 0; i < kRounds; ++i) {
        check_ok(ep.send(1, i, data));
        EXPECT_LE(ep.debug_queue_sizes().staged_bytes,
                  Endpoint::kRetransmitStagingBytes);
      }
      EXPECT_EQ(ep.stats().rendezvous_sent, 0u);
    } else {
      std::vector<std::byte> buf(data.size());
      for (int i = 0; i < kRounds; ++i) {
        check_ok(ep.recv(0, i, buf));
        EXPECT_EQ(buf, data);
      }
    }
  });
}

class RendezvousSweeps : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Config config;
    config.metrics = true;
    obs::configure(config);
    obs::MetricsRegistry::instance().reset_for_test();
  }
  void TearDown() override {
    obs::MetricsRegistry::instance().reset_for_test();
    obs::configure(obs::Config{});
  }

  static std::uint64_t counter(const std::string& name) {
    return obs::MetricsRegistry::instance().snapshot().counter(name);
  }
  static std::uint64_t sweeps() { return counter("cxl.bulk_sweeps"); }
};

TEST_F(RendezvousSweeps, OnePerSegmentPerSide) {
  // 1 MiB at the default 16 KiB cells: eight 128 KiB segments of eight
  // 16 KiB bulk pieces. A segment's pieces and its RTS descriptor share
  // one flush sweep on the sender (the RTS publish fences them together),
  // and its pieces one invalidate sweep on the receiver, so each side
  // pays eight sweep setups for the payload, not 64.
  constexpr std::uint64_t kSegments = 8;
  const auto data = pattern(1_MiB, 11);
  std::atomic<std::uint64_t> sender_sweeps{0};
  std::atomic<std::uint64_t> receiver_sweeps{0};
  runtime::Universe universe(rdvz_config(16_KiB));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    ctx.barrier();
    if (ctx.rank() == 0) {
      // The receiver sits at the barrier: every sweep here is the
      // sender's. The send returns once all segments are announced.
      const std::uint64_t before = sweeps();
      check_ok(ep.send(1, 0, data));
      sender_sweeps = sweeps() - before;
      EXPECT_EQ(ep.stats().rendezvous_sent, 1u);
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      const std::uint64_t before = sweeps();
      std::vector<std::byte> buf(data.size());
      check_ok(ep.recv(0, 0, buf));
      receiver_sweeps = sweeps() - before;
      EXPECT_EQ(buf, data);
    }
    ctx.barrier();
  });
  // Each RTS descriptor is written in the same pass as its segment and
  // its publish fences both, so it rides the segment's sweep.
  EXPECT_EQ(sender_sweeps.load(), kSegments);
  // The FIN cell pays one; the RTS descriptors arrive in the fused header
  // read and need no bulk read.
  EXPECT_EQ(receiver_sweeps.load(), kSegments + 1);
}

TEST_F(RendezvousSweeps, LaterAttemptRtsPaysItsOwnSweep) {
  // A 2-cell ring cannot hold the eight RTS descriptors of a 1 MiB
  // message. The isend writes segments 0-2, announces 0 and 1, and leaves
  // segment 2 for a later attempt once the receiver drains; so may go any
  // later segment that finds the ring full. A descriptor announced on a
  // later attempt pays its own sweep (a fence may have come between it and
  // its segment), the rest ride their segment's.
  constexpr std::uint64_t kSegments = 8;
  const auto data = pattern(1_MiB, 12);
  std::atomic<std::uint64_t> sender_sweeps{0};
  std::atomic<std::uint64_t> late_rts{0};
  std::atomic<bool> announced{false};
  runtime::Universe universe(rdvz_config(16_KiB, /*ring_cells=*/2));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    ctx.barrier();
    if (ctx.rank() == 0) {
      const std::uint64_t before = sweeps();
      const RequestPtr req = ep.isend(1, 0, data);
      ctx.barrier();  // the receiver starts draining a full ring
      check_ok(ep.wait(req));
      sender_sweeps = sweeps() - before;
      late_rts = counter("p2p.rdvz_rts_late");
      EXPECT_EQ(counter("p2p.rdvz_rts"), kSegments);
      announced = true;
    } else {
      ctx.barrier();
      // No receive is posted, so the descriptors park as an unexpected
      // message and its pulls, the receiver's sweeps, wait for the recv
      // below: every sweep counted until `announced` is the sender's.
      while (!announced) {
        ep.progress();
        std::this_thread::yield();
      }
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      std::vector<std::byte> buf(data.size());
      check_ok(ep.recv(0, 0, buf));
      EXPECT_EQ(buf, data);
    }
    ctx.barrier();
  });
  EXPECT_GE(late_rts.load(), 1u);
  EXPECT_EQ(sender_sweeps.load(), kSegments + late_rts.load());
}

}  // namespace
}  // namespace cmpi::p2p
