// Large messages through the per-pair bulk ring: adaptive path selection,
// per-pair send order across the small and bulk rings, unexpected large
// messages drained as they arrive, one bulk ring per pair, eager fallback
// when the arena cannot supply the ring, the bounded retransmit-staging
// budget that rides along with the fused eager staging pass, and one
// flush sweep per bulk cell on the sender and one per reap batch on the
// receiver.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
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
  // 2.5 MiB + 37 B spans 21 segments of 128 KiB, more than two laps of
  // the 8-cell bulk ring: the sender refills cells the receiver frees.
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
  // The receiver posts nothing until the message has started to arrive:
  // its bulk cells drain into an unexpected message as they come, and the
  // late receive copies it out at match time.
  runtime::Universe universe(rdvz_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(700 * 1000, 5);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 2, data));
      check_ok(ep.recv(1, 3, {}).status());
      EXPECT_EQ(ep.debug_queue_sizes().send_queued, 0u);
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

TEST(Rendezvous, BulkRingIsCreatedOncePerPair) {
  // A long stream of large messages adds one arena object, the pair's bulk
  // ring, at the first large send and none after: the ring's head is the
  // only credit, so nothing is allocated or recycled per message.
  runtime::Universe universe(rdvz_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(96 * 1024, 8);
    constexpr int kRounds = 40;
    if (ctx.rank() == 0) {
      const std::uint64_t before = ctx.arena().used_slots();
      for (int i = 0; i < kRounds; ++i) {
        check_ok(ep.send(1, i, data));
        EXPECT_EQ(ctx.arena().used_slots(), before + 1) << "send " << i;
      }
      EXPECT_EQ(ep.stats().rendezvous_sent,
                static_cast<std::uint64_t>(kRounds));
    } else {
      std::vector<std::byte> buf(data.size());
      for (int i = 0; i < kRounds; ++i) {
        check_ok(ep.recv(0, i, buf));
        EXPECT_EQ(buf, data);
      }
    }
  });
}

TEST(Rendezvous, SmallAndLargeMessagesKeepSendOrder) {
  // Eager messages and a large message's envelope ride the small ring, the
  // large message's body the bulk ring. The receiver reads the small ring
  // past an envelope only after the body's last cell, so a wildcard
  // receiver gets one sender's messages in send order.
  const std::vector<std::size_t> sizes{100,        300_KiB, 200,
                                       1_MiB + 200_KiB + 5, 0,
                                       4_KiB + 1};
  runtime::Universe universe(rdvz_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    if (ctx.rank() == 0) {
      std::vector<std::vector<std::byte>> data;
      std::vector<RequestPtr> reqs;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        data.push_back(pattern(sizes[i], static_cast<int>(i)));
      }
      for (const auto& d : data) {
        reqs.push_back(ep.isend(1, 7, d));
      }
      check_ok(ep.wait_all(reqs));
      EXPECT_EQ(ep.stats().rendezvous_sent, 3u);
    } else {
      std::vector<std::byte> buf(1_MiB + 200_KiB + 5);
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const RecvInfo info = check_ok(ep.recv(kAnySource, kAnyTag, buf));
        ASSERT_EQ(info.bytes, sizes[i]) << "message " << i;
        EXPECT_EQ(info.source, 0);
        EXPECT_EQ(info.tag, 7);
        EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + sizes[i],
                               pattern(sizes[i], static_cast<int>(i)).begin()))
            << "message " << i;
      }
    }
  });
}

TEST(Rendezvous, MessageLargerThanTheBulkRingArrivesUnexpected) {
  // 2.5 MiB + 37 B at 16 KiB cells is 21 bulk cells, over two and a half
  // laps of the 8-cell bulk ring. The receive is posted only after iprobe
  // reports the envelope, so the body drains into an unexpected message
  // while the sender refills the ring: a sender never waits for a match.
  runtime::Universe universe(rdvz_config(16_KiB));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(2_MiB + 512_KiB + 37, 13);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 5, data));
      EXPECT_EQ(ep.stats().rendezvous_sent, 1u);
    } else {
      ctx.doorbell().wait_until([&] { return ep.iprobe(0, 5).has_value(); });
      std::vector<std::byte> buf(data.size());
      const RecvInfo info = check_ok(ep.recv(0, 5, buf));
      EXPECT_EQ(info.bytes, data.size());
      EXPECT_EQ(buf, data);
      EXPECT_EQ(ep.stats().unexpected_messages, 1u);
    }
  });
}

TEST(Rendezvous, HeadToHeadLargeBlockingSendsComplete) {
  // Both ranks block in a 4 MiB send before either posts its receive.
  // Each send needs more cells than the bulk ring holds, and its credit
  // comes only because each side drains the other's unexpected large
  // message while it waits.
  runtime::Universe universe(rdvz_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const int peer = 1 - ctx.rank();
    const auto mine = pattern(4_MiB, 20 + ctx.rank());
    check_ok(ep.send(peer, 6, mine));
    std::vector<std::byte> buf(4_MiB);
    check_ok(ep.recv(peer, 6, buf));
    EXPECT_EQ(buf, pattern(4_MiB, 20 + peer));
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
      // Leave less free arena space than the bulk ring needs.
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
  // 1 MiB at 16 KiB cells: eight 128 KiB bulk cells of eight 16 KiB bulk
  // pieces. A cell's pieces share one flush sweep on the sender, and the
  // envelope rides the first cell's, so the sender pays eight sweep
  // setups, not 64. The receiver reads the eight cells in one reap batch,
  // whose reads share one invalidate sweep.
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
      // sender's. The send returns once all eight cells are published.
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
  EXPECT_EQ(sender_sweeps.load(), kSegments);
  // The envelope arrives in the fused header read and needs no bulk read.
  EXPECT_EQ(receiver_sweeps.load(), 1u);
}

}  // namespace
}  // namespace cmpi::p2p
