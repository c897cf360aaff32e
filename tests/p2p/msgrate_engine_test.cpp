// Message-rate engine regressions (polled rings, batched publish/reap):
//
//  * Fairness — the rotating scan start must keep two saturating senders
//    advancing together; a fixed scan origin would systematically drain
//    one peer first and skew their completion clocks.
//  * Wildcard matching — MPI semantics are defined over global orders:
//    wildcard receives must take unexpected messages in ARRIVAL order and
//    posted receives must match in POSTED order, across envelopes.
//  * Batching — a burst of isends coalesces its publishes, and the
//    receiver reads a published lap of small cells in one gathered wave.
#include "p2p/endpoint.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "cxlsim/accessor.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace cmpi::p2p {
namespace {

runtime::UniverseConfig engine_config(unsigned nodes,
                                      std::size_t cell_payload = 256,
                                      std::size_t ring_cells = 8) {
  runtime::UniverseConfig cfg;
  cfg.nodes = nodes;
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
    out[i] = static_cast<std::byte>((seed * 31 + i * 11) & 0xFF);
  }
  return out;
}

TEST(ProgressFairness, SaturatingSendersCompleteWithBoundedSkew) {
  // Two senders saturate their rings toward one receiver. The rings are
  // deeper than one reap batch (32 cells vs kReapBatchCells = 16), so a
  // visit never drains a ring dry and the scan order decides who gets
  // served first each pass. With the rotating start both senders are
  // paced identically; their virtual completion clocks must land close.
  constexpr int kMessages = 96;
  constexpr std::size_t kSize = 64;
  runtime::Universe universe(engine_config(3, 256, 32));
  std::array<double, 2> done_ns{0.0, 0.0};
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    ctx.barrier();
    if (ctx.rank() < 2) {
      const int me = ctx.rank();
      for (int k = 0; k < kMessages; ++k) {
        check_ok(ep.send(2, k, pattern(kSize, me * 1000 + k)));
      }
      done_ns[static_cast<std::size_t>(me)] = ctx.clock().now();
    } else {
      std::vector<std::vector<std::byte>> buffers(
          2 * static_cast<std::size_t>(kMessages),
          std::vector<std::byte>(kSize));
      std::vector<RequestPtr> reqs;
      reqs.reserve(buffers.size());
      for (int k = 0; k < kMessages; ++k) {
        for (int s = 0; s < 2; ++s) {
          reqs.push_back(ep.irecv(
              s, k, buffers[static_cast<std::size_t>(2 * k + s)]));
        }
      }
      check_ok(ep.wait_all(reqs));
      for (int k = 0; k < kMessages; k += 17) {
        EXPECT_EQ(buffers[static_cast<std::size_t>(2 * k)],
                  pattern(kSize, k));
        EXPECT_EQ(buffers[static_cast<std::size_t>(2 * k + 1)],
                  pattern(kSize, 1000 + k));
      }
    }
  });
  ASSERT_GT(done_ns[0], 0.0);
  ASSERT_GT(done_ns[1], 0.0);
  const double skew = std::abs(done_ns[0] - done_ns[1]);
  const double slowest = std::max(done_ns[0], done_ns[1]);
  EXPECT_LE(skew, 0.25 * slowest)
      << "sender completion clocks " << done_ns[0] << " ns vs " << done_ns[1]
      << " ns — the progress loop is starving one saturating sender";
}

TEST(WildcardMatch, UnexpectedWildcardTakesArrivalOrderAcrossShards) {
  // Tags 5/3/9/7 are different envelopes, but a wildcard receive must
  // see the messages in the order they arrived, not grouped by envelope.
  // The go-message (tag 100) is received first so all five predecessors
  // are parked as unexpected before any wildcard is posted.
  const std::array<int, 5> tags = {5, 3, 9, 3, 7};
  runtime::Universe universe(engine_config(2));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    if (ctx.rank() == 0) {
      for (std::size_t i = 0; i < tags.size(); ++i) {
        check_ok(ep.send(1, tags[i], pattern(48, static_cast<int>(i))));
      }
      check_ok(ep.send(1, 100, pattern(8, 99)));
    } else {
      std::vector<std::byte> go(8);
      check_ok(ep.recv(0, 100, go));
      for (std::size_t i = 0; i < tags.size(); ++i) {
        std::vector<std::byte> buf(48);
        const RecvInfo info = check_ok(ep.recv(kAnySource, kAnyTag, buf));
        EXPECT_EQ(info.source, 0);
        EXPECT_EQ(info.tag, tags[i]) << "wildcard receive " << i
                                     << " broke arrival order";
        EXPECT_EQ(buf, pattern(48, static_cast<int>(i)));
      }
    }
  });
}

TEST(WildcardMatch, EarliestPostedWinsAcrossShards) {
  // A specific (src, tag) receive posted before a wildcard must take the
  // first matching arrival even though the wildcard also accepts it; the
  // wildcard gets the second.
  runtime::Universe universe(engine_config(2));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto m1 = pattern(32, 1);
    const auto m2 = pattern(32, 2);
    if (ctx.rank() == 0) {
      std::vector<std::byte> go(1);
      check_ok(ep.recv(1, 50, go));
      check_ok(ep.send(1, 3, m1));
      check_ok(ep.send(1, 3, m2));
    } else {
      std::vector<std::byte> a(32);
      std::vector<std::byte> b(32);
      const RequestPtr specific = ep.irecv(0, 3, a);
      const RequestPtr wildcard = ep.irecv(kAnySource, kAnyTag, b);
      std::byte go{0x1};
      check_ok(ep.send(0, 50, {&go, 1}));
      check_ok(ep.wait(specific));
      check_ok(ep.wait(wildcard));
      EXPECT_EQ(a, m1) << "earlier-posted specific receive lost the race";
      EXPECT_EQ(b, m2);
    }
  });
}

TEST(WildcardMatch, InterleavedSpecificAndWildcardPreserveMpiOrder) {
  // Posted (in order): specific tag 2, wildcard, specific tag 1,
  // wildcard. Arrivals (in order): tag 1, tag 2, tag 1, tag 2. MPI
  // matching: each arrival goes to the EARLIEST-posted receive it
  // matches, so the assignment is arrival0→wildcard#1, arrival1→tag-2,
  // arrival2→tag-1, arrival3→wildcard#2 — an interleaving of three
  // different filters in the posted queue.
  runtime::Universe universe(engine_config(2));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto m0 = pattern(24, 10);
    const auto m1 = pattern(24, 11);
    const auto m2 = pattern(24, 12);
    const auto m3 = pattern(24, 13);
    if (ctx.rank() == 0) {
      std::vector<std::byte> go(1);
      check_ok(ep.recv(1, 50, go));
      check_ok(ep.send(1, 1, m0));
      check_ok(ep.send(1, 2, m1));
      check_ok(ep.send(1, 1, m2));
      check_ok(ep.send(1, 2, m3));
    } else {
      std::vector<std::byte> a(24), b(24), c(24), d(24);
      const RequestPtr spec2 = ep.irecv(0, 2, a);
      const RequestPtr wild1 = ep.irecv(kAnySource, kAnyTag, b);
      const RequestPtr spec1 = ep.irecv(0, 1, c);
      const RequestPtr wild2 = ep.irecv(kAnySource, kAnyTag, d);
      std::byte go{0x1};
      check_ok(ep.send(0, 50, {&go, 1}));
      const std::array<RequestPtr, 4> reqs = {spec2, wild1, spec1, wild2};
      check_ok(ep.wait_all(reqs));
      EXPECT_EQ(a, m1);
      EXPECT_EQ(b, m0);
      EXPECT_EQ(c, m2);
      EXPECT_EQ(d, m3);
    }
  });
}

TEST(PublishBatching, BurstOfNonblockingSendsCoalescesPublishes) {
  // Producer-side publish batching: a burst of isends stages cells and
  // parks the tail publish, so the burst reaches the receiver in a few
  // publish edges instead of one per cell. 24 one-cell messages against
  // kPublishBatchCells = 16 and a 32-deep ring should land in ~2 batches
  // (one threshold flush + one parked tail flushed by wait_all); anything
  // averaging > 1 cell per publish proves the batching engaged.
  constexpr int kBurst = 24;
  runtime::Universe universe(engine_config(2, 256, 32));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    ctx.barrier();
    if (ctx.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(
          kBurst, std::vector<std::byte>(64));
      std::vector<RequestPtr> reqs;
      reqs.reserve(kBurst);
      for (int i = 0; i < kBurst; ++i) {
        bufs[static_cast<std::size_t>(i)] = pattern(64, i);
        reqs.push_back(ep.isend(1, 5, bufs[static_cast<std::size_t>(i)]));
      }
      check_ok(ep.wait_all(reqs));
      const CommStats s = ep.stats();
      EXPECT_EQ(s.cells_published, static_cast<std::uint64_t>(kBurst));
      ASSERT_GT(s.publish_batches, 0u);
      EXPECT_LT(s.publish_batches, static_cast<std::uint64_t>(kBurst))
          << "every cell published alone: batching never engaged";
      const double cells_per_publish =
          static_cast<double>(s.cells_published) /
          static_cast<double>(s.publish_batches);
      EXPECT_GT(cells_per_publish, 1.0);
    } else {
      std::vector<std::byte> buf(64);
      for (int i = 0; i < kBurst; ++i) {
        check_ok(ep.recv(0, 5, buf));
        EXPECT_EQ(buf, pattern(64, i));
      }
    }
  });
}

TEST(GatheredReads, WindowOfSmallSendsIsReadEightCellsPerWave) {
  // A 64 x 8 B isend window into 8-cell rings, one full ring (a lap) at a
  // time: the sender stages a lap's eight cells, publishes them in one
  // batch, and only then lets the receiver look, and the receiver frees
  // all eight (one head publish) before the sender starts the next lap.
  // So the receiver reads each lap with one gathered peek of its eight
  // cells. The host-side handshake costs no virtual time; it keeps the
  // receiver from peeking while the sender is still storing a lap's
  // headers, which would split the lap into two waves by host order.
  constexpr int kWindow = 64;
  constexpr int kLap = 8;
  obs::Config metrics_on;
  metrics_on.metrics = true;
  obs::configure(metrics_on);
  obs::MetricsRegistry::instance().reset_for_test();
  runtime::Universe universe(engine_config(2, 256, kLap));
  std::atomic<int> published{0};  // laps the sender has published
  std::atomic<int> received{0};   // laps the receiver has received
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    ctx.barrier();
    std::vector<std::vector<std::byte>> bufs(kWindow,
                                             std::vector<std::byte>(8));
    std::vector<RequestPtr> reqs;
    reqs.reserve(kWindow);
    for (int lap = 0; lap < kWindow / kLap; ++lap) {
      if (ctx.rank() == 0) {
        while (received.load() < lap) {
          std::this_thread::yield();
        }
        for (int i = lap * kLap; i < (lap + 1) * kLap; ++i) {
          auto& buf = bufs[static_cast<std::size_t>(i)];
          buf = pattern(8, i);
          reqs.push_back(ep.isend(1, i, buf));
        }
        ep.progress();  // publishes the lap's parked batch
        published.store(lap + 1);
      } else {
        for (int i = lap * kLap; i < (lap + 1) * kLap; ++i) {
          reqs.push_back(ep.irecv(0, i, bufs[static_cast<std::size_t>(i)]));
        }
        while (published.load() < lap + 1) {
          std::this_thread::yield();
        }
        check_ok(ep.wait_all(std::span(reqs).subspan(
            static_cast<std::size_t>(lap * kLap), kLap)));
        received.store(lap + 1);
      }
    }
    check_ok(ep.wait_all(reqs));
    if (ctx.rank() == 1) {
      for (int i = 0; i < kWindow; ++i) {
        EXPECT_EQ(bufs[static_cast<std::size_t>(i)], pattern(8, i));
      }
    }
  });
  const obs::Histogram& gathers =
      obs::MetricsRegistry::instance().histogram("ring.cells_per_gather");
  EXPECT_EQ(gathers.count(), static_cast<std::uint64_t>(kWindow / kLap));
  EXPECT_DOUBLE_EQ(gathers.sum(), kWindow);
  obs::configure(obs::Config{});
}

TEST(GatheredReads, NinthSendOfALapReloadsTheHeadInOneWave) {
  // On an 8-cell ring the sender's cached head shows the ring full at the
  // ninth 8 B isend. The receiver has freed cells by then, so that isend
  // reloads the head word and the reused cell's freed_stamp in one wave:
  // it costs the eighth's plus one 16-byte nt_load, not plus two 8-byte
  // loads. Each send completes and is received (a host-side handshake,
  // no virtual time) before the next is issued.
  constexpr int kSends = 9;
  runtime::Universe universe(engine_config(2, 256, 8));
  std::array<double, kSends> cost{};
  double wave = 0;
  std::atomic<int> received{0};
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    ctx.barrier();
    if (ctx.rank() == 0) {
      // Past the device's set-up bookings and every stamp the receiver
      // writes, so the reload's device reservation and its absorbed
      // stamp add nothing to the wave.
      ctx.clock().advance(1e6);
      // One 16-byte nt_load at this clock on an idle device.
      auto device = check_ok(cxlsim::DaxDevice::create(
          2_MiB, 4, ctx.device().timing().params()));
      cxlsim::CacheSim cache(*device);
      simtime::VClock clock;
      clock.advance(ctx.clock().now());
      cxlsim::Accessor idle(*device, cache, clock);
      std::vector<std::byte> words(2 * sizeof(std::uint64_t));
      idle.nt_load(0, words);
      wave = clock.now() - ctx.clock().now();
      const std::vector<std::byte> buf = pattern(8, 0);
      for (int i = 0; i < kSends; ++i) {
        const double before = ctx.clock().now();
        RequestPtr req = ep.isend(1, i, buf);
        cost[static_cast<std::size_t>(i)] = ctx.clock().now() - before;
        check_ok(ep.wait(req));
        while (received.load() <= i) {
          std::this_thread::yield();
        }
      }
    } else {
      std::vector<std::byte> buf(8);
      for (int i = 0; i < kSends; ++i) {
        check_ok(ep.recv(0, i, buf));
        received.store(i + 1);
      }
    }
  });
  // The first send also attaches the ring; the next seven cost the same.
  for (int i = 2; i < kSends - 1; ++i) {
    EXPECT_DOUBLE_EQ(cost[static_cast<std::size_t>(i)], cost[1]) << i;
  }
  EXPECT_DOUBLE_EQ(cost[kSends - 1] - cost[kSends - 2], wave);
}

}  // namespace
}  // namespace cmpi::p2p
