// Bounded-memory soak: an endpoint that streams many messages must not
// accumulate completed bookkeeping. Historically two containers could
// pin completed requests: matched_keepalive_ (posted receives matched
// into assembly) and pending_ssends_ (staged synchronous sends awaiting
// their ack). Completed requests also must drop their references to the
// caller's buffers. debug_queue_sizes() exposes the container sizes so
// the test can assert they return to zero between waves; the heap test
// also catches bookkeeping that empties without being freed.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <vector>

#include "p2p/endpoint.hpp"

namespace cmpi::p2p {
namespace {

runtime::UniverseConfig soak_config() {
  runtime::UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.pool_size = 64_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  cfg.cell_payload = 256;
  cfg.ring_cells = 8;
  return cfg;
}

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed * 17 + i) & 0xFF);
  }
  return out;
}

void expect_drained(const Endpoint& ep, const char* where) {
  const auto sizes = ep.debug_queue_sizes();
  EXPECT_EQ(sizes.posted_recvs, 0u) << where;
  EXPECT_EQ(sizes.unexpected, 0u) << where;
  EXPECT_EQ(sizes.matched_keepalive, 0u) << where;
  EXPECT_EQ(sizes.pending_ssends, 0u) << where;
  EXPECT_EQ(sizes.send_queued, 0u) << where;
}

TEST(EndpointSoak, ManyEagerMessagesLeaveNoResidue) {
  runtime::Universe universe(soak_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    constexpr int kWaves = 50;
    constexpr int kPerWave = 20;
    for (int wave = 0; wave < kWaves; ++wave) {
      // Chunked messages (600 B through 256 B cells) so every message
      // exercises assembly and the matched-keepalive path.
      if (ctx.rank() == 0) {
        for (int i = 0; i < kPerWave; ++i) {
          check_ok(ep.send(1, wave, pattern(600, wave * kPerWave + i)));
        }
      } else {
        std::vector<std::byte> buffer(600);
        for (int i = 0; i < kPerWave; ++i) {
          const RecvInfo info = check_ok(ep.recv(0, wave, buffer));
          ASSERT_EQ(info.bytes, 600u);
          ASSERT_EQ(buffer, pattern(600, wave * kPerWave + i));
        }
      }
      ctx.barrier();
      expect_drained(ep, "after eager wave");
    }
  });
}

TEST(EndpointSoak, ManySynchronousSendsLeaveNoResidue) {
  runtime::Universe universe(soak_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    constexpr int kMessages = 200;
    for (int i = 0; i < kMessages; ++i) {
      if (ctx.rank() == 0) {
        check_ok(ep.ssend(1, 5, pattern(100, i)));
      } else {
        std::vector<std::byte> buffer(100);
        check_ok(ep.recv(0, 5, buffer));
        ASSERT_EQ(buffer, pattern(100, i));
      }
    }
    ctx.barrier();
    // A completed Ssend must not keep its internal ack request alive, and
    // the receiver must not accumulate matched keepalives.
    ep.progress();
    expect_drained(ep, "after ssend soak");
  });
}

TEST(EndpointSoak, ManySynchronousSendsDoNotGrowTheHeap) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer runtime owns the heap";
#endif
  runtime::Universe universe(soak_config());
  std::size_t before = 0;
  std::size_t after = 0;
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    constexpr int kMessages = 5000;
    const std::vector<std::byte> payload = pattern(8, 3);
    std::vector<std::byte> buffer(payload.size());
    // Rank 1 waits in the barrier while rank 0 samples the heap.
    ctx.barrier();
    if (ctx.rank() == 0) {
      before = mallinfo2().uordblks;
    }
    ctx.barrier();
    for (int i = 0; i < kMessages; ++i) {
      if (ctx.rank() == 0) {
        check_ok(ep.ssend(1, 5, payload));
      } else {
        check_ok(ep.recv(0, 5, buffer));
      }
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      after = mallinfo2().uordblks;
    }
    ctx.barrier();
  });
  // Every Ssend posts its match-ack receive under a fresh tag: nothing
  // may stay behind per tag once the ack has matched.
  EXPECT_LT(static_cast<double>(after) - static_cast<double>(before),
            256.0 * 1024)
      << "heap grew from " << before << " B to " << after << " B";
}

TEST(EndpointSoak, PrepostedIrecvWavesLeaveNoResidue) {
  runtime::Universe universe(soak_config());
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    constexpr int kWaves = 40;
    constexpr int kPerWave = 8;
    for (int wave = 0; wave < kWaves; ++wave) {
      if (ctx.rank() == 1) {
        // Pre-post the whole wave so every message matches a posted recv
        // (the matched_keepalive_ path, not the unexpected queue).
        std::vector<std::vector<std::byte>> buffers(
            kPerWave, std::vector<std::byte>(600));
        std::vector<RequestPtr> recvs;
        for (int i = 0; i < kPerWave; ++i) {
          recvs.push_back(
              ep.irecv(0, wave * kPerWave + i,
                       buffers[static_cast<std::size_t>(i)]));
        }
        ctx.barrier();  // sender starts only once the recvs are posted
        check_ok(ep.wait_all(recvs));
        for (int i = 0; i < kPerWave; ++i) {
          ASSERT_EQ(buffers[static_cast<std::size_t>(i)],
                    pattern(600, wave * kPerWave + i));
        }
      } else {
        ctx.barrier();
        // isend keeps a span into the caller's buffer until completion.
        std::vector<std::vector<std::byte>> payloads;
        for (int i = 0; i < kPerWave; ++i) {
          payloads.push_back(pattern(600, wave * kPerWave + i));
        }
        std::vector<RequestPtr> sends;
        for (int i = 0; i < kPerWave; ++i) {
          sends.push_back(ep.isend(1, wave * kPerWave + i,
                                   payloads[static_cast<std::size_t>(i)]));
        }
        check_ok(ep.wait_all(sends));
      }
      ctx.barrier();
      expect_drained(ep, "after preposted wave");
    }
  });
}

}  // namespace
}  // namespace cmpi::p2p
