#include "p2p/endpoint.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

namespace cmpi::p2p {
namespace {

runtime::UniverseConfig small_config(unsigned nodes, unsigned per_node,
                                     std::size_t cell_payload = 1_KiB,
                                     std::size_t ring_cells = 4) {
  runtime::UniverseConfig cfg;
  cfg.nodes = nodes;
  cfg.ranks_per_node = per_node;
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

TEST(Endpoint, SmallBlockingSendRecv) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(100, 1);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 7, data));
    } else {
      std::vector<std::byte> buffer(100);
      const RecvInfo info = check_ok(ep.recv(0, 7, buffer));
      EXPECT_EQ(info.source, 0);
      EXPECT_EQ(info.tag, 7);
      EXPECT_EQ(info.bytes, 100u);
      EXPECT_EQ(buffer, data);
    }
  });
}

TEST(Endpoint, LargeMessageIsChunkedAcrossCells) {
  // 10 KiB message through 1 KiB cells: 10 chunks over a 4-cell ring —
  // requires overlap between producer and consumer.
  runtime::Universe universe(small_config(2, 1, 1_KiB, 4));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(10 * 1024, 2);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 0, data));
    } else {
      std::vector<std::byte> buffer(10 * 1024);
      const RecvInfo info = check_ok(ep.recv(0, 0, buffer));
      EXPECT_EQ(info.bytes, data.size());
      EXPECT_EQ(buffer, data);
    }
  });
}

TEST(Endpoint, MessageLargerThanWholeRing) {
  runtime::Universe universe(small_config(2, 1, 256, 2));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto data = pattern(64 * 1024, 3);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 1, data));
    } else {
      std::vector<std::byte> buffer(64 * 1024);
      check_ok(ep.recv(0, 1, buffer));
      EXPECT_EQ(buffer, data);
    }
  });
}

TEST(Endpoint, ZeroByteMessage) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 3, {}));
    } else {
      const RecvInfo info = check_ok(ep.recv(0, 3, {}));
      EXPECT_EQ(info.bytes, 0u);
      EXPECT_EQ(info.tag, 3);
    }
  });
}

TEST(Endpoint, TagMatchingOutOfOrder) {
  // Sender sends tag 1 then tag 2; receiver posts tag 2 first. Tag-1 must
  // wait in the unexpected queue while tag 2 is... still behind tag 1 in
  // the ring, so the receiver's progress engine must buffer tag 1 to reach
  // tag 2.
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto msg1 = pattern(64, 10);
    const auto msg2 = pattern(64, 20);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 1, msg1));
      check_ok(ep.send(1, 2, msg2));
    } else {
      std::vector<std::byte> buf2(64);
      std::vector<std::byte> buf1(64);
      check_ok(ep.recv(0, 2, buf2));
      EXPECT_EQ(buf2, msg2);
      check_ok(ep.recv(0, 1, buf1));
      EXPECT_EQ(buf1, msg1);
    }
  });
}

TEST(Endpoint, SameTagFifoOrder) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    constexpr int kMessages = 20;
    if (ctx.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        std::uint32_t value = static_cast<std::uint32_t>(i);
        check_ok(ep.send(1, 5,
                         {reinterpret_cast<const std::byte*>(&value),
                          sizeof value}));
      }
    } else {
      for (int i = 0; i < kMessages; ++i) {
        std::uint32_t value = 0;
        check_ok(ep.recv(0, 5,
                         {reinterpret_cast<std::byte*>(&value), sizeof value}));
        EXPECT_EQ(value, static_cast<std::uint32_t>(i));
      }
    }
  });
}

TEST(Endpoint, WildcardSourceAndTag) {
  runtime::Universe universe(small_config(3, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    if (ctx.rank() != 0) {
      const auto data = pattern(32, ctx.rank());
      check_ok(ep.send(0, ctx.rank() * 11, data));
    } else {
      bool seen[3] = {false, true, true};
      for (int i = 0; i < 2; ++i) {
        std::vector<std::byte> buffer(32);
        const RecvInfo info =
            check_ok(ep.recv(kAnySource, kAnyTag, buffer));
        EXPECT_EQ(info.tag, info.source * 11);
        EXPECT_EQ(buffer, pattern(32, info.source));
        seen[info.source] = !seen[info.source] ? true : seen[info.source];
        seen[info.source] = true;
      }
      EXPECT_TRUE(seen[1]);
      EXPECT_TRUE(seen[2]);
    }
  });
}

TEST(Endpoint, NonblockingSendRecvWaitAll) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    constexpr int kCount = 8;
    if (ctx.rank() == 0) {
      std::vector<std::vector<std::byte>> buffers;
      std::vector<RequestPtr> reqs;
      for (int i = 0; i < kCount; ++i) {
        buffers.push_back(pattern(512, i));
        reqs.push_back(ep.isend(1, i, buffers.back()));
      }
      check_ok(ep.wait_all(reqs));
    } else {
      std::vector<std::vector<std::byte>> buffers(kCount,
                                                  std::vector<std::byte>(512));
      std::vector<RequestPtr> reqs;
      for (int i = 0; i < kCount; ++i) {
        reqs.push_back(ep.irecv(0, i, buffers[static_cast<std::size_t>(i)]));
      }
      check_ok(ep.wait_all(reqs));
      for (int i = 0; i < kCount; ++i) {
        EXPECT_EQ(buffers[static_cast<std::size_t>(i)], pattern(512, i));
      }
    }
  });
}

TEST(Endpoint, TestReportsCompletionEventually) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    if (ctx.rank() == 0) {
      const auto data = pattern(64, 1);
      check_ok(ep.send(1, 0, data));
    } else {
      std::vector<std::byte> buffer(64);
      const RequestPtr req = ep.irecv(0, 0, buffer);
      while (!ep.test(req)) {
        // spin via test(), the MPI_Test loop idiom
      }
      EXPECT_TRUE(req->complete());
      EXPECT_EQ(req->info().bytes, 64u);
    }
  });
}

TEST(Endpoint, TruncationReportsError) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    if (ctx.rank() == 0) {
      const auto data = pattern(256, 4);
      check_ok(ep.send(1, 0, data));
    } else {
      std::vector<std::byte> buffer(100);  // too small
      const auto result = ep.recv(0, 0, buffer);
      EXPECT_FALSE(result.is_ok());
      EXPECT_EQ(result.status().code(), ErrorCode::kTruncated);
      // The bytes that fit must still be correct.
      const auto expected = pattern(256, 4);
      EXPECT_EQ(std::memcmp(buffer.data(), expected.data(), 100), 0);
    }
  });
}

TEST(Endpoint, TruncationOfChunkedMessage) {
  runtime::Universe universe(small_config(2, 1, 256, 4));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 0, pattern(4096, 5)));
    } else {
      std::vector<std::byte> buffer(300);  // cuts mid-chunk
      const auto result = ep.recv(0, 0, buffer);
      EXPECT_EQ(result.status().code(), ErrorCode::kTruncated);
      const auto expected = pattern(4096, 5);
      EXPECT_EQ(std::memcmp(buffer.data(), expected.data(), 300), 0);
    }
  });
}

TEST(Endpoint, UnexpectedMessageBuffered) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 9, pattern(128, 6)));
      check_ok(ep.send(1, 9, pattern(128, 7)));  // both before any recv
    } else {
      // Ensure both messages are already drained as unexpected.
      std::optional<RecvInfo> probed;
      ctx.doorbell().wait_until([&] {
        probed = ep.iprobe(0, 9);
        return probed.has_value();
      });
      EXPECT_EQ(probed->bytes, 128u);
      std::vector<std::byte> a(128);
      std::vector<std::byte> b(128);
      check_ok(ep.recv(0, 9, a));
      check_ok(ep.recv(0, 9, b));
      EXPECT_EQ(a, pattern(128, 6));
      EXPECT_EQ(b, pattern(128, 7));
    }
  });
}

TEST(Endpoint, IprobeDoesNotConsume) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 2, pattern(64, 8)));
    } else {
      std::optional<RecvInfo> probed;
      ctx.doorbell().wait_until([&] {
        probed = ep.iprobe(kAnySource, kAnyTag);
        return probed.has_value();
      });
      // Probe again: still there.
      EXPECT_TRUE(ep.iprobe(0, 2).has_value());
      std::vector<std::byte> buffer(64);
      check_ok(ep.recv(0, 2, buffer));
      EXPECT_FALSE(ep.iprobe(0, 2).has_value());
    }
  });
}

TEST(Endpoint, BlockingProbeReportsEnvelope) {
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    if (ctx.rank() == 0) {
      check_ok(ep.send(1, 4, pattern(300, 2)));
    } else {
      const RecvInfo info = ep.probe(0, 4);
      EXPECT_EQ(info.source, 0);
      EXPECT_EQ(info.tag, 4);
      EXPECT_EQ(info.bytes, 300u);
      // Probe sizes the buffer, like the classic MPI_Probe idiom.
      std::vector<std::byte> buffer(info.bytes);
      check_ok(ep.recv(0, 4, buffer).status());
      EXPECT_EQ(buffer, pattern(300, 2));
    }
  });
}

// A receive absorbs the time of the message it consumes, not of a later
// message drained in the same batch: rank 1 sends A, works 1 ms, publishes
// B, and only then lets rank 0 receive A. A must complete before B was
// sent; probing and receiving B must read at least B's send time.
void expect_stamp_lands_when_consumed(std::size_t b_bytes) {
  runtime::Universe universe(small_config(2, 1, 16_KiB, 16));
  std::atomic<bool> b_published{false};
  double b_sent_at = 0;  // written by rank 1 before the release store
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto a = pattern(8, 1);
    const auto b = pattern(b_bytes, 2);
    if (ctx.rank() == 1) {
      check_ok(ep.send(0, 1, a));
      ctx.clock().advance(1e6);
      b_sent_at = ctx.clock().now();
      const RequestPtr sent = ep.isend(0, 2, b);
      ep.test(sent);  // a flush point: B's cells are visible from here on
      b_published.store(true, std::memory_order_release);
      check_ok(ep.wait(sent));
    } else {
      while (!b_published.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::vector<std::byte> a_in(a.size());
      check_ok(ep.recv(1, 1, a_in));
      EXPECT_EQ(a_in, a);
      EXPECT_LT(ctx.clock().now(), b_sent_at);
      EXPECT_EQ(ep.probe(1, 2).bytes, b_bytes);
      EXPECT_GE(ctx.clock().now(), b_sent_at);
      std::vector<std::byte> b_in(b_bytes);
      check_ok(ep.recv(1, 2, b_in));
      EXPECT_GE(ctx.clock().now(), b_sent_at);
      EXPECT_EQ(b_in, b);
    }
  });
}

TEST(Endpoint, EagerStampLandsWhenConsumed) {
  expect_stamp_lands_when_consumed(8);
}

TEST(Endpoint, RendezvousStampLandsWhenConsumed) {
  expect_stamp_lands_when_consumed(256_KiB);
}

// A parked message's data is ready no earlier than a posted receive's:
// its cells must be written before they are read, one after another,
// even when the receiver drained them early. Rank 1 sends the same
// message twice, 1 ms after its previous step: B1 parks behind A, B2
// lands in a posted receive. Receiving B1 must take as long after its
// send as B2 does, less the ring head publish that follows B2's reads
// (B1's drain published it early).
void expect_parked_read_follows_the_stamp(std::size_t cell_payload,
                                          std::size_t b_bytes) {
  runtime::UniverseConfig cfg = small_config(2, 1, cell_payload, 16);
  cfg.mpi_call_overhead = 0;
  cfg.rendezvous_threshold = std::numeric_limits<std::size_t>::max();
  runtime::Universe universe(cfg);
  std::atomic<int> phase{0};
  std::array<double, 2> sent_at{};      // rank 1
  std::array<double, 2> received_at{};  // rank 0
  double head_publish = 0;              // rank 0
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const auto a = pattern(8, 1);
    const auto b = pattern(b_bytes, 2);
    auto send_b = [&](int tag, std::size_t i) {
      ctx.clock().advance(1e6);
      sent_at[i] = ctx.clock().now();
      const RequestPtr sent = ep.isend(0, tag, b);
      ep.test(sent);  // a flush point: B's cells are visible from here on
      return sent;
    };
    if (ctx.rank() == 1) {
      check_ok(ep.send(0, 1, a));
      const RequestPtr parked = send_b(2, 0);
      phase.store(1, std::memory_order_release);
      check_ok(ep.wait(parked));
      while (phase.load(std::memory_order_acquire) != 2) {
        std::this_thread::yield();
      }
      check_ok(ep.wait(send_b(3, 1)));
    } else {
      const auto& params = ctx.device().timing().params();
      head_publish = params.fence_cost + params.nt_store_latency;
      while (phase.load(std::memory_order_acquire) != 1) {
        std::this_thread::yield();
      }
      std::vector<std::byte> a_in(a.size());
      std::vector<std::byte> b_in(b.size());
      check_ok(ep.recv(1, 1, a_in));  // drains B1 too: it parks
      check_ok(ep.recv(1, 2, b_in));
      received_at[0] = ctx.clock().now();
      EXPECT_EQ(b_in, b);
      const RequestPtr posted = ep.irecv(1, 3, b_in);
      phase.store(2, std::memory_order_release);
      check_ok(ep.wait(posted));
      received_at[1] = ctx.clock().now();
      EXPECT_EQ(b_in, b);
    }
  });
  EXPECT_GE(received_at[0] - sent_at[0],
            received_at[1] - sent_at[1] - head_publish);
}

TEST(Endpoint, ParkedReadFollowsTheCellStamp) {
  expect_parked_read_follows_the_stamp(16_KiB, 4_KiB);
}

TEST(Endpoint, ParkedCellsAreReadOneAfterAnother) {
  expect_parked_read_follows_the_stamp(4_KiB, 12_KiB);
}

TEST(Endpoint, SendrecvExchangesWithoutDeadlock) {
  runtime::Universe universe(small_config(2, 2));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const int n = ctx.nranks();
    // Shift pattern: everyone sendrecvs with both neighbors in a ring.
    const int right = (ctx.rank() + 1) % n;
    const int left = (ctx.rank() - 1 + n) % n;
    const auto mine = pattern(128, ctx.rank());
    std::vector<std::byte> from_left(128);
    RecvInfo info;
    check_ok(ep.sendrecv(right, 1, mine, left, 1, from_left, &info));
    EXPECT_EQ(info.source, left);
    EXPECT_EQ(from_left, pattern(128, left));
  });
}

TEST(Endpoint, BidirectionalExchangeDoesNotDeadlock) {
  // Both ranks blocking-send a message larger than the whole ring before
  // receiving — the progress engine inside the send wait loop must drain
  // incoming traffic to unexpected buffers.
  runtime::Universe universe(small_config(2, 1, 256, 2));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const int peer = 1 - ctx.rank();
    const auto mine = pattern(8 * 1024, ctx.rank());
    check_ok(ep.send(peer, 0, mine));
    std::vector<std::byte> buffer(8 * 1024);
    check_ok(ep.recv(peer, 0, buffer));
    EXPECT_EQ(buffer, pattern(8 * 1024, peer));
  });
}

TEST(Endpoint, AllToAllExchange) {
  constexpr unsigned kNodes = 2;
  constexpr unsigned kPerNode = 2;
  runtime::Universe universe(small_config(kNodes, kPerNode));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const int n = ctx.nranks();
    std::vector<RequestPtr> reqs;
    std::vector<std::vector<std::byte>> inbox(
        static_cast<std::size_t>(n), std::vector<std::byte>(64));
    std::vector<std::vector<std::byte>> outbox;
    for (int peer = 0; peer < n; ++peer) {
      if (peer == ctx.rank()) {
        continue;
      }
      reqs.push_back(ep.irecv(peer, 0, inbox[static_cast<std::size_t>(peer)]));
      outbox.push_back(pattern(64, ctx.rank() * 100 + peer));
      reqs.push_back(ep.isend(peer, 0, outbox.back()));
    }
    check_ok(ep.wait_all(reqs));
    for (int peer = 0; peer < n; ++peer) {
      if (peer == ctx.rank()) {
        continue;
      }
      EXPECT_EQ(inbox[static_cast<std::size_t>(peer)],
                pattern(64, peer * 100 + ctx.rank()));
    }
  });
}

TEST(Endpoint, VirtualLatencyIsMicrosecondScale) {
  // Sanity check on the modeled two-sided latency: a small-message
  // ping-pong should land in the ~5-30 us range the paper reports for
  // CXL SHM (Fig. 8: ~12 us), not ns or ms.
  runtime::Universe universe(small_config(2, 1));
  universe.run([&](runtime::RankCtx& ctx) {
    Endpoint ep = Endpoint::create(ctx);
    const int peer = 1 - ctx.rank();
    std::vector<std::byte> buffer(8);
    constexpr int kIters = 50;
    ctx.barrier();
    const double start = ctx.clock().now();
    for (int i = 0; i < kIters; ++i) {
      if (ctx.rank() == 0) {
        check_ok(ep.send(peer, 0, buffer));
        check_ok(ep.recv(peer, 0, buffer));
      } else {
        check_ok(ep.recv(peer, 0, buffer));
        check_ok(ep.send(peer, 0, buffer));
      }
    }
    const double one_way_us =
        (ctx.clock().now() - start) / kIters / 2.0 / 1000.0;
    EXPECT_GT(one_way_us, 2.0);
    EXPECT_LT(one_way_us, 40.0);
  });
}

}  // namespace
}  // namespace cmpi::p2p
