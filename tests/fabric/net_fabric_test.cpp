#include "fabric/net_fabric.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cmpi::fabric {
namespace {

NetConfig config_for(unsigned nodes, unsigned per_node,
                     NicProfile profile = tcp_ethernet()) {
  NetConfig cfg;
  cfg.nodes = nodes;
  cfg.ranks_per_node = per_node;
  cfg.profile = std::move(profile);
  return cfg;
}

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed * 31 + i) & 0xFF);
  }
  return out;
}

TEST(Profiles, RawLatencyMatchesTable1) {
  // raw one-way latency = o_s + L + o_r.
  const auto raw = [](const NicProfile& p) {
    return p.loggp.send_overhead + p.loggp.wire_latency +
           p.loggp.recv_overhead;
  };
  EXPECT_DOUBLE_EQ(raw(tcp_ethernet()), 16000.0);
  EXPECT_DOUBLE_EQ(raw(tcp_cx6dx()), 18000.0);
  EXPECT_NEAR(raw(rocev2_cx6dx()), 1600.0, 1.0);
  EXPECT_NEAR(raw(rocev2_cx3()), 2000.0, 1.0);
  EXPECT_NEAR(raw(infiniband_cx6()), 600.0, 1.0);
}

TEST(Profiles, BandwidthMatchesTable1) {
  EXPECT_DOUBLE_EQ(tcp_ethernet().loggp.wire_bytes_per_ns, 0.1178);
  EXPECT_DOUBLE_EQ(tcp_cx6dx().loggp.wire_bytes_per_ns, 11.5);
  EXPECT_DOUBLE_EQ(rocev2_cx6dx().loggp.wire_bytes_per_ns, 10.8);
  EXPECT_DOUBLE_EQ(infiniband_cx6().loggp.wire_bytes_per_ns, 25.0);
}

TEST(NetFabric, SendRecvRoundTrip) {
  NetUniverse universe(config_for(2, 1));
  universe.run([&](NetCtx& ctx) {
    const auto data = pattern(200, 1);
    if (ctx.rank() == 0) {
      ctx.send(1, 7, data);
    } else {
      std::vector<std::byte> got(200);
      EXPECT_EQ(ctx.recv(0, 7, got), 200u);
      EXPECT_EQ(got, data);
    }
  });
}

TEST(NetFabric, TagFiltering) {
  NetUniverse universe(config_for(2, 1));
  universe.run([&](NetCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, pattern(8, 1));
      ctx.send(1, 2, pattern(8, 2));
    } else {
      std::vector<std::byte> got(8);
      ctx.recv(0, 2, got);  // out of order by tag
      EXPECT_EQ(got, pattern(8, 2));
      ctx.recv(0, 1, got);
      EXPECT_EQ(got, pattern(8, 1));
    }
  });
}

TEST(NetFabric, TwoSidedLatencyCalibratedToPaper) {
  // §4.2: small-message two-sided latency ≈ 160 us over Ethernet and
  // ≈ 55 us over TCP/CX-6 Dx.
  const auto measure = [](NicProfile profile) {
    NetUniverse universe(config_for(2, 1, std::move(profile)));
    double result = 0;
    universe.run([&](NetCtx& ctx) {
      constexpr int kIters = 20;
      std::array<std::byte, 8> buffer{};
      ctx.barrier();
      const double start = ctx.clock().now();
      for (int i = 0; i < kIters; ++i) {
        if (ctx.rank() == 0) {
          ctx.send(1, 0, buffer);
          ctx.recv(1, 0, buffer);
        } else {
          ctx.recv(0, 0, buffer);
          ctx.send(0, 0, buffer);
        }
      }
      if (ctx.rank() == 0) {
        result = (ctx.clock().now() - start) / kIters / 2.0;
      }
    });
    return result;
  };
  const double ethernet_us = measure(tcp_ethernet()) / 1000.0;
  EXPECT_GT(ethernet_us, 120.0);
  EXPECT_LT(ethernet_us, 200.0);
  const double cx6_us = measure(tcp_cx6dx()) / 1000.0;
  EXPECT_GT(cx6_us, 40.0);
  EXPECT_LT(cx6_us, 70.0);
}

TEST(NetFabric, WireSaturatesAcrossPairs) {
  // 4 sender/receiver pairs across 2 nodes share one wire: aggregate
  // bandwidth ~ the NIC rate, not 4x.
  NetConfig cfg = config_for(2, 4, tcp_cx6dx());
  NetUniverse universe(cfg);
  constexpr std::size_t kBytes = 4_MiB;
  std::array<double, 8> finish{};
  universe.run([&](NetCtx& ctx) {
    const auto data = pattern(kBytes, 0);
    std::vector<std::byte> buffer(kBytes);
    ctx.barrier();
    if (ctx.node() == 0) {
      const int dst = ctx.rank() + 4;
      for (int i = 0; i < 4; ++i) {
        ctx.send(dst, 0, data);
      }
    } else {
      const int src = ctx.rank() - 4;
      for (int i = 0; i < 4; ++i) {
        ctx.recv(src, 0, buffer);
      }
    }
    finish[static_cast<std::size_t>(ctx.rank())] = ctx.clock().now();
  });
  const double last = *std::max_element(finish.begin(), finish.end());
  const double aggregate =
      16.0 * kBytes / last;  // bytes/ns over all 16 messages
  // Capped by the shared wire (11.5 B/ns) from above; well above a single
  // pair's CPU-injection-limited ~1.5 B/ns from below (4 pairs scale).
  EXPECT_LT(aggregate, 11.5 * 1.05);
  EXPECT_GT(aggregate, 4.0);
}

TEST(NetFabric, FlowControlBlocksFastSender) {
  NicProfile profile = tcp_cx6dx();
  profile.sndbuf = 1_MiB;
  NetUniverse universe(config_for(2, 1, std::move(profile)));
  universe.run([&](NetCtx& ctx) {
    const std::size_t msg = 512_KiB;
    if (ctx.rank() == 0) {
      const auto data = pattern(msg, 1);
      for (int i = 0; i < 8; ++i) {
        ctx.send(1, 0, data);
      }
      // The receiver idles 1 ms per message; a flow-controlled sender
      // must have inherited some of that lag.
      EXPECT_GT(ctx.clock().now(), 2e6);
    } else {
      std::vector<std::byte> buffer(msg);
      for (int i = 0; i < 8; ++i) {
        ctx.clock().advance(1e6);
        ctx.recv(0, 0, buffer);
      }
    }
  });
}

TEST(NetFabric, IntraNodeMessagesSkipTheWire) {
  NetUniverse universe(config_for(1, 2, tcp_ethernet()));
  universe.run([&](NetCtx& ctx) {
    std::array<std::byte, 8> buffer{};
    if (ctx.rank() == 0) {
      ctx.send(1, 0, buffer);
    } else {
      ctx.recv(0, 0, buffer);
      // Far below the 16 us Ethernet raw latency (plus MPI overheads).
      EXPECT_LT(ctx.clock().now(), 2 * tcp_ethernet().mpi_msg_overhead +
                                       10000);
    }
  });
}

TEST(NetFabric, BarrierSynchronizesVirtualTime) {
  NetUniverse universe(config_for(2, 2));
  universe.run([&](NetCtx& ctx) {
    if (ctx.rank() == 3) {
      ctx.clock().advance(9e6);
    }
    ctx.barrier();
    EXPECT_GE(ctx.clock().now(), 9e6);
  });
}

TEST(NetUniverse, RankErrorIsRethrownAfterEveryRankReturns) {
  NetUniverse universe(config_for(2, 2));
  std::atomic<int> finished{0};
  EXPECT_THROW(
      universe.run([&](NetCtx& ctx) {
        if (ctx.rank() == 1) {
          throw std::runtime_error("rank 1 failed");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1);
      }),
      std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

TEST(NetWindow, PutPscwRoundTrip) {
  NetUniverse universe(config_for(2, 1, tcp_cx6dx()));
  universe.run([&](NetCtx& ctx) {
    NetWindow win(ctx, "w1", 4096);
    const std::array<int, 1> origin{0};
    const std::array<int, 1> target{1};
    const auto data = pattern(256, 3);
    if (ctx.rank() == 0) {
      win.start(target);
      win.put(1, 64, data);
      win.complete(target);
    } else {
      win.post(origin);
      win.wait(origin);
      std::vector<std::byte> got(256);
      win.read_local(64, got);
      EXPECT_EQ(got, data);
    }
  });
}

TEST(NetWindow, OneSidedLatencyIsHundredsOfMicroseconds) {
  // §4.2: one-sided-over-TCP latency ~620-630 us for both NICs (progress
  // emulation dominates).
  const auto measure = [](NicProfile profile) {
    NetUniverse universe(config_for(2, 1, std::move(profile)));
    double result = 0;
    universe.run([&](NetCtx& ctx) {
      NetWindow win(ctx, "lat", 4096);
      const std::array<int, 1> origin{0};
      const std::array<int, 1> target{1};
      constexpr int kIters = 10;
      win.fence();
      const double start = ctx.clock().now();
      std::array<std::byte, 8> cell{};
      for (int i = 0; i < kIters; ++i) {
        if (ctx.rank() == 0) {
          win.start(target);
          win.put(1, 0, cell);
          win.complete(target);
        } else {
          win.post(origin);
          win.wait(origin);
        }
      }
      win.fence();
      if (ctx.rank() == 0) {
        result = (ctx.clock().now() - start) / kIters;
      }
    });
    return result;
  };
  const double ethernet_us = measure(tcp_ethernet()) / 1000.0;
  EXPECT_GT(ethernet_us, 400.0);
  EXPECT_LT(ethernet_us, 900.0);
  const double cx6_us = measure(tcp_cx6dx()) / 1000.0;
  EXPECT_GT(cx6_us, 400.0);
  EXPECT_LT(cx6_us, 900.0);
}

TEST(NetWindow, GetFetchesData) {
  NetUniverse universe(config_for(2, 1, tcp_cx6dx()));
  universe.run([&](NetCtx& ctx) {
    NetWindow win(ctx, "getwin", 1024);
    const auto data = pattern(128, 9);
    if (ctx.rank() == 1) {
      win.write_local(0, data);
    }
    win.fence();
    if (ctx.rank() == 0) {
      std::vector<std::byte> got(128);
      const double before = ctx.clock().now();
      win.get(1, 0, got);
      EXPECT_EQ(got, data);
      // A get costs a request round trip plus progress delay.
      EXPECT_GT(ctx.clock().now() - before,
                tcp_cx6dx().rma_sync_overhead);
    }
    win.fence();
  });
}

}  // namespace
}  // namespace cmpi::fabric
