#include "fabric/pod_fabric.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fabric/pod_cluster.hpp"
#include "fabric/profiles.hpp"
#include "simtime/vclock.hpp"

namespace cmpi::fabric {
namespace {

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed * 31 + i) & 0xFF);
  }
  return out;
}

PodFabricConfig config_for(int pods, int ranks_per_pod) {
  PodFabricConfig cfg;
  cfg.topo.pods = pods;
  cfg.topo.ranks_per_pod = ranks_per_pod;
  cfg.topo.router_local = 0;
  return cfg;
}

// ---- Satellite: profiles parameter validation (Status, not assert) ----

TEST(ProfileValidation, BuiltInProfilesAreValid) {
  for (const auto& p : {tcp_ethernet(), tcp_cx6dx(), rocev2_cx6dx(),
                        rocev2_cx3(), infiniband_cx6()}) {
    EXPECT_TRUE(validate(p).is_ok()) << p.name;
  }
}

TEST(ProfileValidation, RejectsNonFiniteAndNegativeInputs) {
  NicProfile p = tcp_cx6dx();
  p.loggp.wire_latency = -1.0;
  EXPECT_EQ(validate(p).code(), ErrorCode::kInvalidArgument);

  p = tcp_cx6dx();
  p.loggp.send_overhead = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(validate(p).code(), ErrorCode::kInvalidArgument);

  p = tcp_cx6dx();
  p.loggp.wire_bytes_per_ns = 0.0;
  EXPECT_EQ(validate(p).code(), ErrorCode::kInvalidArgument);

  p = tcp_cx6dx();
  p.loggp.wire_bytes_per_ns = std::numeric_limits<double>::infinity();
  EXPECT_EQ(validate(p).code(), ErrorCode::kInvalidArgument);

  p = tcp_cx6dx();
  p.loggp.mtu = 0;
  EXPECT_EQ(validate(p).code(), ErrorCode::kInvalidArgument);

  p = tcp_cx6dx();
  p.mpi_msg_overhead = -5.0;
  EXPECT_EQ(validate(p).code(), ErrorCode::kInvalidArgument);

  p = tcp_cx6dx();
  p.sndbuf = 0;
  EXPECT_EQ(validate(p).code(), ErrorCode::kInvalidArgument);
}

TEST(ProfileValidation, ErrorNamesTheOffendingField) {
  NicProfile p = tcp_cx6dx();
  p.loggp.recv_overhead = -1.0;
  const Status s = validate(p);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("recv_overhead"), std::string::npos)
      << s.message();
}

TEST(ProfileValidation, MakeProfileValidatesInputs) {
  EXPECT_EQ(make_profile("bad", -100.0, 10.0).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(make_profile("bad", 1000.0, 0.0).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(
      make_profile("bad", std::numeric_limits<double>::quiet_NaN(), 10.0)
          .status()
          .code(),
      ErrorCode::kInvalidArgument);

  auto good = make_profile("custom", 8000.0, 12.0, 500.0);
  ASSERT_TRUE(good.is_ok());
  const NicProfile& p = good.value();
  EXPECT_EQ(p.name, "custom");
  // Latency split: o_s + L + o_r reconstructs the requested one-way cost.
  EXPECT_DOUBLE_EQ(p.loggp.send_overhead + p.loggp.wire_latency +
                       p.loggp.recv_overhead,
                   8000.0);
  EXPECT_DOUBLE_EQ(p.loggp.wire_bytes_per_ns, 12.0);
  EXPECT_TRUE(validate(p).is_ok());
}

// ---- PodFabric creation and validation ----

TEST(PodFabric, CreateRejectsBadConfig) {
  PodFabricConfig cfg = config_for(0, 4);
  EXPECT_EQ(PodFabric::create(cfg).status().code(),
            ErrorCode::kInvalidArgument);

  cfg = config_for(2, 4);
  cfg.profile.loggp.wire_bytes_per_ns = -1.0;
  EXPECT_EQ(PodFabric::create(cfg).status().code(),
            ErrorCode::kInvalidArgument);

  cfg = config_for(2, 4);
  cfg.pod_hop_bytes_per_ns = 0.0;
  EXPECT_EQ(PodFabric::create(cfg).status().code(),
            ErrorCode::kInvalidArgument);

  EXPECT_TRUE(PodFabric::create(config_for(2, 4)).is_ok());
}

TEST(PodFabric, CrossPodRoundTripAndTiming) {
  auto fabric = check_ok(PodFabric::create(config_for(2, 2)));
  simtime::VClock sender;
  simtime::VClock receiver;
  const auto data = pattern(256, 3);
  // Rank 1 (pod 0, non-router) -> rank 3 (pod 1, non-router).
  ASSERT_TRUE(fabric->send(sender, 1, 3, 7, data).is_ok());
  EXPECT_GT(sender.now(), 0.0);

  std::vector<std::byte> got(256);
  auto info = fabric->recv(receiver, 3, 1, 7, got);
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().source, 1);
  EXPECT_EQ(info.value().tag, 7);
  EXPECT_EQ(info.value().bytes, 256u);
  EXPECT_EQ(got, data);
  // The receiver observed delivery: two pool hops + both routers + the
  // wire are all strictly positive costs.
  const PodFabricConfig cfg = config_for(2, 2);
  EXPECT_GT(receiver.now(), 2 * cfg.pod_hop_latency);
}

TEST(PodFabric, WildcardRecvDeliversEarliestFirst) {
  // Three senders at staggered virtual times; ANY_SOURCE receives must
  // drain in delivery-time order, not enqueue order.
  auto fabric = check_ok(PodFabric::create(config_for(4, 2)));
  // Senders: rank 2 (pod 1), rank 4 (pod 2), rank 6 (pod 3) -> rank 0.
  // Give the later-enqueued sends EARLIER start clocks.
  simtime::VClock late;
  late.advance(5.0e6);
  simtime::VClock mid;
  mid.advance(2.5e6);
  simtime::VClock early;
  const auto a = pattern(16, 1);
  const auto b = pattern(16, 2);
  const auto c = pattern(16, 3);
  ASSERT_TRUE(fabric->send(late, 2, 0, 9, a).is_ok());
  ASSERT_TRUE(fabric->send(mid, 4, 0, 9, b).is_ok());
  ASSERT_TRUE(fabric->send(early, 6, 0, 9, c).is_ok());

  simtime::VClock rc;
  std::vector<std::byte> got(16);
  auto first = fabric->recv(rc, 0, kAnyPodSource, kAnyPodTag, got);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().source, 6);
  EXPECT_EQ(got, c);
  auto second = fabric->recv(rc, 0, kAnyPodSource, kAnyPodTag, got);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().source, 4);
  EXPECT_EQ(got, b);
  auto third = fabric->recv(rc, 0, kAnyPodSource, kAnyPodTag, got);
  ASSERT_TRUE(third.is_ok());
  EXPECT_EQ(third.value().source, 2);
  EXPECT_EQ(got, a);
}

TEST(PodFabric, PerSourceOrderIsFifo) {
  auto fabric = check_ok(PodFabric::create(config_for(2, 2)));
  simtime::VClock sc;
  std::vector<std::vector<std::byte>> sent;
  for (int i = 0; i < 8; ++i) {
    sent.push_back(pattern(32, i));
    ASSERT_TRUE(fabric->send(sc, 2, 0, 5, sent.back()).is_ok());
  }
  simtime::VClock rc;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::byte> got(32);
    auto info = fabric->recv(rc, 0, 2, 5, got);
    ASSERT_TRUE(info.is_ok());
    EXPECT_EQ(got, sent[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(PodFabric, RouterSerializesConcurrentSenders) {
  // Two senders from the same pod at the same instant: the pod's router
  // forwards them one after the other, so the second delivery lands at
  // least router_fwd_ns after the first.
  PodFabricConfig cfg = config_for(2, 4);
  auto fabric = check_ok(PodFabric::create(cfg));
  simtime::VClock s1;
  simtime::VClock s2;
  const auto data = pattern(64, 1);
  ASSERT_TRUE(fabric->send(s1, 1, 4, 3, data).is_ok());
  ASSERT_TRUE(fabric->send(s2, 2, 4, 3, data).is_ok());

  simtime::VClock rc;
  std::vector<std::byte> got(64);
  auto first = fabric->recv(rc, 4, kAnyPodSource, 3, got);
  ASSERT_TRUE(first.is_ok());
  const double t1 = rc.now();
  auto second = fabric->recv(rc, 4, kAnyPodSource, 3, got);
  ASSERT_TRUE(second.is_ok());
  const double t2 = rc.now();
  EXPECT_GE(t2 - t1, cfg.router_fwd_ns * 0.99);
}

TEST(PodFabric, RouterDownFailsFast) {
  auto fabric = check_ok(PodFabric::create(config_for(2, 2)));
  bool down = false;
  fabric->set_router_down_probe([&](int pod) { return down && pod == 0; });
  simtime::VClock clock;
  const auto data = pattern(8, 1);
  ASSERT_TRUE(fabric->send(clock, 0, 2, 1, data).is_ok());
  down = true;
  EXPECT_EQ(fabric->send(clock, 0, 2, 1, data).code(),
            ErrorCode::kPeerFailed);
  // Receives that would route through the dead pod's router fail too.
  std::vector<std::byte> got(8);
  EXPECT_EQ(fabric->recv(clock, 3, 1, 99, got).status().code(),
            ErrorCode::kPeerFailed);
}

// ---- PodCluster: one launch for every rank of every pod ----

PodClusterConfig cluster_for(int pods, int ranks_per_pod) {
  PodClusterConfig cfg;
  cfg.topo = config_for(pods, ranks_per_pod).topo;
  cfg.pod.nodes = 1;
  cfg.pod.ranks_per_node = static_cast<unsigned>(ranks_per_pod);
  cfg.pod.pool_size = 32_MiB;
  cfg.pod.arena_params.levels = 4;
  cfg.pod.arena_params.level1_buckets = 61;
  return cfg;
}

std::ptrdiff_t host_threads() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

/// host_threads() once two reads 1 ms apart agree: a thread an earlier test
/// joined can linger in the task list for a moment after its join.
std::ptrdiff_t settled_host_threads() {
  std::ptrdiff_t last = host_threads();
  for (int i = 0; i < 1000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::ptrdiff_t now = host_threads();
    if (now == last) {
      break;
    }
    last = now;
  }
  return last;
}

TEST(PodCluster, RunsOneHostThreadPerRank) {
  const auto cfg = cluster_for(3, 2);
  auto cluster = check_ok(PodCluster::create(cfg));
  // A sanitizer runtime may start a helper thread along with the first
  // thread a process creates: let that happen before the baseline count.
  std::thread([] {}).join();
  const std::ptrdiff_t before = settled_host_threads();
  std::atomic<std::ptrdiff_t> during{0};
  cluster->run([&](PodCtx& ctx) {
    // Between two cluster barriers every rank thread is alive.
    ctx.cluster_barrier();
    if (ctx.grank() == 0) {
      during = host_threads();
    }
    ctx.cluster_barrier();
  });
  EXPECT_EQ(during.load() - before, cfg.topo.nranks());
}

TEST(PodCluster, RankErrorIsRethrownAfterEveryRankReturns) {
  auto cluster = check_ok(PodCluster::create(cluster_for(2, 2)));
  std::atomic<int> finished{0};
  EXPECT_THROW(
      cluster->run([&](PodCtx& ctx) {
        if (ctx.grank() == 3) {
          throw std::runtime_error("rank 3 failed");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1);
      }),
      std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

}  // namespace
}  // namespace cmpi::fabric
