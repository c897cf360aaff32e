// The closed form of PerfSmoke.HierarchicalAllreduce's allreduce
// (hier_allreduce_model.hpp) against the program, wherever the program
// repeats: each cross-pod message kind from idle clocks, and one pool
// message to a waiting receiver. F rests on FCFS router placement, which
// the program lacks until ROADMAP item 2, so it is checked only against its
// own first round's hand sum.
#include "model/hier_allreduce_model.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "fabric/pod_fabric.hpp"
#include "p2p/endpoint.hpp"
#include "runtime/launch.hpp"
#include "runtime/universe.hpp"
#include "simtime/vclock.hpp"

namespace cmpi::model {
namespace {

using Model = HierAllreduceModel;

constexpr double kRelative = 1e-9;

/// The receiver's clock after one cross-pod message from `src` to `dst`,
/// both clocks idle at 0, on the test shape's fabric.
double fabric_message_ns(int src, int dst) {
  fabric::PodFabricConfig cfg;
  cfg.topo.pods = Model::kPods;
  cfg.topo.ranks_per_pod = Model::kRanksPerPod;
  cfg.topo.router_local = 0;
  auto fabric = check_ok(fabric::PodFabric::create(cfg));
  simtime::VClock sender;
  simtime::VClock receiver;
  std::vector<std::byte> data(Model::kBytes);
  check_ok(fabric->send(sender, src, dst, 1, data));
  check_ok(fabric->recv(receiver, dst, src, 1, data).status());
  return receiver.now();
}

TEST(HierAllreduceModel, RouterToRouterMessageMatchesPodFabric) {
  const Model model;
  const double predicted = model.router_to_router_ns();
  EXPECT_NEAR(fabric_message_ns(0, Model::kRanksPerPod), predicted,
              kRelative * predicted);
}

TEST(HierAllreduceModel, RankToRankMessageMatchesPodFabric) {
  const Model model;
  const double predicted = model.rank_to_rank_ns();
  EXPECT_NEAR(fabric_message_ns(1, Model::kRanksPerPod + 1), predicted,
              kRelative * predicted);
}

TEST(HierAllreduceModel, PoolMessageToWaitingReceiverMatchesPodUniverse) {
  // One pod of the test's cluster: 2 nodes x 4 ranks, 4 KiB cells. Rank 0
  // sends to rank 4, the fan-out's first hop, once to warm up and once
  // timed; both start the timed message at the same virtual time.
  runtime::UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = Model::kRanksPerPod / 2;
  cfg.cell_payload = 4096;
  cfg.ring_cells = 8;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 127;
  runtime::Universe universe(cfg);
  runtime::ClockBarrier barrier(Model::kRanksPerPod);
  constexpr int kSender = 0;
  constexpr int kReceiver = 4;
  std::atomic<double> sent{0};
  std::atomic<double> received{0};
  universe.run([&](runtime::RankCtx& rc) {
    p2p::Endpoint ep = p2p::Endpoint::create(rc);
    std::vector<std::byte> buf(Model::kBytes);
    const auto me = static_cast<unsigned>(rc.rank());
    for (int round = 0; round < 2; ++round) {
      barrier.enter(me, rc.clock());
      const double start = rc.clock().now();
      if (rc.rank() == kSender) {
        check_ok(ep.send(kReceiver, 5, buf));
        sent = rc.clock().now() - start;
      } else if (rc.rank() == kReceiver) {
        check_ok(ep.recv(kSender, 5, buf).status());
        received = rc.clock().now() - start;
      }
    }
    barrier.enter(me, rc.clock());
  });
  const Model model;
  EXPECT_NEAR(received.load(), model.pool_message_ns(),
              kRelative * model.pool_message_ns());
  EXPECT_NEAR(sent.load(), model.pool_send_return_ns(),
              kRelative * model.pool_send_return_ns());
}

TEST(HierAllreduceModel, FirstCrossPodRoundFinishesAtItsHandSum) {
  // Mask 8 from a common start: each router serves its pod's 8 egress
  // forwards, then the 7 ingress ones, back to back from the router's own
  // send; the last ingress forward's rank finishes a pool hop and a
  // receive later.
  const Model model;
  const fabric::NicProfile nic = fabric::tcp_cx6dx();
  const fabric::PodClusterConfig pods{};
  const double hand = nic.mpi_msg_overhead +
                      (2 * Model::kRanksPerPod - 1) *
                          model.router_forward_ns() +
                      pods.pod_hop_latency + nic.loggp.recv_overhead +
                      nic.mpi_msg_overhead;
  EXPECT_NEAR(model.flat_first_cross_pod_round_ns(), hand,
              kRelative * hand);
}

}  // namespace
}  // namespace cmpi::model
