// Closed form of the allreduce that PerfSmoke.HierarchicalAllreduce times:
// 2 KiB of doubles over 4 pods of 8 ranks (2 nodes x 4 ranks per pod, 4 KiB
// cells), the intra-pod phases as p2p over each pod's rings
// (use_cxl_intra = false), the cross-pod ones through fabric::PodFabric.
//
// Plain arithmetic on the constants the cluster runs with:
// fabric::tcp_cx6dx(), fabric::PodClusterConfig{}, cxlsim::CxlTimingParams{}
// and runtime::UniverseConfig{}.mpi_call_overhead. No simulator object is
// built and no simulator function is called, so a charge that moves in the
// program shows as a mismatch in hier_allreduce_model_test.cpp. This is
// Vanecek et al.'s way of costing CXL.mem communication in closed form
// (PAPERS.md).
//
// Three terms, in virtual ns:
//
//   m  one 2 KiB eager pool message to a receiver already waiting for it,
//      from the sender's isend to the receiver's return (INTERNALS §2). The
//      sender pays its isend and wait entries, the staging copy with its
//      flush-sweep setup and the publish fence, which stamps the cell. The
//      receiver then pays the bulk read of the chunk with its
//      invalidate-sweep setup, and the head publish (a fence and an NT
//      store). The receiver's own entries and its gather wave fall before
//      the stamp, so they do not show (ROADMAP item 17).
//   R  hier's router tier: recursive doubling among the pods' routers,
//      log2(pods) rounds of one router-to-router message each.
//   F  flat's two cross-pod rounds (masks 8 and 16) from a common start.
//      Each pod's router serves its egress and ingress forwards FCFS by
//      ready time (INTERNALS §14). The per-pod LogGP wire and the
//      destination pool hop are charged as PodFabric::send charges them.
//
// The bounds:
//
//   hier <= 6m + R  The pod reduce and the fan-out are binomial trees of
//                   depth log2(8) = 3 over the pod's rings, so each costs
//                   at most 3m; the routers' tier costs R.
//   flat >= 3m + F  Recursive doubling over all 32 ranks runs three pool
//                   rounds, each at least m, before its two cross-pod
//                   rounds.
//
// So the model's own flat/hier is at least (3m + F) / (6m + R), however the
// pool rounds overlap. At the test's shape 3m + F = 185.8 µs and
// 6m + R = 164.3 µs, a floor of 1.1308.
//
// Where the program departs from the model: PodFabric places its router
// reservations in host order, not FCFS in virtual time (ROADMAP item 2), so
// flat reads 8–14% above 3m + F. F is therefore not compared with the
// program; m and both cross-pod message costs are.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <queue>
#include <tuple>
#include <vector>

#include "cxlsim/timing.hpp"
#include "fabric/pod_cluster.hpp"
#include "fabric/profiles.hpp"
#include "runtime/universe.hpp"

namespace cmpi::model {

class HierAllreduceModel {
 public:
  /// The test's shape (osu::HierAllreduceParams in perf_smoke_test.cpp).
  static constexpr std::size_t kBytes = 2048;
  static constexpr int kPods = 4;
  static constexpr int kRanksPerPod = 8;
  /// Depth of a binomial tree over one pod, and flat's pool rounds.
  static constexpr int kPodRounds = 3;
  /// Cross-pod rounds of hier's router tier and of flat.
  static constexpr int kPodTierRounds = 2;

  // ---- Pool tier: one pod universe, p2p over its rings ----

  /// One staging copy into a cell or bulk read out of it, each with its
  /// sweep setup. The chunk is past the one-wave remainder (1,088 B), so
  /// the receiver's read is a swept bulk read, and below the contention
  /// threshold, so the copy runs at the single-stream rate.
  [[nodiscard]] double pool_copy_ns() const {
    return cxl_.flush_base + kBytes / cxl_.cpu_copy_bytes_per_ns;
  }

  /// The sender's clock when the cell is stamped: isend and wait entries,
  /// the staging copy and the publish fence. The fence's drain (the write
  /// reservation plus line_write_latency, about 637 ns) ends inside the
  /// copy, so it does not show.
  [[nodiscard]] double pool_stamp_ns() const {
    return 2 * mpi_call_ns_ + pool_copy_ns() + cxl_.fence_cost;
  }

  /// The sender's return: the stamp plus the posted store of the cell's one
  /// header line.
  [[nodiscard]] double pool_send_return_ns() const {
    return pool_stamp_ns() + cxl_.cache_hit_latency;
  }

  /// m: the receiver's return. Its bulk read's device completion plus
  /// line_fill_latency (about 925 ns) ends inside the read's copy charge.
  [[nodiscard]] double pool_message_ns() const {
    return pool_stamp_ns() + pool_copy_ns() + cxl_.fence_cost +
           cxl_.nt_store_latency;
  }

  // ---- Cross-pod tier: fabric::PodFabric ----

  /// Serial forwarding on one router: router_fwd_ns plus the payload at
  /// pool-hop rate, truncated to whole ns as PodFabric::send truncates it.
  [[nodiscard]] double router_forward_ns() const {
    return std::trunc(pods_.router_fwd_ns +
                      kBytes / pods_.pod_hop_bytes_per_ns);
  }

  /// LogGP sender CPU: o_s plus one packetization cost per MTU segment.
  [[nodiscard]] double nic_send_ns() const {
    const auto segments = (kBytes + nic_.loggp.mtu - 1) / nic_.loggp.mtu;
    return nic_.loggp.send_overhead +
           static_cast<double>(segments) * nic_.loggp.per_segment_overhead;
  }

  /// From the wire reservation to delivery at the destination router.
  [[nodiscard]] double wire_ns() const {
    return kBytes / nic_.loggp.wire_bytes_per_ns + nic_.loggp.wire_latency;
  }

  /// The receiver's side: LogGP o_r plus its MPI software cost.
  [[nodiscard]] double fabric_recv_ns() const {
    return nic_.loggp.recv_overhead + nic_.mpi_msg_overhead;
  }

  /// One router-to-router message from idle clocks, at the receiver.
  [[nodiscard]] double router_to_router_ns() const {
    return nic_.mpi_msg_overhead + router_forward_ns() + nic_send_ns() +
           wire_ns() + fabric_recv_ns();
  }

  /// One message between two non-router ranks of different pods from idle
  /// clocks, at the receiver: the source pool hop, both routers' forwards,
  /// and the destination pool hop, whose payload term PodFabric does not
  /// charge.
  [[nodiscard]] double rank_to_rank_ns() const {
    return nic_.mpi_msg_overhead + source_hop_ns() + router_forward_ns() +
           nic_send_ns() + wire_ns() + router_forward_ns() +
           pods_.pod_hop_latency + fabric_recv_ns();
  }

  /// R: hier's router tier.
  [[nodiscard]] double router_tier_ns() const {
    return kPodTierRounds * router_to_router_ns();
  }

  /// The last rank's finish of flat's first cross-pod round (mask 8) from
  /// a common start.
  [[nodiscard]] double flat_first_cross_pod_round_ns() const {
    return flat_cross_pod_ns(1);
  }

  /// F: the last rank's finish of flat's two cross-pod rounds from a
  /// common start.
  [[nodiscard]] double flat_cross_pod_rounds_ns() const {
    return flat_cross_pod_ns(kPodTierRounds);
  }

  /// The floor on flat/hier: (3m + F) / (6m + R).
  [[nodiscard]] double flat_over_hier_floor() const {
    const double m = pool_message_ns();
    return (kPodRounds * m + flat_cross_pod_rounds_ns()) /
           (2 * kPodRounds * m + router_tier_ns());
  }

 private:
  /// A non-router sender stages the payload through the pool to its router.
  [[nodiscard]] double source_hop_ns() const {
    return pods_.pod_hop_latency + kBytes / pods_.pod_hop_bytes_per_ns;
  }

  [[nodiscard]] static bool is_router(int g) {
    return g % kRanksPerPod == 0;
  }

  /// Flat's first `rounds` cross-pod rounds from a common start at 0: every
  /// rank g sends to and receives from g ^ mask, mask = 8, 16. Forwards go
  /// through a queue ordered by ready time (ties by issue order), and each
  /// pod's router serves them in that order. A rank's next round starts
  /// once its send has left (a router waits for its own forward and NIC
  /// injection) and its message has arrived. Returns the latest finish.
  [[nodiscard]] double flat_cross_pod_ns(int rounds) const {
    constexpr int n = kPods * kRanksPerPod;
    struct Forward {
      double ready;
      int issued;
      int src;
      int dst;
      int round;
      bool ingress;  ///< at the destination pod's router
    };
    const auto later = [](const Forward& a, const Forward& b) {
      return std::tie(a.ready, a.issued) > std::tie(b.ready, b.issued);
    };
    std::priority_queue<Forward, std::vector<Forward>, decltype(later)>
        forwards(later);
    std::vector<double> router_free(kPods, 0.0);
    std::vector<double> wire_free(kPods, 0.0);
    std::vector<double> clock(n, 0.0);
    std::vector<int> round(n, 0);
    std::vector<bool> sent(n, false);
    // arrival[g * rounds + r]: delivery of g's round-r message, once known.
    std::vector<double> arrival(static_cast<std::size_t>(n * rounds), -1.0);
    int issued = 0;

    const auto send = [&](int g) {
      const int mask = kRanksPerPod << round[g];
      clock[g] += nic_.mpi_msg_overhead;
      if (!is_router(g)) {
        clock[g] += source_hop_ns();
      }
      sent[g] = !is_router(g);
      forwards.push({clock[g], issued++, g, g ^ mask, round[g], false});
    };
    // Finish every round of g whose send has left and whose message has
    // arrived, and start the next one.
    const auto advance = [&](int g) {
      while (round[g] < rounds && sent[g]) {
        const double at = arrival[static_cast<std::size_t>(g * rounds +
                                                           round[g])];
        if (at < 0) {
          return;
        }
        clock[g] = std::max(clock[g], at) + fabric_recv_ns();
        if (++round[g] < rounds) {
          send(g);
        }
      }
    };
    const auto deliver = [&](const Forward& f, double at) {
      arrival[static_cast<std::size_t>(f.dst * rounds + f.round)] = at;
      advance(f.dst);
    };

    for (int g = 0; g < n; ++g) {
      send(g);
    }
    while (!forwards.empty()) {
      const Forward f = forwards.top();
      forwards.pop();
      const int pod = (f.ingress ? f.dst : f.src) / kRanksPerPod;
      double& router = router_free[static_cast<std::size_t>(pod)];
      router = std::max(f.ready, router) + router_forward_ns();
      if (f.ingress) {
        deliver(f, router + pods_.pod_hop_latency);
        continue;
      }
      const double injected = router + nic_send_ns();
      if (is_router(f.src)) {
        clock[f.src] = injected;
        sent[f.src] = true;
        advance(f.src);
      }
      double& wire = wire_free[static_cast<std::size_t>(pod)];
      wire = std::max(injected, wire) + kBytes / nic_.loggp.wire_bytes_per_ns;
      const double at_router = wire + nic_.loggp.wire_latency;
      if (is_router(f.dst)) {
        deliver(f, at_router);
      } else {
        forwards.push({at_router, issued++, f.src, f.dst, f.round, true});
      }
    }
    return *std::max_element(clock.begin(), clock.end());
  }

  const fabric::NicProfile nic_ = fabric::tcp_cx6dx();
  const fabric::PodClusterConfig pods_{};
  const cxlsim::CxlTimingParams cxl_{};
  const double mpi_call_ns_ = runtime::UniverseConfig{}.mpi_call_overhead;
};

}  // namespace cmpi::model
