// A cluster of CXL pods: N runtime::Universes (one shared pool each)
// stitched together by a PodFabric through per-pod router ranks.
//
// PodCluster owns one Universe per pod (each with its own DaxDevice — the
// pools are physically separate; that is the point) and a PodFabric for
// the cross-pod tier. run(fn) starts the ranks of every pod in one
// runtime::launch_ranks call, runs each through its pod's per-rank steps,
// and hands each rank a PodCtx carrying both tiers: the pod-local
// p2p::Endpoint (CXL pool) and the fabric (router path). Global ranks are
// pod-major (runtime::PodTopology).
//
// Fault containment: each pod's fault plan addresses global rank ids
// (fault_rank_base = pod * ranks_per_pod), crashes are absorbed at the
// Universe rank boundary as today, and the fabric's router-down probe is
// wired to the owning pod's failure record — so a dead router fails
// cross-pod traffic fast while sibling pods (separate devices, separate
// failure domains) never notice.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "fabric/pod_fabric.hpp"
#include "p2p/endpoint.hpp"
#include "runtime/launch.hpp"
#include "runtime/topology.hpp"
#include "runtime/universe.hpp"

namespace cmpi::fabric {

struct PodClusterConfig {
  runtime::PodTopology topo;
  /// Cross-pod NIC + pool-hop + router costs (see PodFabricConfig).
  NicProfile profile = tcp_cx6dx();
  simtime::Ns pod_hop_latency = 2200;
  double pod_hop_bytes_per_ns = 9.5;
  simtime::Ns router_fwd_ns = 3000;
  /// Template for every pod's Universe. nranks() must equal
  /// topo.ranks_per_pod; shared_device must be empty (each pod gets its
  /// own pool device); fault_plan/fault_rank_base are overridden per pod.
  runtime::UniverseConfig pod;
  /// Per-pod fault plans, keyed by pod index. Crash/poison entries
  /// address GLOBAL rank ids.
  std::map<int, cxlsim::FaultPlan> fault_plans;
};

class PodCluster;

/// Everything one rank of a pod cluster needs: the pod-local runtime
/// context + endpoint, the cross-pod fabric, and its global address.
class PodCtx {
 public:
  [[nodiscard]] runtime::RankCtx& local() noexcept { return *rc_; }
  [[nodiscard]] p2p::Endpoint& ep() noexcept { return *ep_; }
  [[nodiscard]] PodFabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] const runtime::PodTopology& topology() const noexcept {
    return fabric_->topology();
  }
  [[nodiscard]] simtime::VClock& clock() noexcept { return rc_->clock(); }

  [[nodiscard]] int grank() const noexcept { return grank_; }
  [[nodiscard]] int nranks() const noexcept {
    return fabric_->topology().nranks();
  }
  [[nodiscard]] int pod() const noexcept {
    return fabric_->topology().pod_of(grank_);
  }
  [[nodiscard]] int local_rank() const noexcept {
    return fabric_->topology().local_of(grank_);
  }
  [[nodiscard]] bool is_router() const noexcept {
    return fabric_->topology().is_router(grank_);
  }

  /// Cross-pod message through the routers (pods must differ).
  Status fabric_send(int dst_grank, int tag, std::span<const std::byte> data) {
    return fabric_->send(rc_->clock(), grank_, dst_grank, tag, data);
  }
  /// Cross-pod receive; src_grank may be kAnyPodSource.
  Result<PodRecvInfo> fabric_recv(int src_grank, int tag,
                                  std::span<std::byte> data) {
    return fabric_->recv(rc_->clock(), grank_, src_grank, tag, data);
  }

  /// Virtual-time barrier across ALL ranks of ALL pods (functional sync +
  /// clock max). Fault-free paths only: a crashed rank never arrives.
  void cluster_barrier();

 private:
  friend class PodCluster;
  PodCtx() = default;

  runtime::RankCtx* rc_ = nullptr;
  p2p::Endpoint* ep_ = nullptr;
  PodFabric* fabric_ = nullptr;
  int grank_ = 0;
  runtime::ClockBarrier* barrier_ = nullptr;
};

class PodCluster {
 public:
  /// Validates topology, profile, and pod-template geometry
  /// (kInvalidArgument) and publishes the topology descriptor to the obs
  /// gauges (topology.pods / ranks_per_pod / router_local_rank / nranks).
  static Result<std::unique_ptr<PodCluster>> create(
      const PodClusterConfig& config);

  /// One thread per rank across every pod (runtime::launch_ranks); blocks
  /// until all return. Scripted rank crashes are absorbed per pod
  /// (runtime::Universe); a rank's other exception wakes every pod's
  /// doorbell and the fabric's at once, and the first one is re-thrown
  /// after every rank of every pod returned.
  void run(const std::function<void(PodCtx&)>& fn);

  [[nodiscard]] const runtime::PodTopology& topology() const noexcept {
    return config_.topo;
  }
  [[nodiscard]] PodFabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] runtime::Universe& pod(int p) noexcept {
    return *universes_[static_cast<std::size_t>(p)];
  }

  /// Failed ranks across all pods, as GLOBAL rank ids (sorted).
  [[nodiscard]] std::vector<int> failed_ranks() const;

  /// Respawn a crashed rank (global id) for the next run() epoch; see
  /// runtime::Universe::respawn.
  void respawn(int grank);

 private:
  explicit PodCluster(const PodClusterConfig& config);

  PodClusterConfig config_;
  std::vector<std::unique_ptr<runtime::Universe>> universes_;
  std::unique_ptr<PodFabric> fabric_;
};

}  // namespace cmpi::fabric
