#include "fabric/pod_cluster.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace cmpi::fabric {

void PodCtx::cluster_barrier() {
  barrier_->enter(static_cast<unsigned>(grank_), rc_->clock());
}

PodCluster::PodCluster(const PodClusterConfig& config) : config_(config) {}

Result<std::unique_ptr<PodCluster>> PodCluster::create(
    const PodClusterConfig& config) {
  PodFabricConfig fc;
  fc.topo = config.topo;
  fc.profile = config.profile;
  fc.pod_hop_latency = config.pod_hop_latency;
  fc.pod_hop_bytes_per_ns = config.pod_hop_bytes_per_ns;
  fc.router_fwd_ns = config.router_fwd_ns;
  auto fabric = PodFabric::create(fc);
  if (!fabric.is_ok()) {
    return fabric.status();
  }
  if (static_cast<int>(config.pod.nranks()) != config.topo.ranks_per_pod) {
    return status::invalid_argument(
        "PodCluster: pod template has " + std::to_string(config.pod.nranks()) +
        " ranks but topology says ranks_per_pod = " +
        std::to_string(config.topo.ranks_per_pod));
  }
  if (config.pod.shared_device != nullptr) {
    return status::invalid_argument(
        "PodCluster: pods own their pool devices; pod.shared_device must be "
        "empty");
  }
  for (const auto& [p, plan] : config.fault_plans) {
    if (p < 0 || p >= config.topo.pods) {
      return status::invalid_argument("PodCluster: fault plan for pod " +
                                      std::to_string(p) +
                                      " outside the topology");
    }
  }

  auto cluster = std::unique_ptr<PodCluster>(new PodCluster(config));
  cluster->fabric_ = std::move(fabric).value();
  cluster->universes_.reserve(static_cast<std::size_t>(config.topo.pods));
  for (int p = 0; p < config.topo.pods; ++p) {
    runtime::UniverseConfig u = config.pod;
    u.fault_rank_base = config.topo.global_rank(p, 0);
    if (const auto it = config.fault_plans.find(p);
        it != config.fault_plans.end()) {
      u.fault_plan = it->second;
    }
    cluster->universes_.push_back(std::make_unique<runtime::Universe>(u));
  }

  // Router-down probe: a pod's router is down when its own universe has
  // recorded the router's local rank as failed (injector or detector).
  const runtime::PodTopology topo = config.topo;
  std::vector<runtime::Universe*> pods;
  pods.reserve(cluster->universes_.size());
  for (const auto& u : cluster->universes_) {
    pods.push_back(u.get());
  }
  cluster->fabric_->set_router_down_probe([topo, pods](int pod) {
    const auto failed = pods[static_cast<std::size_t>(pod)]->failed_ranks();
    return std::find(failed.begin(), failed.end(), topo.router_local) !=
           failed.end();
  });

  // Publish the topology descriptor: high-water gauges, so it lands in
  // every metrics snapshot, the bench telemetry digest, and flight dumps.
  CMPI_OBS_GAUGE_MAX("topology.pods",
                     static_cast<std::uint64_t>(config.topo.pods));
  CMPI_OBS_GAUGE_MAX("topology.ranks_per_pod",
                     static_cast<std::uint64_t>(config.topo.ranks_per_pod));
  CMPI_OBS_GAUGE_MAX("topology.router_local_rank",
                     static_cast<std::uint64_t>(config.topo.router_local));
  CMPI_OBS_GAUGE_MAX("topology.nranks",
                     static_cast<std::uint64_t>(config.topo.nranks()));
  return cluster;
}

void PodCluster::run(const std::function<void(PodCtx&)>& fn) {
  const runtime::PodTopology& topo = config_.topo;
  const auto nranks = static_cast<unsigned>(topo.nranks());
  runtime::ClockBarrier barrier(nranks);
  const std::exception_ptr error = runtime::launch_ranks(
      nranks,
      [&](unsigned g) {
        const int grank = static_cast<int>(g);
        universes_[static_cast<std::size_t>(topo.pod_of(grank))]->run_rank(
            static_cast<unsigned>(topo.local_of(grank)),
            [&](runtime::RankCtx& rc) {
              p2p::Endpoint ep = p2p::Endpoint::create(rc);
              PodCtx ctx;
              ctx.rc_ = &rc;
              ctx.ep_ = &ep;
              ctx.fabric_ = fabric_.get();
              ctx.grank_ = grank;
              ctx.barrier_ = &barrier;
              fn(ctx);
            });
      },
      [this] {
        // A failed rank may hold up peers in its own pod and, through the
        // routers, in every other one.
        for (const auto& u : universes_) {
          u->doorbell().ring();
        }
        fabric_->doorbell().ring();
      });
  for (const auto& u : universes_) {
    u->finish_run();
  }
  // Write the telemetry artifacts even when re-throwing, as
  // runtime::Universe::run does.
  obs::export_artifacts();
  if (error) {
    std::rethrow_exception(error);
  }
}

std::vector<int> PodCluster::failed_ranks() const {
  std::vector<int> out;
  for (int p = 0; p < config_.topo.pods; ++p) {
    for (const int local : universes_[static_cast<std::size_t>(p)]
                               ->failed_ranks()) {
      out.push_back(config_.topo.global_rank(p, local));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void PodCluster::respawn(int grank) {
  CMPI_EXPECTS(config_.topo.contains(grank));
  universes_[static_cast<std::size_t>(config_.topo.pod_of(grank))]->respawn(
      config_.topo.local_of(grank));
}

}  // namespace cmpi::fabric
