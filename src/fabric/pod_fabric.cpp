#include "fabric/pod_fabric.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace cmpi::fabric {

PodFabric::PodFabric(const PodFabricConfig& config) : config_(config) {
  const int pods = config_.topo.pods;
  inboxes_.resize(static_cast<std::size_t>(config_.topo.nranks()));
  egress_.reserve(static_cast<std::size_t>(pods));
  router_busy_.reserve(static_cast<std::size_t>(pods));
  for (int p = 0; p < pods; ++p) {
    egress_.push_back(
        std::make_unique<simtime::LogGPModel>(config_.profile.loggp));
    // Rate 1.0: reservations are denominated directly in nanoseconds of
    // router CPU/NIC-injection time.
    router_busy_.push_back(std::make_unique<simtime::BusyResource>(1.0));
  }
}

Result<std::unique_ptr<PodFabric>> PodFabric::create(
    const PodFabricConfig& config) {
  if (auto s = config.topo.validate(); !s.is_ok()) {
    return s;
  }
  if (auto s = validate(config.profile); !s.is_ok()) {
    return s;
  }
  if (!std::isfinite(config.pod_hop_latency) || config.pod_hop_latency < 0) {
    return status::invalid_argument(
        "PodFabric: pod_hop_latency must be finite and >= 0");
  }
  if (!std::isfinite(config.pod_hop_bytes_per_ns) ||
      config.pod_hop_bytes_per_ns <= 0) {
    return status::invalid_argument(
        "PodFabric: pod_hop_bytes_per_ns must be finite and > 0");
  }
  if (!std::isfinite(config.router_fwd_ns) || config.router_fwd_ns < 0) {
    return status::invalid_argument(
        "PodFabric: router_fwd_ns must be finite and >= 0");
  }
  return std::unique_ptr<PodFabric>(new PodFabric(config));
}

bool PodFabric::router_down(int pod) const {
  return router_down_ && router_down_(pod);
}

void PodFabric::set_router_down_probe(std::function<bool(int pod)> probe) {
  router_down_ = std::move(probe);
}

Status PodFabric::send(simtime::VClock& clock, int src, int dst, int tag,
                       std::span<const std::byte> data) {
  const auto& topo = config_.topo;
  CMPI_EXPECTS(topo.contains(src));
  CMPI_EXPECTS(topo.contains(dst));
  CMPI_EXPECTS(!topo.same_pod(src, dst));
  const int spod = topo.pod_of(src);
  const int dpod = topo.pod_of(dst);
  if (router_down(spod)) {
    return status::peer_failed("pod " + std::to_string(spod) +
                               " router failed (egress)");
  }
  if (router_down(dpod)) {
    return status::peer_failed("pod " + std::to_string(dpod) +
                               " router failed (ingress)");
  }

  const simtime::Ns sent = clock.now();
  clock.advance(config_.profile.mpi_msg_overhead);
  const auto fwd_cost = static_cast<std::size_t>(
      config_.router_fwd_ns + hop_transfer_ns(data.size()));
  if (!topo.is_router(src)) {
    // Stage the payload through the pool to the router.
    clock.advance(config_.pod_hop_latency + hop_transfer_ns(data.size()));
  }
  const simtime::Ns ready =
      router_busy_[static_cast<std::size_t>(spod)]->reserve(clock.now(),
                                                            fwd_cost);
  if (topo.is_router(src)) {
    clock.observe(ready);
  }
  const simtime::MessageTiming t =
      egress_[static_cast<std::size_t>(spod)]->send(ready, data.size());
  if (topo.is_router(src)) {
    clock.observe(t.sender_done);
  }
  simtime::Ns delivered = t.delivered;
  if (!topo.is_router(dst)) {
    delivered = router_busy_[static_cast<std::size_t>(dpod)]->reserve(
                    delivered, fwd_cost) +
                config_.pod_hop_latency;
  }

  {
    std::lock_guard lock(mutex_);
    Msg m;
    m.src = src;
    m.tag = tag;
    m.seq = next_seq_++;
    m.sent = sent;
    m.delivered = delivered;
    m.data.assign(data.begin(), data.end());
    inboxes_[static_cast<std::size_t>(dst)].push_back(std::move(m));
  }
  CMPI_OBS_COUNT("pods.fabric.messages", 1);
  CMPI_OBS_COUNT("pods.fabric.bytes", data.size());
  doorbell_.ring();
  return Status::ok();
}

Result<PodRecvInfo> PodFabric::recv(simtime::VClock& clock, int me, int src,
                                    int tag, std::span<std::byte> data) {
  const auto& topo = config_.topo;
  CMPI_EXPECTS(topo.contains(me));
  CMPI_EXPECTS(src < 0 || topo.contains(src));

  Msg got;
  bool have = false;
  bool failed = false;
  doorbell_.wait_until([&] {
    std::lock_guard lock(mutex_);
    auto& box = inboxes_[static_cast<std::size_t>(me)];
    auto best = box.end();
    for (auto it = box.begin(); it != box.end(); ++it) {
      if (src >= 0 && it->src != src) {
        continue;
      }
      if (tag >= 0 && it->tag != tag) {
        continue;
      }
      if (best == box.end() || it->delivered < best->delivered ||
          (it->delivered == best->delivered && it->seq < best->seq)) {
        best = it;
      }
    }
    if (best != box.end()) {
      got = std::move(*best);
      box.erase(best);
      have = true;
      return true;
    }
    // Nothing queued: fail only for a sourced recv whose path is dead.
    // In-flight messages already crossed the boundary and stay
    // deliverable; a wildcard recv keeps waiting for live sources.
    if (src >= 0 &&
        (router_down(topo.pod_of(src)) || router_down(topo.pod_of(me)))) {
      failed = true;
      return true;
    }
    return false;
  });
  if (!have) {
    CMPI_OBS_FLIGHT("pod router failed");
    return status::peer_failed("pod router on the path from rank " +
                               std::to_string(src) + " failed");
  }

  clock.observe(got.delivered);
  clock.advance(config_.profile.loggp.recv_overhead +
                config_.profile.mpi_msg_overhead);
  const std::size_t n = std::min(data.size(), got.data.size());
  std::copy_n(got.data.begin(), n, data.begin());
  CMPI_OBS_HIST("pods.fabric.transit_ns",
                static_cast<std::uint64_t>(got.delivered - got.sent));
  return PodRecvInfo{got.src, got.tag, got.data.size()};
}

void PodFabric::reset_timing() {
  for (auto& e : egress_) {
    e->reset();
  }
  for (auto& r : router_busy_) {
    r->reset();
  }
}

}  // namespace cmpi::fabric
