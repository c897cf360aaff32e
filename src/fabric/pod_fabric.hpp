// Cross-pod transport: the modeled fabric stitching CXL pods together
// through one router rank per pod.
//
// Each pod is a shared CXL pool (runtime::Universe); only its router rank
// owns a NIC. A cross-pod message therefore crosses three tiers:
//
//   source rank --pool hop--> source router --NIC/LogGP--> dest router
//                                                 --pool hop--> dest rank
//
// Timing model per tier:
//
//  * pool hop: pod_hop_latency + bytes/pod_hop_bytes_per_ns, charged on
//    the sender's clock (source side — the sender stages the payload into
//    its pool) or added to delivery (destination side — the dest router
//    forwards into its pool after the wire).
//  * router forwarding: the router's CPU + NIC-injection path is a serial
//    resource. Every message through a pod boundary reserves
//    router_fwd_ns + bytes/pod_hop_bytes_per_ns on that pod's router
//    BusyResource (rate 1.0, so "bytes" are nanoseconds). This is what a
//    flat algorithm pays for: R ranks sending through one router serialize
//    there, while a hierarchical algorithm sends once per pod.
//  * wire: the pod's egress NIC is a per-pod LogGPModel (shared
//    BusyResource wire), so concurrent cross-pod streams from one pod
//    contend for the NIC rate.
//
// Functionally: one mutex + per-destination inbox deques + a Doorbell.
// There is NO flow control on the cross-pod path (routers would need a
// credit protocol; unbounded inboxes keep the model deadlock-free and the
// collectives below self-limit in-flight data).
//
// Failure: PodCluster installs a router-down probe. A send fails fast with
// kPeerFailed when either boundary router is known dead; a sourced recv
// fails when the path to its source is dead. Messages that crossed before
// the crash stay deliverable — they already left the dead host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "fabric/profiles.hpp"
#include "runtime/doorbell.hpp"
#include "runtime/topology.hpp"
#include "simtime/busy_resource.hpp"
#include "simtime/vclock.hpp"

namespace cmpi::fabric {

struct PodFabricConfig {
  runtime::PodTopology topo;
  /// Inter-pod NIC profile (one egress NIC per pod).
  NicProfile profile = tcp_cx6dx();
  /// Pool hop between a rank and its pod's router (CXL load/store tier):
  /// one-way latency and bandwidth of staging a payload through the pool.
  simtime::Ns pod_hop_latency = 2200;
  double pod_hop_bytes_per_ns = 9.5;
  /// Serial per-message forwarding cost on a router (matching, address
  /// translation, NIC doorbell). The aggregation bottleneck.
  simtime::Ns router_fwd_ns = 3000;
};

struct PodRecvInfo {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;
};

/// Receive wildcard: match any source pod rank / any tag.
inline constexpr int kAnyPodSource = -1;
inline constexpr int kAnyPodTag = -1;

class PodFabric {
 public:
  /// Validates the topology and the NIC profile (kInvalidArgument — this
  /// is the user-config entry point; the timing model must never see a
  /// malformed profile).
  static Result<std::unique_ptr<PodFabric>> create(
      const PodFabricConfig& config);

  /// Sender-side transit of a cross-pod message (pod_of(src) must differ
  /// from pod_of(dst)). Charges `clock`, reserves the source router +
  /// egress wire + destination router, enqueues for `dst`. Fails fast
  /// with kPeerFailed when a boundary router is known dead.
  Status send(simtime::VClock& clock, int src, int dst, int tag,
              std::span<const std::byte> data);

  /// Receive the matching message with the EARLIEST virtual delivery time
  /// (ties broken by send order) — this defines wildcard ordering across
  /// the router deterministically in virtual time, not host scheduling.
  /// src may be kAnyPodSource, tag may be kAnyPodTag. Blocks. Truncating
  /// copy into `data`. kPeerFailed when src's path died with no matching
  /// message queued.
  Result<PodRecvInfo> recv(simtime::VClock& clock, int me, int src, int tag,
                           std::span<std::byte> data);

  /// Installed by PodCluster: returns true when `pod`'s router rank is
  /// known to have failed. Sends/recvs crossing that pod fail fast.
  void set_router_down_probe(std::function<bool(int pod)> probe);

  /// Drop accumulated wire/router reservations (bench iteration
  /// boundaries). Queued messages are unaffected.
  void reset_timing();

  [[nodiscard]] const PodFabricConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const runtime::PodTopology& topology() const noexcept {
    return config_.topo;
  }
  [[nodiscard]] runtime::Doorbell& doorbell() noexcept { return doorbell_; }

 private:
  explicit PodFabric(const PodFabricConfig& config);

  struct Msg {
    int src = 0;
    int tag = 0;
    std::uint64_t seq = 0;       ///< global send order (tie-break)
    simtime::Ns sent = 0;        ///< sender clock at send entry
    simtime::Ns delivered = 0;   ///< visible at the destination rank
    std::vector<std::byte> data;
  };

  [[nodiscard]] bool router_down(int pod) const;
  /// Pool-hop transfer time for `bytes` (latency excluded).
  [[nodiscard]] simtime::Ns hop_transfer_ns(std::size_t bytes) const noexcept {
    return static_cast<simtime::Ns>(bytes) / config_.pod_hop_bytes_per_ns;
  }

  PodFabricConfig config_;
  runtime::Doorbell doorbell_;
  mutable std::mutex mutex_;
  std::uint64_t next_seq_ = 0;
  /// Inbox per destination global rank (all sources interleaved; recv
  /// scans for the earliest delivery).
  std::vector<std::deque<Msg>> inboxes_;
  /// Per-pod egress NIC (LogGP wire shared by the pod's cross-pod sends).
  std::vector<std::unique_ptr<simtime::LogGPModel>> egress_;
  /// Per-pod router forwarding serialization (rate 1.0: bytes == ns).
  std::vector<std::unique_ptr<simtime::BusyResource>> router_busy_;
  std::function<bool(int pod)> router_down_;
};

}  // namespace cmpi::fabric
