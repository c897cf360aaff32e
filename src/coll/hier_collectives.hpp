// Hierarchical, topology-aware collectives for pod clusters (multi-pool
// scale-out).
//
// A communicator spanning pods runs every collective in three phases:
//
//   1. intra-pod: the CXL-aware algorithm inside each pod — either the
//      p2p binomial/recursive-doubling algorithms over the pod Endpoint,
//      or CxlCollectives' direct-over-pool variant when one is provided
//      and the payload fits;
//   2. inter-pod: the same algorithm among the pod ROUTERS only, over the
//      LogGP fabric (one message per pod per round instead of one per
//      rank — the routers' serial forwarding path is the bottleneck a
//      flat algorithm drowns in);
//   3. intra-pod fan-out of the result from each router.
//
// Algorithm-selection rule: HierColl switches on topology().pods — a
// single-pod cluster delegates straight to the flat coll:: entry points,
// so the 1-pod path is bit-identical to the pre-hierarchy collectives.
// The *_flat variants run the flat single-tier algorithm over the whole
// cluster through the same fabric (every cross-pod pair squeezing through
// the routers) — the honest ablation baseline for bench/fig10h.
//
// PodComm is the channel glue: a coll-algorithm channel over global (or
// subgroup) ranks that routes intra-pod pairs through the pod Endpoint
// and cross-pod pairs through the PodFabric. Cross-pod isend completes
// eagerly (fabric sends never block — send-local-completion semantics);
// cross-pod irecv defers the blocking fabric receive to wait().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/cxl_collectives.hpp"
#include "fabric/pod_cluster.hpp"

namespace cmpi::coll {

/// Tag block for the hierarchy glue hops (root<->router relays, fan-in).
inline constexpr int kTagHier = kCollTagBase + 0xB00;

/// Largest pod size where the CxlCollectives direct-over-pool algorithms
/// still win: they are all-read-all, i.e. O(pod ranks^2) serialized device
/// reads per collective, so past a handful of ranks the log-round p2p
/// algorithms are faster (the allgather record under "Ablations" in
/// EXPERIMENTS.md: at 16 ranks Bruck beats direct up to 512 B).
inline constexpr int kCxlDirectMaxRanks = 8;

/// Request handle of PodComm (nullptr-comparable, like p2p::RequestPtr).
struct PodReq {
  enum class Kind {
    kLocal,       ///< wraps a pod-Endpoint request
    kFabricRecv,  ///< deferred blocking fabric receive
    kDone,        ///< already completed (eager fabric send)
  };
  Kind kind = Kind::kDone;
  p2p::RequestPtr local;
  int src_grank = -1;  // deferred recv
  int tag = 0;
  std::span<std::byte> buffer;
  Status done_status;
};
using PodReqPtr = std::shared_ptr<PodReq>;

/// Channel over a pod cluster for the coll::detail algorithms.
class PodComm {
 public:
  /// World communicator: channel rank == global rank.
  explicit PodComm(fabric::PodCtx& ctx);
  /// Subgroup: channel rank == index into `members` (global rank ids).
  /// The caller must be a member. Used for the router tier.
  PodComm(fabric::PodCtx& ctx, std::vector<int> members);

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nranks() const noexcept { return nranks_; }

  Status send(int dst, int tag, std::span<const std::byte> data);
  Result<p2p::RecvInfo> recv(int src, int tag, std::span<std::byte> data);
  PodReqPtr isend(int dst, int tag, std::span<const std::byte> data);
  PodReqPtr irecv(int src, int tag, std::span<std::byte> data);
  Status wait(const PodReqPtr& req);

 private:
  [[nodiscard]] int to_grank(int r) const;
  [[nodiscard]] int from_grank(int g) const;

  fabric::PodCtx* ctx_;
  std::vector<int> members_;  ///< empty = world (identity mapping)
  int rank_ = 0;
  int nranks_ = 0;
};

/// Hierarchical collectives over a pod cluster. Construct once per rank
/// per run; `cxl` (optional, collective construction across the pod)
/// switches the intra-pod phases to the direct-over-pool algorithms for
/// double-sum payloads that fit.
class HierColl {
 public:
  explicit HierColl(fabric::PodCtx& ctx, CxlCollectives* cxl = nullptr);

  void barrier();
  void bcast(int root, std::span<std::byte> data);
  void reduce(int root, std::span<double> inout, ReduceOp op);
  void reduce(int root, std::span<std::int64_t> inout, ReduceOp op);
  void allreduce(std::span<double> inout, ReduceOp op);
  void allreduce(std::span<std::int64_t> inout, ReduceOp op);

  /// Flat single-tier baselines over the same two-tier fabric: the
  /// pre-hierarchy algorithms on the world communicator, every cross-pod
  /// pair individually crossing the routers. Ablation for bench/fig10h.
  void barrier_flat();
  void bcast_flat(int root, std::span<std::byte> data);
  void reduce_flat(int root, std::span<double> inout, ReduceOp op);
  void allreduce_flat(std::span<double> inout, ReduceOp op);
  void allreduce_flat(std::span<std::int64_t> inout, ReduceOp op);

 private:
  template <typename T>
  void reduce_hier(int root, std::span<T> inout, ReduceOp op);
  template <typename T>
  void allreduce_hier(std::span<T> inout, ReduceOp op);
  /// Intra-pod allreduce-to-everyone of the pod's contributions (phase 1).
  template <typename T>
  void pod_reduce_to_router(std::span<T> inout, ReduceOp op);
  [[nodiscard]] bool use_cxl(std::size_t bytes, ReduceOp op) const noexcept;
  [[nodiscard]] bool use_cxl_fanout(std::size_t bytes) const noexcept;
  [[nodiscard]] PodComm router_comm() const;

  fabric::PodCtx* ctx_;
  CxlCollectives* cxl_;
};

}  // namespace cmpi::coll
