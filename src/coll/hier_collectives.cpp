#include "coll/hier_collectives.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "coll/algorithms.hpp"
#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace cmpi::coll {

// ---------------------------------------------------------------------------
// PodComm

PodComm::PodComm(fabric::PodCtx& ctx)
    : ctx_(&ctx), rank_(ctx.grank()), nranks_(ctx.nranks()) {}

PodComm::PodComm(fabric::PodCtx& ctx, std::vector<int> members)
    : ctx_(&ctx), members_(std::move(members)) {
  nranks_ = static_cast<int>(members_.size());
  const auto it =
      std::find(members_.begin(), members_.end(), ctx_->grank());
  CMPI_EXPECTS(it != members_.end());
  rank_ = static_cast<int>(it - members_.begin());
}

int PodComm::to_grank(int r) const {
  if (members_.empty()) {
    return r;
  }
  return members_[static_cast<std::size_t>(r)];
}

int PodComm::from_grank(int g) const {
  if (members_.empty()) {
    return g;
  }
  const auto it = std::find(members_.begin(), members_.end(), g);
  CMPI_EXPECTS(it != members_.end());
  return static_cast<int>(it - members_.begin());
}

Status PodComm::send(int dst, int tag, std::span<const std::byte> data) {
  const int g = to_grank(dst);
  const auto& topo = ctx_->topology();
  if (topo.same_pod(ctx_->grank(), g)) {
    return ctx_->ep().send(topo.local_of(g), tag, data);
  }
  return ctx_->fabric_send(g, tag, data);
}

Result<p2p::RecvInfo> PodComm::recv(int src, int tag,
                                    std::span<std::byte> data) {
  CMPI_EXPECTS(src >= 0);  // the algorithms never use wildcards
  const int g = to_grank(src);
  const auto& topo = ctx_->topology();
  if (topo.same_pod(ctx_->grank(), g)) {
    auto r = ctx_->ep().recv(topo.local_of(g), tag, data);
    if (!r.is_ok()) {
      return r.status();
    }
    return p2p::RecvInfo{src, r.value().tag, r.value().bytes};
  }
  auto r = ctx_->fabric_recv(g, tag, data);
  if (!r.is_ok()) {
    return r.status();
  }
  return p2p::RecvInfo{src, r.value().tag, r.value().bytes};
}

PodReqPtr PodComm::isend(int dst, int tag, std::span<const std::byte> data) {
  const int g = to_grank(dst);
  const auto& topo = ctx_->topology();
  auto req = std::make_shared<PodReq>();
  if (topo.same_pod(ctx_->grank(), g)) {
    req->kind = PodReq::Kind::kLocal;
    req->local = ctx_->ep().isend(topo.local_of(g), tag, data);
  } else {
    // Fabric sends complete locally without blocking: run it eagerly.
    req->kind = PodReq::Kind::kDone;
    req->done_status = ctx_->fabric_send(g, tag, data);
  }
  return req;
}

PodReqPtr PodComm::irecv(int src, int tag, std::span<std::byte> data) {
  const int g = to_grank(src);
  const auto& topo = ctx_->topology();
  auto req = std::make_shared<PodReq>();
  if (topo.same_pod(ctx_->grank(), g)) {
    req->kind = PodReq::Kind::kLocal;
    req->local = ctx_->ep().irecv(topo.local_of(g), tag, data);
  } else {
    // The fabric receive blocks, so defer it to wait().
    req->kind = PodReq::Kind::kFabricRecv;
    req->src_grank = g;
    req->tag = tag;
    req->buffer = data;
  }
  return req;
}

Status PodComm::wait(const PodReqPtr& req) {
  CMPI_EXPECTS(req != nullptr);
  switch (req->kind) {
    case PodReq::Kind::kLocal:
      return ctx_->ep().wait(req->local);
    case PodReq::Kind::kFabricRecv: {
      auto r = ctx_->fabric_recv(req->src_grank, req->tag, req->buffer);
      req->kind = PodReq::Kind::kDone;
      req->done_status = r.status();
      return req->done_status;
    }
    case PodReq::Kind::kDone:
      return req->done_status;
  }
  return status::internal("PodComm::wait: bad request kind");
}

// ---------------------------------------------------------------------------
// HierColl

HierColl::HierColl(fabric::PodCtx& ctx, CxlCollectives* cxl)
    : ctx_(&ctx), cxl_(cxl) {}

bool HierColl::use_cxl(std::size_t bytes, ReduceOp op) const noexcept {
  // The direct-over-pool algorithms are all-read-all: every rank issues
  // (n-1) device reads, all serialized on the pool's shared bandwidth —
  // O(n^2) device transactions per collective. That wins at small pod
  // sizes (one fence instead of log n round trips) and loses past a
  // handful of ranks (EXPERIMENTS.md, "Ablations"), so gate on pod size
  // too.
  return cxl_ != nullptr && op == ReduceOp::kSum &&
         bytes <= cxl_->max_bytes() &&
         ctx_->topology().ranks_per_pod <= kCxlDirectMaxRanks;
}

bool HierColl::use_cxl_fanout(std::size_t bytes) const noexcept {
  // Same all-read-all economics as use_cxl: (n-1) serialized device reads
  // per bcast vs log n ring round trips.
  return cxl_ != nullptr && bytes <= cxl_->max_bytes() &&
         ctx_->topology().ranks_per_pod <= kCxlDirectMaxRanks;
}

PodComm HierColl::router_comm() const {
  const auto& topo = ctx_->topology();
  std::vector<int> routers;
  routers.reserve(static_cast<std::size_t>(topo.pods));
  for (int p = 0; p < topo.pods; ++p) {
    routers.push_back(topo.router_of(p));
  }
  return PodComm{*ctx_, std::move(routers)};
}

template <typename T>
void HierColl::pod_reduce_to_router(std::span<T> inout, ReduceOp op) {
  const int rl = ctx_->topology().router_local;
  if constexpr (std::is_same_v<T, double>) {
    if (use_cxl(inout.size_bytes(), op)) {
      // Direct over the pool: every pod rank (router included) ends up
      // with the pod-local sum. Costs a little extra bandwidth vs a
      // tree-to-root but one fence fewer in latency.
      cxl_->allreduce_sum(inout);
      return;
    }
  }
  detail::reduce_impl(ctx_->ep(), rl, inout, op);
}

void HierColl::barrier() {
  CMPI_OBS_SPAN("coll.hier.barrier");
  if (ctx_->topology().pods == 1) {
    coll::barrier(ctx_->ep());
    return;
  }
  const int rl = ctx_->topology().router_local;
  // Fan-in to the router, dissemination among routers, fan-out release.
  std::span<double> none;
  detail::reduce_impl(ctx_->ep(), rl, none, ReduceOp::kSum);
  if (ctx_->is_router()) {
    PodComm rc = router_comm();
    detail::barrier(rc);
  }
  detail::bcast(ctx_->ep(), rl, std::span<std::byte>{});
}

void HierColl::bcast(int root, std::span<std::byte> data) {
  CMPI_OBS_SPAN_ARG("coll.hier.bcast", "bytes", data.size());
  const auto& topo = ctx_->topology();
  if (topo.pods == 1) {
    coll::bcast(ctx_->ep(), topo.local_of(root), data);
    return;
  }
  CMPI_EXPECTS(topo.contains(root));
  const int rpod = topo.pod_of(root);
  const int rl = topo.router_local;
  // Hop 1: root hands the payload to its own pod's router (pool-local).
  if (ctx_->pod() == rpod && topo.local_of(root) != rl) {
    if (ctx_->grank() == root) {
      check_ok(ctx_->ep().send(rl, kTagHier, data));
    } else if (ctx_->local_rank() == rl) {
      check_ok(ctx_->ep().recv(topo.local_of(root), kTagHier, data).status());
    }
  }
  // Hop 2: binomial tree among routers, rooted at the root's pod.
  if (ctx_->is_router()) {
    PodComm rc = router_comm();
    detail::bcast(rc, rpod, data);
  }
  // Hop 3: intra-pod fan-out from each router.
  if (use_cxl_fanout(data.size())) {
    cxl_->bcast(rl, data);
  } else {
    detail::bcast(ctx_->ep(), rl, data);
  }
}

template <typename T>
void HierColl::reduce_hier(int root, std::span<T> inout, ReduceOp op) {
  const auto& topo = ctx_->topology();
  if (topo.pods == 1) {
    coll::reduce(ctx_->ep(), topo.local_of(root), inout, op);
    return;
  }
  CMPI_EXPECTS(topo.contains(root));
  const int rpod = topo.pod_of(root);
  const int rl = topo.router_local;
  pod_reduce_to_router(inout, op);
  if (ctx_->is_router()) {
    PodComm rc = router_comm();
    detail::reduce_impl(rc, rpod, inout, op);
  }
  // Final hop: the root pod's router relays the result to the root.
  if (ctx_->pod() == rpod && topo.local_of(root) != rl) {
    if (ctx_->local_rank() == rl) {
      check_ok(ctx_->ep().send(topo.local_of(root), kTagHier + 1,
                               std::as_bytes(inout)));
    } else if (ctx_->grank() == root) {
      check_ok(ctx_->ep()
                   .recv(rl, kTagHier + 1, std::as_writable_bytes(inout))
                   .status());
    }
  }
}

void HierColl::reduce(int root, std::span<double> inout, ReduceOp op) {
  CMPI_OBS_SPAN_ARG("coll.hier.reduce", "bytes", inout.size_bytes());
  reduce_hier(root, inout, op);
}
void HierColl::reduce(int root, std::span<std::int64_t> inout, ReduceOp op) {
  CMPI_OBS_SPAN_ARG("coll.hier.reduce", "bytes", inout.size_bytes());
  reduce_hier(root, inout, op);
}

template <typename T>
void HierColl::allreduce_hier(std::span<T> inout, ReduceOp op) {
  const auto& topo = ctx_->topology();
  if (topo.pods == 1) {
    coll::allreduce(ctx_->ep(), inout, op);
    return;
  }
  const int rl = topo.router_local;
  pod_reduce_to_router(inout, op);
  if (ctx_->is_router()) {
    PodComm rc = router_comm();
    detail::allreduce_impl(rc, inout, op);
  }
  // Fan the global result out from each router.
  if (use_cxl_fanout(inout.size_bytes())) {
    cxl_->bcast(rl, std::as_writable_bytes(inout));
  } else {
    detail::bcast(ctx_->ep(), rl, std::as_writable_bytes(inout));
  }
}

void HierColl::allreduce(std::span<double> inout, ReduceOp op) {
  CMPI_OBS_SPAN_ARG("coll.hier.allreduce", "bytes", inout.size_bytes());
  allreduce_hier(inout, op);
}
void HierColl::allreduce(std::span<std::int64_t> inout, ReduceOp op) {
  CMPI_OBS_SPAN_ARG("coll.hier.allreduce", "bytes", inout.size_bytes());
  allreduce_hier(inout, op);
}

// --- Flat single-tier baselines over the same fabric ---

void HierColl::barrier_flat() {
  CMPI_OBS_SPAN("coll.flat.barrier");
  PodComm world(*ctx_);
  detail::barrier(world);
}

void HierColl::bcast_flat(int root, std::span<std::byte> data) {
  CMPI_OBS_SPAN_ARG("coll.flat.bcast", "bytes", data.size());
  PodComm world(*ctx_);
  detail::bcast(world, root, data);
}

void HierColl::reduce_flat(int root, std::span<double> inout, ReduceOp op) {
  CMPI_OBS_SPAN_ARG("coll.flat.reduce", "bytes", inout.size_bytes());
  PodComm world(*ctx_);
  detail::reduce_impl(world, root, inout, op);
}

void HierColl::allreduce_flat(std::span<double> inout, ReduceOp op) {
  CMPI_OBS_SPAN_ARG("coll.flat.allreduce", "bytes", inout.size_bytes());
  PodComm world(*ctx_);
  detail::allreduce_impl(world, inout, op);
}
void HierColl::allreduce_flat(std::span<std::int64_t> inout, ReduceOp op) {
  CMPI_OBS_SPAN_ARG("coll.flat.allreduce", "bytes", inout.size_bytes());
  PodComm world(*ctx_);
  detail::allreduce_impl(world, inout, op);
}

}  // namespace cmpi::coll
