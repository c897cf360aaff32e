#include "fabric/net_fabric.hpp"

#include <algorithm>
#include <cstring>
#include <exception>

#include "common/contracts.hpp"
#include "common/hash.hpp"

namespace cmpi::fabric {

NetFabric::NetFabric(const NetConfig& config) : config_(config) {
  CMPI_EXPECTS(config.nodes > 0 && config.ranks_per_node > 0);
  for (unsigned a = 0; a < config.nodes; ++a) {
    for (unsigned b = 0; b < config.nodes; ++b) {
      if (a != b) {
        wires_.emplace(std::make_pair(static_cast<int>(a),
                                      static_cast<int>(b)),
                       std::make_unique<simtime::LogGPModel>(config.profile
                                                                 .loggp));
      }
    }
  }
}

NetFabric::Pair& NetFabric::pair(int src, int dst) {
  return pairs_[{src, dst}];  // caller holds mutex_
}

simtime::Ns NetFabric::transit(int src_rank, int dst_rank, simtime::Ns start,
                               std::size_t bytes) {
  const int src_node = node_of(src_rank);
  const int dst_node = node_of(dst_rank);
  if (src_node == dst_node) {
    return start + config_.intra_node_latency +
           static_cast<double>(bytes) / config_.intra_node_bytes_per_ns;
  }
  return wires_.at({src_node, dst_node})->send(start, bytes).delivered;
}

void NetFabric::send(NetCtx& ctx, int dst, int tag,
                     std::span<const std::byte> data) {
  CMPI_EXPECTS(dst >= 0 && dst < static_cast<int>(config_.nranks()));
  const int me = ctx.rank();
  // Flow control: block while the pair's unconsumed bytes exceed sndbuf.
  // A sender that had to wait has, in effect, synchronized with the
  // receiver's progress — propagate that in virtual time.
  bool blocked = false;
  doorbell_.wait_until([&] {
    std::lock_guard lock(mutex_);
    if (pair(me, dst).inflight_bytes + data.size() <=
        config_.profile.sndbuf) {
      return true;
    }
    blocked = true;
    return false;
  });
  if (blocked) {
    std::lock_guard lock(mutex_);
    ctx.clock().observe(pair(me, dst).consumed_stamp);
  }

  const int src_node = node_of(me);
  const int dst_node = node_of(dst);
  Msg msg;
  msg.tag = tag;
  msg.data.assign(data.begin(), data.end());

  // MPI software cost + packetization on the sender CPU.
  ctx.clock().advance(config_.profile.mpi_msg_overhead);
  if (src_node == dst_node) {
    ctx.clock().advance(config_.intra_node_latency / 2);
    msg.delivered = ctx.clock().now() + config_.intra_node_latency / 2 +
                    static_cast<double>(data.size()) /
                        config_.intra_node_bytes_per_ns;
  } else {
    simtime::LogGPModel& wire = *wires_.at({src_node, dst_node});
    const simtime::MessageTiming t = wire.send(ctx.clock().now(),
                                               data.size());
    ctx.clock().observe(t.sender_done);  // CPU free after hand-off to NIC
    msg.delivered = t.delivered;
  }

  {
    std::lock_guard lock(mutex_);
    Pair& p = pair(me, dst);
    p.inflight_bytes += msg.data.size();
    p.queue.push_back(std::move(msg));
  }
  doorbell_.ring();
}

std::size_t NetFabric::recv(NetCtx& ctx, int src, int tag,
                            std::span<std::byte> data) {
  CMPI_EXPECTS(src >= 0 && src < static_cast<int>(config_.nranks()));
  const int me = ctx.rank();
  Msg msg;
  doorbell_.wait_until([&] {
    std::lock_guard lock(mutex_);
    Pair& p = pair(src, me);
    const auto it = std::find_if(p.queue.begin(), p.queue.end(),
                                 [&](const Msg& m) { return m.tag == tag; });
    if (it == p.queue.end()) {
      return false;
    }
    msg = std::move(*it);
    p.queue.erase(it);
    CMPI_ASSERT(p.inflight_bytes >= msg.data.size());
    p.inflight_bytes -= msg.data.size();
    return true;
  });
  // Data visible at delivery; then receiver-side CPU costs.
  ctx.clock().observe(msg.delivered);
  ctx.clock().advance(config_.profile.loggp.recv_overhead +
                      config_.profile.mpi_msg_overhead);
  {
    std::lock_guard lock(mutex_);
    Pair& p = pair(src, me);
    p.consumed_stamp = std::max(p.consumed_stamp, ctx.clock().now());
  }
  const std::size_t copy = std::min(data.size(), msg.data.size());
  if (copy > 0) {
    std::memcpy(data.data(), msg.data.data(), copy);
  }
  doorbell_.ring();  // wake flow-controlled senders
  return msg.data.size();
}

std::vector<std::byte>& NetFabric::window_memory(const std::string& name,
                                                 std::size_t size) {
  std::lock_guard lock(window_mutex_);
  auto& buffer = windows_[name];
  if (buffer.size() < size) {
    buffer.resize(size);
  }
  return buffer;
}

// ---------- NetCtx ----------

void NetCtx::barrier() {
  barrier_->enter(static_cast<unsigned>(rank_), clock_);
}

// ---------- NetUniverse ----------

NetUniverse::NetUniverse(const NetConfig& config)
    : config_(config), fabric_(config) {}

void NetUniverse::run(const std::function<void(NetCtx&)>& fn) {
  const unsigned nranks = config_.nranks();
  runtime::ClockBarrier barrier(nranks);
  const std::exception_ptr error = runtime::launch_ranks(
      nranks,
      [&](unsigned r) {
        NetCtx ctx;
        ctx.rank_ = static_cast<int>(r);
        ctx.nranks_ = static_cast<int>(nranks);
        ctx.fabric_ = &fabric_;
        ctx.barrier_ = &barrier;
        fn(ctx);
      },
      [this] { fabric_.doorbell().ring(); });
  if (error) {
    std::rethrow_exception(error);
  }
}

// ---------- NetWindow ----------

namespace {
// Tag spaces: windows hash their name into a disjoint region far above
// user tags. Sub-tags: +0 post, +1 complete, +2 data-ack (reserved).
constexpr int kWindowTagBase = 1 << 24;
}  // namespace

NetWindow::NetWindow(NetCtx& ctx, const std::string& name,
                     std::size_t win_size)
    : ctx_(&ctx),
      name_(name),
      win_size_(win_size),
      tag_base_(kWindowTagBase +
                static_cast<int>(hash_string(name) % (1 << 20)) * 8) {
  memory_ = &ctx.fabric().window_memory(
      name, win_size * static_cast<std::size_t>(ctx.nranks()));
  ctx_->barrier();
}

std::span<std::byte> NetWindow::segment(int target) {
  return std::span<std::byte>(*memory_).subspan(
      static_cast<std::size_t>(target) * win_size_, win_size_);
}

void NetWindow::put(int target, std::uint64_t disp,
                    std::span<const std::byte> data) {
  CMPI_EXPECTS(disp + data.size() <= win_size_);
  // Functional: write through the shared buffer.
  {
    std::lock_guard lock(ctx_->fabric().window_mutex());
    std::memcpy(segment(target).data() + disp, data.data(), data.size());
  }
  // Timing: an RMA packet from origin to target.
  const auto& profile = ctx_->fabric().config().profile;
  ctx_->clock().advance(profile.mpi_msg_overhead);
  const simtime::Ns delivered = ctx_->fabric().transit(
      ctx_->rank(), target, ctx_->clock().now(), data.size());
  // Origin is free after injection, but remembers the delivery horizon so
  // complete() can wait for it.
  pending_delivery_ = std::max(pending_delivery_, delivered);
}

void NetWindow::get(int target, std::uint64_t disp,
                    std::span<std::byte> out) {
  CMPI_EXPECTS(disp + out.size() <= win_size_);
  {
    std::lock_guard lock(ctx_->fabric().window_mutex());
    std::memcpy(out.data(), segment(target).data() + disp, out.size());
  }
  // Request packet + target progress + response carrying the data.
  const auto& profile = ctx_->fabric().config().profile;
  ctx_->clock().advance(profile.mpi_msg_overhead);
  const simtime::Ns request = ctx_->fabric().transit(
      ctx_->rank(), target, ctx_->clock().now(), 64);
  const simtime::Ns response = ctx_->fabric().transit(
      target, ctx_->rank(), request + profile.rma_sync_overhead, out.size());
  ctx_->clock().observe(response);
}

void NetWindow::write_local(std::uint64_t disp,
                            std::span<const std::byte> data) {
  CMPI_EXPECTS(disp + data.size() <= win_size_);
  std::lock_guard lock(ctx_->fabric().window_mutex());
  std::memcpy(segment(ctx_->rank()).data() + disp, data.data(), data.size());
}

void NetWindow::read_local(std::uint64_t disp, std::span<std::byte> out) {
  CMPI_EXPECTS(disp + out.size() <= win_size_);
  std::lock_guard lock(ctx_->fabric().window_mutex());
  std::memcpy(out.data(), segment(ctx_->rank()).data() + disp, out.size());
}

void NetWindow::post(std::span<const int> origins) {
  for (const int origin : origins) {
    ctx_->send(origin, tag_base_ + 0, {});
  }
}

void NetWindow::start(std::span<const int> targets) {
  std::byte dummy[1];
  for (const int target : targets) {
    (void)ctx_->recv(target, tag_base_ + 0, {dummy, 0});
  }
}

void NetWindow::complete(std::span<const int> targets) {
  // All RMA packets must be on the wire before the completion message.
  ctx_->clock().observe(pending_delivery_);
  pending_delivery_ = 0;
  for (const int target : targets) {
    ctx_->send(target, tag_base_ + 1, {});
  }
}

void NetWindow::wait(std::span<const int> origins) {
  const auto& profile = ctx_->fabric().config().profile;
  std::byte dummy[1];
  for (const int origin : origins) {
    (void)ctx_->recv(origin, tag_base_ + 1, {dummy, 0});
    // Target-side progress engine services the epoch's RMA packets.
    ctx_->clock().advance(profile.rma_sync_overhead);
  }
}

}  // namespace cmpi::fabric
