// Modeled network transports — the paper's baselines (TCP over Ethernet,
// TCP over Mellanox CX-6 Dx, RoCE, InfiniBand).
//
// The benches compare cMPI against MPI-over-TCP on the same OSU-style
// drivers, so this module provides the same communication surface (blocking
// send/recv, one-sided windows with PSCW/lock sync) over a *modeled* NIC:
// bytes move through an in-memory channel; time is charged via the LogGP
// model of fabric/profiles.hpp. Key modeled behaviours:
//
//  * the wire between a node pair is a shared BusyResource, so multi-pair
//    aggregate bandwidth saturates at the NIC rate (Fig. 5/7's TCP curves),
//  * after packetization the sender's CPU is free (NIC offload) — senders
//    keep injecting while the wire streams, which is why TCP scales for
//    large messages where the CPU-driven CXL path does not (§4.2),
//  * flow control: at most `sndbuf` unconsumed bytes per pair, so a slow
//    receiver exerts backpressure (and propagates its virtual time),
//  * one-sided over TCP is *emulated* RMA: puts/gets become packets that
//    the target services only in its progress engine — modeled by the
//    profile's rma_sync_overhead, reproducing the ~620-630 us one-sided
//    latencies of §4.2.
//
// NetUniverse mirrors runtime::Universe: ranks started by
// runtime::launch_ranks, virtual clocks, a runtime::ClockBarrier — but no
// CXL device.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "fabric/profiles.hpp"
#include "runtime/doorbell.hpp"
#include "runtime/launch.hpp"
#include "simtime/vclock.hpp"

namespace cmpi::fabric {

struct NetConfig {
  unsigned nodes = 2;
  unsigned ranks_per_node = 1;
  NicProfile profile = tcp_ethernet();
  /// Intra-node messages use host shared memory, not the NIC.
  simtime::Ns intra_node_latency = 400;
  double intra_node_bytes_per_ns = 10.0;

  [[nodiscard]] unsigned nranks() const noexcept {
    return nodes * ranks_per_node;
  }
};

class NetCtx;

/// Shared state of the modeled network: wires, in-flight messages,
/// window memories. Thread-safe.
class NetFabric {
 public:
  explicit NetFabric(const NetConfig& config);

  struct Msg {
    int tag = 0;
    std::vector<std::byte> data;
    simtime::Ns delivered = 0;  ///< at receiver NIC, before o_r
  };

  /// Sender-side transit: charges the sender's clock, reserves the wire,
  /// enqueues the message. Blocks (functionally) on flow control.
  void send(NetCtx& ctx, int dst, int tag, std::span<const std::byte> data);

  /// Receive the first matching message (FIFO per (src,tag)). Blocks.
  /// Returns the payload size. `data` may be smaller (truncated copy).
  std::size_t recv(NetCtx& ctx, int src, int tag, std::span<std::byte> data);

  [[nodiscard]] const NetConfig& config() const noexcept { return config_; }
  [[nodiscard]] runtime::Doorbell& doorbell() noexcept { return doorbell_; }

  /// Named shared buffer backing a NetWindow (created on first use).
  std::vector<std::byte>& window_memory(const std::string& name,
                                        std::size_t size);
  std::mutex& window_mutex() noexcept { return window_mutex_; }

  /// Virtual-time transit cost of `bytes` from src to dst starting at
  /// `start`, reserving wire bandwidth. Returns delivery time.
  simtime::Ns transit(int src_rank, int dst_rank, simtime::Ns start,
                      std::size_t bytes);

  [[nodiscard]] int node_of(int rank) const noexcept {
    return rank / static_cast<int>(config_.ranks_per_node);
  }

 private:
  struct Pair {
    std::deque<Msg> queue;
    std::size_t inflight_bytes = 0;
    simtime::Ns consumed_stamp = 0;  ///< receiver clock at last recv
  };

  Pair& pair(int src, int dst);

  NetConfig config_;
  runtime::Doorbell doorbell_;
  std::mutex mutex_;
  std::map<std::pair<int, int>, Pair> pairs_;
  /// One directional wire per ordered node pair (full duplex NIC).
  std::map<std::pair<int, int>, std::unique_ptr<simtime::LogGPModel>> wires_;
  std::mutex window_mutex_;
  std::map<std::string, std::vector<std::byte>> windows_;
};

/// Per-rank context inside NetUniverse::run.
class NetCtx {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] int node() const noexcept { return fabric_->node_of(rank_); }
  [[nodiscard]] simtime::VClock& clock() noexcept { return clock_; }
  [[nodiscard]] NetFabric& fabric() noexcept { return *fabric_; }

  /// Blocking MPI-style operations over the modeled NIC.
  void send(int dst, int tag, std::span<const std::byte> data) {
    fabric_->send(*this, dst, tag, data);
  }
  std::size_t recv(int src, int tag, std::span<std::byte> data) {
    return fabric_->recv(*this, src, tag, data);
  }

  /// Virtual-time barrier across all ranks (functional sync + clock max).
  void barrier();

 private:
  friend class NetUniverse;
  NetCtx() = default;

  int rank_ = 0;
  int nranks_ = 0;
  simtime::VClock clock_;
  NetFabric* fabric_ = nullptr;
  runtime::ClockBarrier* barrier_ = nullptr;
};

class NetUniverse {
 public:
  explicit NetUniverse(const NetConfig& config);

  /// One thread per rank (runtime::launch_ranks); re-throws the first rank
  /// exception after every rank returned.
  void run(const std::function<void(NetCtx&)>& fn);

  [[nodiscard]] NetFabric& fabric() noexcept { return fabric_; }

 private:
  NetConfig config_;
  NetFabric fabric_;
};

/// One-sided window over the modeled network: MPICH-style *emulated* RMA.
/// Data functionally lives in a fabric-shared buffer; timing models the
/// RMA packets plus target-side progress servicing.
class NetWindow {
 public:
  /// Collective: all ranks call with the same name/size.
  NetWindow(NetCtx& ctx, const std::string& name, std::size_t win_size);

  void put(int target, std::uint64_t disp, std::span<const std::byte> data);
  void get(int target, std::uint64_t disp, std::span<std::byte> out);
  void write_local(std::uint64_t disp, std::span<const std::byte> data);
  void read_local(std::uint64_t disp, std::span<std::byte> out);

  // PSCW over network messages.
  void post(std::span<const int> origins);
  void start(std::span<const int> targets);
  void complete(std::span<const int> targets);
  void wait(std::span<const int> origins);

  void fence() { ctx_->barrier(); }

  [[nodiscard]] std::size_t win_size() const noexcept { return win_size_; }

 private:
  [[nodiscard]] std::span<std::byte> segment(int target);

  NetCtx* ctx_;
  std::string name_;
  std::size_t win_size_;
  std::vector<std::byte>* memory_;
  int tag_base_;
  /// Latest delivery horizon of this epoch's outstanding puts.
  simtime::Ns pending_delivery_ = 0;
};

}  // namespace cmpi::fabric
