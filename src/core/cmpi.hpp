// cMPI — MPI one-sided and two-sided inter-node communication over CXL
// memory sharing (reproduction of Wang et al., SC '25).
//
// This is the library's public entry point. A typical program:
//
//   #include "core/cmpi.hpp"
//
//   cmpi::runtime::UniverseConfig cfg;       // nodes, ranks, pool size
//   cmpi::runtime::Universe universe(cfg);   // the CXL pooled platform
//   universe.run([](cmpi::runtime::RankCtx& ctx) {
//     cmpi::Session mpi(ctx);                // MPI_Init equivalent
//     if (mpi.rank() == 0) mpi.send(1, /*tag=*/0, data);
//     else                 mpi.recv(0, 0, buffer);
//   });
//
// A Session bundles the rank's two-sided endpoint (SPSC ring matrix over
// CXL SHM), one-sided window management, and collectives. All virtual-time
// accounting is automatic; `ctx.clock().now()` reads the rank's simulated
// time.
#pragma once

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "coll/collectives.hpp"
#include "core/communicator.hpp"
#include "cxlsim/coherence_checker.hpp"
#include "p2p/endpoint.hpp"
#include "rma/window.hpp"
#include "runtime/pool_recovery.hpp"
#include "runtime/universe.hpp"

namespace cmpi {

/// Wildcards (MPI_ANY_SOURCE / MPI_ANY_TAG).
using p2p::kAnySource;
using p2p::kAnyTag;
using p2p::RecvInfo;
using p2p::RequestPtr;
using coll::ReduceOp;
using rma::AccumulateOp;

/// Per-rank communication session: the MPI_COMM_WORLD-equivalent handle.
/// Construct once per rank inside Universe::run (collective operation).
class Session {
 public:
  /// Collective: all ranks construct their Session together (builds the
  /// shared ring matrix; MPI_Init equivalent).
  explicit Session(runtime::RankCtx& ctx)
      : ctx_(&ctx), endpoint_(p2p::Endpoint::create(ctx)) {}

  [[nodiscard]] int rank() const noexcept { return ctx_->rank(); }
  [[nodiscard]] int size() const noexcept { return ctx_->nranks(); }
  [[nodiscard]] runtime::RankCtx& ctx() noexcept { return *ctx_; }
  [[nodiscard]] p2p::Endpoint& endpoint() noexcept { return endpoint_; }

  // ---- Two-sided (MPI_Send / MPI_Recv families) ----
  Status send(int dst, int tag, std::span<const std::byte> data) {
    return endpoint_.send(dst, tag, data);
  }
  Result<RecvInfo> recv(int src, int tag, std::span<std::byte> buffer) {
    return endpoint_.recv(src, tag, buffer);
  }
  Status ssend(int dst, int tag, std::span<const std::byte> data) {
    return endpoint_.ssend(dst, tag, data);
  }
  RequestPtr isend(int dst, int tag, std::span<const std::byte> data) {
    return endpoint_.isend(dst, tag, data);
  }
  RequestPtr issend(int dst, int tag, std::span<const std::byte> data) {
    return endpoint_.issend(dst, tag, data);
  }
  RequestPtr irecv(int src, int tag, std::span<std::byte> buffer) {
    return endpoint_.irecv(src, tag, buffer);
  }
  bool test(const RequestPtr& r) { return endpoint_.test(r); }
  Status wait(const RequestPtr& r) { return endpoint_.wait(r); }
  Status wait_all(std::span<const RequestPtr> rs) {
    return endpoint_.wait_all(rs);
  }

  // ---- Deadline- and failure-aware variants (liveness layer) ----
  // Return kPeerFailed when the watched peer's heartbeat lease expires,
  // kTimedOut when the deadline passes with peers still alive; see
  // p2p::Endpoint for the cancellation semantics.
  Status wait_for(const RequestPtr& r, std::chrono::milliseconds timeout) {
    return endpoint_.wait_for(r, timeout);
  }
  Result<RecvInfo> recv_for(int src, int tag, std::span<std::byte> buffer,
                            std::chrono::milliseconds timeout) {
    return endpoint_.recv_for(src, tag, buffer, timeout);
  }
  Status send_for(int dst, int tag, std::span<const std::byte> data,
                  std::chrono::milliseconds timeout) {
    return endpoint_.send_for(dst, tag, data, timeout);
  }
  Status ssend_for(int dst, int tag, std::span<const std::byte> data,
                   std::chrono::milliseconds timeout) {
    return endpoint_.ssend_for(dst, tag, data, timeout);
  }
  std::optional<RecvInfo> iprobe(int src, int tag) {
    return endpoint_.iprobe(src, tag);
  }
  RecvInfo probe(int src, int tag) { return endpoint_.probe(src, tag); }
  Status sendrecv(int dst, int send_tag, std::span<const std::byte> out,
                  int src, int recv_tag, std::span<std::byte> in,
                  RecvInfo* info = nullptr) {
    return endpoint_.sendrecv(dst, send_tag, out, src, recv_tag, in, info);
  }

  /// Typed convenience overloads.
  template <typename T>
  Status send_values(int dst, int tag, std::span<const T> values) {
    return send(dst, tag, std::as_bytes(values));
  }
  template <typename T>
  Result<RecvInfo> recv_values(int src, int tag, std::span<T> values) {
    return recv(src, tag, std::as_writable_bytes(values));
  }

  // ---- One-sided (MPI_Win family) ----
  /// Collective window creation (MPI_Win_allocate_shared over CXL, §3.2).
  rma::Window create_window(const std::string& name, std::size_t win_size) {
    return rma::Window::create(*ctx_, name, win_size);
  }

  // ---- Collectives (§3.6) ----
  void barrier() { coll::barrier(endpoint_); }
  void bcast(int root, std::span<std::byte> data) {
    coll::bcast(endpoint_, root, data);
  }
  void reduce(int root, std::span<double> inout, ReduceOp op) {
    coll::reduce(endpoint_, root, inout, op);
  }
  void allreduce(std::span<double> inout, ReduceOp op) {
    coll::allreduce(endpoint_, inout, op);
  }
  void allreduce(std::span<std::int64_t> inout, ReduceOp op) {
    coll::allreduce(endpoint_, inout, op);
  }
  void allgather(std::span<const std::byte> mine, std::span<std::byte> all) {
    coll::allgather(endpoint_, mine, all);
  }
  void alltoall(std::span<const std::byte> send_blocks,
                std::span<std::byte> recv_blocks, std::size_t block) {
    coll::alltoall(endpoint_, send_blocks, recv_blocks, block);
  }
  void reduce_scatter(std::span<const double> data, std::span<double> out,
                      ReduceOp op) {
    coll::reduce_scatter(endpoint_, data, out, op);
  }
  void gather(int root, std::span<const std::byte> mine,
              std::span<std::byte> all) {
    coll::gather(endpoint_, root, mine, all);
  }
  void scatter(int root, std::span<const std::byte> all,
               std::span<std::byte> mine) {
    coll::scatter(endpoint_, root, all, mine);
  }
  void scan(std::span<double> inout, ReduceOp op) {
    coll::scan(endpoint_, inout, op);
  }
  void scan(std::span<std::int64_t> inout, ReduceOp op) {
    coll::scan(endpoint_, inout, op);
  }

  /// The rank's virtual time in nanoseconds (simulated, not wall clock).
  [[nodiscard]] double now_ns() const noexcept {
    return ctx_->clock().now();
  }

  /// Cumulative two-sided communication statistics for this rank.
  [[nodiscard]] const p2p::CommStats& stats() const noexcept {
    return endpoint_.stats();
  }

  /// Coherence-protocol violations recorded so far across the whole
  /// universe (0 when the checker is disabled; see
  /// UniverseConfig::coherence_check and docs/INTERNALS.md §6). Lets a
  /// program or test assert mid-run that its pool traffic is clean.
  [[nodiscard]] std::uint64_t coherence_violations() const noexcept {
    const cxlsim::CoherenceChecker* chk = ctx_->device().checker();
    return chk == nullptr ? 0 : chk->total_violations();
  }

  // ---- Pool recovery (crash → scavenge → respawn) ----

  /// Combined outcome of one Session-level scavenge pass.
  struct RecoveryReport {
    /// Pool-global half (arena slots, arena-lock ticket, barrier slot,
    /// recovery ledger) — exactly-once across survivors.
    runtime::PoolRecovery::ScavengeReport pool;
    /// Endpoint-local half (this rank's inbound small and bulk rings from
    /// the corpse, abandoned assemblies, doomed requests) — every
    /// survivor's own.
    p2p::Endpoint::PeerScavengeReport endpoint;
  };

  /// Reclaim everything a convicted-dead rank left behind, as seen from
  /// this rank: runtime::PoolRecovery::scavenge for the shared pool state
  /// (idempotent across survivors via the on-pool ledger) plus
  /// p2p::Endpoint::scavenge_peer for this rank's endpoint state (every
  /// survivor runs its own). Fails with kInvalidArgument when `dead_rank`
  /// is not convicted, kTimedOut when the arena lock could not be won.
  /// Windows are repaired separately (rma::Window::scavenge_peer) — the
  /// session does not track window lifetimes.
  Result<RecoveryReport> scavenge(
      int dead_rank,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(1000)) {
    runtime::PoolRecovery recovery(*ctx_);
    Result<runtime::PoolRecovery::ScavengeReport> pool =
        recovery.scavenge(dead_rank, timeout);
    if (!pool.is_ok()) {
      return pool.status();
    }
    RecoveryReport report;
    report.pool = pool.value();
    report.endpoint = endpoint_.scavenge_peer(dead_rank);
    return report;
  }

  /// Ranks this session knows to have failed: scripted crashes recorded by
  /// the fault injector plus peers this rank's failure detector declared
  /// dead. Sorted, deduplicated. Empty in a healthy universe.
  [[nodiscard]] std::vector<int> failed_ranks() const {
    std::vector<int> out;
    if (const cxlsim::FaultInjector* fi = ctx_->device().fault_injector()) {
      // The injector records GLOBAL ranks (a shared device serves many
      // tenants); keep only this universe's window, as local ids.
      const int base = ctx_->config().fault_rank_base;
      for (const int global : fi->crashed_ranks()) {
        if (global >= base && global < base + ctx_->nranks()) {
          out.push_back(global - base);
        }
      }
    }
    const auto detected = ctx_->failure_detector().failed_ranks();
    out.insert(out.end(), detected.begin(), detected.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  // ---- Communicators (MPI_Comm_split) ----
  /// Collective: every rank calls with its `color`/`key`. Ranks with the
  /// same non-negative color form a communicator, ordered by (key, world
  /// rank). A negative color returns nullopt (MPI_UNDEFINED) — such ranks
  /// still participate in the collective split.
  std::optional<Communicator> split(int color, int key) {
    struct Entry {
      int color;
      int key;
      int world_rank;
    };
    const Entry mine{color, key, rank()};
    std::vector<Entry> entries(static_cast<std::size_t>(size()));
    coll::allgather(endpoint_, std::as_bytes(std::span(&mine, 1)),
                    std::as_writable_bytes(std::span(entries)));
    const int sequence = split_sequence_++;
    if (color < 0) {
      return std::nullopt;
    }
    // Dense index of my color among the distinct non-negative colors.
    std::vector<int> colors;
    for (const Entry& e : entries) {
      if (e.color >= 0) {
        colors.push_back(e.color);
      }
    }
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
    const int color_index = static_cast<int>(
        std::lower_bound(colors.begin(), colors.end(), color) -
        colors.begin());
    constexpr int kMaxColorsPerSplit = 64;
    CMPI_EXPECTS(color_index < kMaxColorsPerSplit);
    const int context_id = sequence * kMaxColorsPerSplit + color_index + 1;
    CMPI_EXPECTS(context_id < (1 << 13));

    std::vector<Entry> mates;
    for (const Entry& e : entries) {
      if (e.color == color) {
        mates.push_back(e);
      }
    }
    std::sort(mates.begin(), mates.end(), [](const Entry& a, const Entry& b) {
      return a.key != b.key ? a.key < b.key : a.world_rank < b.world_rank;
    });
    std::vector<int> members;
    int my_index = -1;
    for (const Entry& e : mates) {
      if (e.world_rank == rank()) {
        my_index = static_cast<int>(members.size());
      }
      members.push_back(e.world_rank);
    }
    CMPI_ENSURES(my_index >= 0);
    return Communicator(endpoint_, context_id, std::move(members), my_index);
  }

 private:
  runtime::RankCtx* ctx_;
  p2p::Endpoint endpoint_;
  int split_sequence_ = 0;
};

}  // namespace cmpi
