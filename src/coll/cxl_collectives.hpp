// Collectives implemented *directly* over CXL shared memory, rather than
// layered on point-to-point.
//
// §3.6 notes collectives can reuse cMPI's point-to-point; the only prior
// MPI-over-CXL work the paper cites (Ahn et al. 2024) instead maps a
// collective straight onto the shared pool: every rank deposits its
// contribution into a shared window and reads the others' after a
// barrier — one device write plus direct reads, no per-message queue
// protocol at all. This module provides that style for the collectives
// where it pays off; the allgather record under "Ablations" in
// EXPERIMENTS.md compares the two (p2p-algorithmic vs CXL-direct) across
// message sizes.
#pragma once

#include <span>
#include <string>

#include "rma/window.hpp"
#include "runtime/universe.hpp"

namespace cmpi::coll {

/// A reusable CXL-direct collective context: one shared window of
/// `max_bytes` per rank plus the window's fence barrier. Collective
/// construction (all ranks).
class CxlCollectives {
 public:
  CxlCollectives(runtime::RankCtx& ctx, const std::string& name,
                 std::size_t max_bytes);

  /// Allgather: every rank contributes `mine` (<= max_bytes); `all`
  /// receives nranks blocks in rank order. One coherent write + a fence +
  /// (n-1) direct reads.
  void allgather(std::span<const std::byte> mine, std::span<std::byte> all);

  /// Broadcast from `root`: one write by the root, direct reads by all.
  void bcast(int root, std::span<std::byte> data);

  /// Reduce-to-all directly over the pool: each rank deposits its vector,
  /// then every rank reads and folds all contributions locally.
  /// (All-read-all is bandwidth-heavier than recursive doubling for large
  /// vectors but latency-lighter for small ones.)
  void allreduce_sum(std::span<double> inout);

  /// The window's fence barrier (usable standalone).
  void barrier() { window_.fence(); }

  /// Collective teardown (frees the window).
  void free() { window_.free(); }

  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }

 private:
  runtime::RankCtx* ctx_;
  std::size_t max_bytes_;
  rma::Window window_;
};

}  // namespace cmpi::coll
