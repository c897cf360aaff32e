// OSU-Micro-Benchmark-style drivers (paper §4.2).
//
// The paper measures cMPI with the OSU suite: streaming multi-pair
// bandwidth and ping-pong latency for two-sided communication, and the
// one-sided put benchmarks extended to N origin / N target processes.
// These drivers reproduce that protocol over both backends:
//
//   * cxl_*  — the real cMPI stack (Universe + Session / rma::Window),
//   * net_*  — the modeled network baselines (NetUniverse + NetWindow).
//
// Protocol per data point, faithful to OSU:
//   bandwidth: each sender streams `window` back-to-back messages per
//     iteration, then waits for a 4-byte ack (two-sided) or closes the
//     epoch (one-sided). Aggregate MB/s = total bytes / max rank time.
//   latency: ping-pong (two-sided) or put+epoch (one-sided); reported
//     one-way/per-op average in microseconds.
//
// `procs` processes split half senders (ranks [0, procs/2)) on node 0 and
// half receivers on node 1, matching the paper's two-server testbed. All
// times are virtual (see simtime/vclock.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "fabric/net_fabric.hpp"
#include "runtime/universe.hpp"

namespace cmpi::osu {

struct SweepParams {
  std::vector<std::size_t> sizes;  ///< message sizes to sweep
  int procs = 2;                   ///< total processes (even)
  int iters = 10;                  ///< timed iterations per size
  int warmup = 2;                  ///< untimed iterations per size
  /// Cap on per-iteration bytes per pair: window = clamp(window_bytes /
  /// size, 2, 32) keeps wall-clock bounded across the sweep.
  std::size_t window_bytes = 1024 * 1024;
  /// cMPI message-cell payload (§4.3; the paper's tuned value is 64 KiB).
  std::size_t cell_payload = 64 * 1024;
  std::size_t ring_cells = 8;
  /// Two-sided rendezvous threshold: 0 = library default (one cell
  /// payload); SIZE_MAX disables the large-message path so a sweep can
  /// measure the eager-only baseline.
  std::size_t rendezvous_threshold = 0;
};

/// Message window for a given size (OSU window, adaptively bounded).
int window_for(const SweepParams& params, std::size_t size);

/// Standard OSU size ladder 1 B .. 8 MiB (powers of two).
std::vector<std::size_t> osu_sizes(std::size_t max = 8u * 1024 * 1024);

// ---- cMPI over CXL SHM ----
std::vector<double> cxl_twosided_bw_mbps(const SweepParams& params);
std::vector<double> cxl_twosided_latency_us(const SweepParams& params);
std::vector<double> cxl_onesided_bw_mbps(const SweepParams& params);
std::vector<double> cxl_onesided_latency_us(const SweepParams& params);

// ---- MPI over a modeled NIC ----
std::vector<double> net_twosided_bw_mbps(const fabric::NicProfile& profile,
                                         const SweepParams& params);
std::vector<double> net_twosided_latency_us(const fabric::NicProfile& profile,
                                            const SweepParams& params);
std::vector<double> net_onesided_bw_mbps(const fabric::NicProfile& profile,
                                         const SweepParams& params);
std::vector<double> net_onesided_latency_us(const fabric::NicProfile& profile,
                                            const SweepParams& params);

/// UniverseConfig sized for a bench sweep (pool large enough for the ring
/// matrix and windows at the given proc count / cell size).
runtime::UniverseConfig bench_universe_config(const SweepParams& params);

// ---- Small-message message rate (OSU osu_mbw_mr-style fan-in) ----
//
// N senders (one per node) stream `window` back-to-back `size`-byte
// messages each at ONE receiver per iteration, then wait for a 4-byte
// ack. This is the progress-engine stress case: the receiver's match
// path and per-peer scan — not the copy cost — dominate, which is what
// the doorbell-aggregated engine (p2p::Endpoint) exists to fix.
struct MsgRateParams {
  std::size_t size = 8;   ///< payload bytes per message
  int senders = 16;       ///< fan-in width (total ranks = senders + 1)
  int window = 64;        ///< messages per sender per iteration
  int iters = 10;         ///< timed iterations
  int warmup = 2;         ///< untimed iterations
  std::size_t ring_cells = 64;
};

/// Aggregate messages/second observed by the receiver (virtual time).
double cxl_msgrate_fanin(const MsgRateParams& params);

// ---- Hierarchical collectives over a pod cluster (bench/fig10h) ----

/// Which allreduce algorithm the hierarchy sweep runs.
enum class HierMode {
  kHier,    ///< three-phase hierarchical (pod reduce, router tree, fan-out)
  kFlat,    ///< flat recursive doubling over the same two-tier fabric
  kDirect,  ///< pre-hierarchy coll::allreduce on the pod Endpoint
            ///< (pods == 1 only — the bit-identity reference)
};

struct HierAllreduceParams {
  int pods = 4;
  int ranks_per_pod = 32;
  std::vector<std::size_t> sizes;  ///< payload bytes (multiples of 8)
  int iters = 3;
  int warmup = 1;
  HierMode mode = HierMode::kHier;
  /// Switch the intra-pod phases to CxlCollectives' direct-over-pool
  /// algorithms when the payload fits (kHier, multi-pod only).
  bool use_cxl_intra = true;
  std::size_t cell_payload = 4096;
  std::size_t ring_cells = 8;
};

/// Allreduce latency across `pods` CXL pools of `ranks_per_pod` ranks each,
/// stitched by per-pod routers (fabric::PodCluster). Every iteration is
/// verified against the closed-form sum. Returns the average virtual
/// microseconds per operation, one entry per size.
std::vector<double> hier_allreduce_latency_us(const HierAllreduceParams& params);

}  // namespace cmpi::osu
