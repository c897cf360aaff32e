// Application communication skeletons for the strong-scaling study
// (paper §4.4, Fig. 10): NPB CG (class D) and miniAMR, replayed over the
// discrete-event simulator with per-transport interconnect parameters
// taken from Table 1 — the same methodology the paper uses with SimGrid.
//
// The skeletons reproduce each app's communication *pattern* and a
// calibrated compute load, not the numerics:
//   CG      — 2D processor grid; per inner iteration one SpMV with a
//             row-wise reduce (log2 columns exchanges) and a transpose
//             exchange, plus two 8-byte dot-product allreduces. Strong
//             scaling: the matrix is fixed, per-rank work shrinks.
//   miniAMR — 3D block-structured mesh, fixed blocks per rank (the paper
//             runs block size 4^3, so communication dominates); per step
//             six face halo exchanges and a periodic summation allreduce.
#pragma once

#include <string>

#include "simnet/engine.hpp"

namespace cmpi::simnet {

/// Interconnect characteristics of one transport: the latency and
/// bandwidth the simulator charges per inter-node message.
struct TransportProfile {
  std::string name;
  simtime::Ns inter_latency;    ///< small-message one-way MPI latency
  double inter_bytes_per_ns;    ///< saturated two-sided bandwidth
};

/// The paper's Table 1 interconnect constants, not numbers measured on
/// this repository's stacks (SimnetApps.ProfilesMatchTable1 pins them).
TransportProfile cxl_shm_profile();
TransportProfile tcp_cx6dx_profile();
TransportProfile tcp_ethernet_profile();

struct ClusterConfig {
  int nodes = 2;
  int ranks_per_node = 8;  ///< paper: eight MPI processes per node
  TransportProfile transport = cxl_shm_profile();
  simtime::Ns intra_latency = 400;
  double intra_bytes_per_ns = 10.0;
  double flops_per_ns_per_rank = 2.0;  ///< per-core sustained GFLOP/s

  // --- Pod tier (multi-pool scale-out) ---
  /// 0 = one flat pool spanning all nodes (the original behavior). When
  /// > 0, nodes are grouped into pods of this many nodes; `transport` is
  /// then the intra-pod tier and cross-pod traffic leaves through one
  /// router node per pod (the pod's first node, rank 0 of the pod) over
  /// `pod_transport`, paying an intra-pod hop to reach the router plus a
  /// serial per-message forwarding cost there.
  int nodes_per_pod = 0;
  TransportProfile pod_transport = tcp_cx6dx_profile();
  /// Serial per-message forwarding cost at a pod router (FCFS).
  simtime::Ns router_fwd_ns = 3000;
  /// Pod-aware hierarchical allreduce (intra-pod recursive doubling,
  /// router tree across pods, intra-pod broadcast); false = flat
  /// recursive doubling across all ranks — the ablation baseline.
  bool hierarchical_collectives = true;

  [[nodiscard]] int pods() const noexcept {
    return nodes_per_pod > 0 ? nodes / nodes_per_pod : 1;
  }
};

struct AppResult {
  simtime::Ns total_time = 0;  ///< simulated end time (slowest rank)
  simtime::Ns comm_time = 0;   ///< average per-rank time in communication
  [[nodiscard]] double comm_fraction() const noexcept {
    return total_time > 0 ? comm_time / total_time : 0.0;
  }
};

struct CgParams {
  std::int64_t na = 1500000;  ///< class D rows
  int nonzer = 21;            ///< class D nonzeros per row parameter
  int outer_iters = 15;       ///< truncated outer loop (shape-preserving)
  int inner_iters = 25;       ///< CG iterations per outer step
};

struct MiniAmrParams {
  int blocks_per_rank = 8;
  int block_size = 4;   ///< paper input: 4 in x, y, z
  int variables = 40;   ///< miniAMR default
  int comm_vars = 4;    ///< variables exchanged per halo message
  double flops_per_cell_var = 80.0;  ///< all stages of one timestep
  int timesteps = 200;
  int summary_every = 10;  ///< allreduce cadence
};

AppResult run_cg(const ClusterConfig& cluster, const CgParams& params);
AppResult run_miniamr(const ClusterConfig& cluster,
                      const MiniAmrParams& params);

}  // namespace cmpi::simnet
