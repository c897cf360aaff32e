// Timing model of the simulated CXL pooled-memory platform.
//
// Calibration sources (all from the paper):
//   Table 1 — 8 B access latency 790 ns (cached, no flush), 2.2 us (with
//             flush); streaming bandwidth 9.9 GB/s (cached) / 9.5 GB/s
//             (flushed); host DRAM 100 ns / 132.8 GB/s.
//   §4.5 / Fig. 11 — clflushopt up to 4x cheaper than clflush per line;
//             both ~2-3 us for a single line; MTRR-uncachable accesses
//             jump past 4096 us once the size exceeds the PCIe MPS
//             write-combining regime (~2 KiB).
//   §4.2 — CXL one-sided bandwidth saturates ~8.6 GB/s at 16 procs and
//             declines past 16 KiB messages (memory-hierarchy contention);
//             two-sided peaks ~30% lower because every byte crosses the
//             device twice.
#pragma once

#include <atomic>
#include <cstddef>

#include "simtime/busy_resource.hpp"
#include "simtime/vclock.hpp"

namespace cmpi::cxlsim {

/// Line fills one core keeps in flight at once: the L1D fill buffers of a
/// Golden Cove core, 16 (Intel 64 and IA-32 Architectures Optimization
/// Reference Manual, Golden Cove microarchitecture). The paper's Xeon 6530
/// hosts run Raptor Cove cores, which keep Golden Cove's L1D. Independent
/// loads of up to this many lines overlap, so such a wave pays one
/// line-fill latency (Accessor::nt_load_gather); a longer gather would
/// stall on free buffers.
inline constexpr std::size_t kLineFillBuffers = 16;

struct CxlTimingParams {
  // --- Transaction latencies (ns) ---
  simtime::Ns line_fill_latency = 790;    ///< cold 64 B read from the pool
  simtime::Ns line_write_latency = 430;   ///< posted 64 B write to the pool
  simtime::Ns cache_hit_latency = 2;      ///< node-local cache hit
  simtime::Ns clflush_per_line = 480;     ///< serialized flush round
  simtime::Ns clflushopt_per_line = 120;  ///< overlapped flush round
  simtime::Ns flush_base = 1300;          ///< first-flush setup + drain
  simtime::Ns fence_cost = 50;            ///< sfence/lfence issue cost
  simtime::Ns nt_store_latency = 1000;    ///< 8 B non-temporal store
  simtime::Ns nt_load_latency = 900;      ///< 8 B non-temporal load

  // --- Uncachable (MTRR=UC) path, §4.5 ---
  /// PCIe Maximum Payload Size: below this, the write-combining buffer
  /// coalesces UC stores into efficient TLPs; above it every line becomes
  /// a separate serialized TLP exchange.
  std::size_t pcie_mps = 2048;
  simtime::Ns uc_line_cost_small = 1050;   ///< per 64 B line, size <= MPS
  simtime::Ns uc_line_cost_large = 32000;  ///< per 64 B line, size > MPS

  // --- Streaming rates (bytes per ns == GB/s) ---
  double device_bytes_per_ns = 9.9;   ///< device DIMMs + CXL link cap
  double read_cost_factor = 0.65;     ///< device reads cheaper than writes
  double cpu_copy_bytes_per_ns = 2.0; ///< single-stream CPU mov to/from pool
  double local_mem_bytes_per_ns = 132.8;  ///< host-local DRAM streaming

  // --- Memory-hierarchy contention for large working sets (§4.2) ---
  /// Messages at or below this size are cache-friendly; beyond it, multiple
  /// concurrent streams of one node degrade each other's effective CPU copy
  /// rate (see StreamGauge).
  std::size_t contention_threshold = 16 * 1024;
  double contention_alpha = 0.8;       ///< strength of cross-stream slowdown
  double contention_span_log2 = 9.0;   ///< slowdown saturates at thr << 9 (8 MiB)
};

/// Gauge of the bulk copies in flight on one node (§4.2 contention). The
/// ranks of a node share its caches and memory controllers, so their large
/// copies slow each other down; copies of different nodes meet only at the
/// device, whose bandwidth reservation already charges them. Each CacheSim
/// (one per node) owns one. Thread-safe.
class StreamGauge {
 public:
  /// RAII: counts one copy stream for its lifetime.
  class Scope {
   public:
    explicit Scope(StreamGauge& gauge) noexcept : gauge_(&gauge) {
      gauge_->active_.fetch_add(1, std::memory_order_relaxed);
    }
    ~Scope() { gauge_->active_.fetch_sub(1, std::memory_order_relaxed); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StreamGauge* gauge_;
  };

  [[nodiscard]] int active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> active_{0};
};

/// Shared timing state of the device: the streaming-bandwidth server that
/// all heads contend on. Thread-safe.
class CxlTimingModel {
 public:
  explicit CxlTimingModel(const CxlTimingParams& params)
      : params_(params), device_(params.device_bytes_per_ns) {}

  [[nodiscard]] const CxlTimingParams& params() const noexcept {
    return params_;
  }

  /// Reserve device streaming bandwidth for a bulk transfer of `bytes`
  /// becoming ready at `ready`; returns completion time. Reads consume
  /// less device service time than writes (row-buffer-friendly).
  /// `wfq_class` attributes the transfer for weighted fair queueing
  /// (0 = unattributed, the single-tenant default).
  simtime::Ns reserve_device(simtime::Ns ready, std::size_t bytes,
                             bool is_read, unsigned wfq_class = 0) {
    const auto cost_bytes = static_cast<std::size_t>(
        is_read ? static_cast<double>(bytes) * params_.read_cost_factor
                : static_cast<double>(bytes));
    return device_.reserve_for(wfq_class, ready, cost_bytes);
  }

  /// Guarantee `fraction` of device bandwidth to a WFQ class (tenant).
  /// See simtime::BusyResource::set_share.
  void set_bandwidth_share(unsigned wfq_class, double fraction) {
    device_.set_share(wfq_class, fraction);
  }
  /// Withdraw a class's bandwidth guarantee (tenant leave).
  void clear_bandwidth_share(unsigned wfq_class) {
    device_.clear_share(wfq_class);
  }
  /// Registered bandwidth guarantee of a class (0.0 when none).
  [[nodiscard]] double bandwidth_share(unsigned wfq_class) const {
    return device_.share(wfq_class);
  }

  /// CPU-side cost of copying `bytes` between host memory and the pool,
  /// including the large-working-set contention penalty for `streams`
  /// copies in flight on the copying node, this one included (its
  /// StreamGauge).
  [[nodiscard]] simtime::Ns cpu_copy_cost(std::size_t bytes,
                                          int streams) const noexcept;

  /// Cost of an uncachable access of `total_size` bytes starting inside a
  /// UC MTRR range (per-line serialized TLPs; regime depends on size).
  [[nodiscard]] simtime::Ns uncached_cost(std::size_t total_size) const noexcept;

  /// Drop accumulated busy state (benchmark iteration boundaries).
  void reset() { device_.reset(); }

 private:
  const CxlTimingParams params_;
  simtime::BusyResource device_;
};

}  // namespace cmpi::cxlsim
