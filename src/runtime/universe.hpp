// The simulated MPI universe: a CXL pooled-memory device, N nodes (each a
// private cache-coherence domain), and ranks running as threads pinned to
// nodes. Equivalent to the paper's testbed of dual-socket servers attached
// to Niagara 2.0 — scaled by configuration instead of hardware.
//
// Pool layout (all cMPI-visible state lives in the pool, like the real
// system's dax device):
//
//   [0, 4 KiB)        bootstrap page (universe magic + geometry echo)
//   [4 KiB, ...)      initialization-barrier slot array (§3.4)
//   [hb_base, ...)    heartbeat slots, one cacheline per rank (liveness)
//   [recovery_base, ) PoolRecovery ledger (epoch + per-rank stamps)
//   [doorbell_base, ) aggregated p2p doorbell matrix (AggDoorbell)
//   [arena_base, )    CXL SHM Arena — every queue/window/flag object
//
// Universe::run(fn) starts its ranks through runtime::launch_ranks (one
// thread per rank), builds each rank's context (accessor over the node
// cache, virtual clock, attached arena) and calls fn. Exceptions in any
// rank are re-thrown after join — except scripted rank crashes
// (cxlsim::RankCrashed from the fault injector), which model a died host:
// the rank simply stops, the survivors keep running, and the crash is
// reported in the teardown summary and via failed_ranks() instead of being
// re-thrown. fabric::PodCluster launches the ranks of all its pods in one
// call through the same per-rank and teardown steps.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "arena/arena.hpp"
#include "common/units.hpp"
#include "cxlsim/accessor.hpp"
#include "cxlsim/cache_sim.hpp"
#include "cxlsim/dax_device.hpp"
#include "obs/metrics.hpp"
#include "runtime/doorbell.hpp"
#include "runtime/failure_detector.hpp"
#include "runtime/seq_barrier.hpp"
#include "simtime/vclock.hpp"

namespace cmpi::fabric {
class PodCluster;
}  // namespace cmpi::fabric

namespace cmpi::tune {
/// Inert (see UniverseConfig::tune): one value, and it selects nothing.
enum class Tuning { kDisabled };
struct TuneOptions {
  Tuning mode = Tuning::kDisabled;
};
}  // namespace cmpi::tune

namespace cmpi::runtime {

/// Tri-state for the coherence-protocol checker (cxlsim/coherence_checker).
enum class CoherenceChecking {
  kAuto,      ///< follow the CMPI_COHERENCE_CHECK environment variable
  kEnabled,   ///< always interpose the checker
  kDisabled,  ///< never interpose, even if the environment asks for it
};

struct UniverseConfig {
  unsigned nodes = 2;
  unsigned ranks_per_node = 1;
  std::size_t pool_size = 64_MiB;
  arena::Arena::Params arena_params{
      .levels = 10, .level1_buckets = 1009, .max_participants = 64};
  cxlsim::CxlTimingParams timing{};
  cxlsim::CacheSim::Geometry cache_geometry{};
  /// Fixed software cost charged per MPI-level call (argument checking,
  /// request bookkeeping) — the residual MPICH overhead.
  simtime::Ns mpi_call_overhead = 800;
  /// Payload capacity of one message cell (§4.3; MPICH default 16 KiB, the
  /// paper's tuned value 64 KiB).
  std::size_t cell_payload = 16_KiB;
  /// Cells per pairwise SPSC ring. Rounded up to a power of two at
  /// Universe construction (the ring's free-running u64 indices need
  /// cells to divide 2^64 so `index % cells` survives wraparound).
  std::size_t ring_cells = 8;
  /// Eager/rendezvous switchover for two-sided sends (bytes). A message
  /// strictly larger than this takes the one-copy rendezvous path: the
  /// payload is parked in an arena slot and announced through the ring
  /// with small RTS descriptors, and the receiver pulls it straight into
  /// the user buffer (see p2p::Endpoint). 0 selects the default — one
  /// cell payload (p2p::Endpoint::rendezvous_threshold_for); SIZE_MAX
  /// disables rendezvous (eager chunking always). Nonzero values must be
  /// >= 512 (see runtime::validate). The pipeline quantum and inflight
  /// depth are constants (p2p::Endpoint::kRendezvousSegmentBytes and
  /// kMaxRendezvousInflight).
  std::size_t rendezvous_threshold = 0;
  /// Selects nothing: the rendezvous knobs are the field and constants
  /// above. Kept only because perfbench/driver.cpp still sets
  /// `tune.mode = tune::Tuning::kDisabled`; goes with that file's next
  /// change.
  tune::TuneOptions tune{};
  /// Coherence-protocol checking (off by default; the test suite turns it
  /// on for every test via CMPI_COHERENCE_CHECK=1). When enabled, every
  /// missing flush/fence/invalidate in a protocol layer is recorded and
  /// summarized at the end of run(); see Universe::coherence_checker().
  CoherenceChecking coherence_check = CoherenceChecking::kAuto;
  /// Scripted fault plan (rank crashes, poisoned ranges, degraded link);
  /// empty by default — no injector is installed and every hook stays a
  /// null-check. See cxlsim/fault_injector.hpp.
  cxlsim::FaultPlan fault_plan{};
  /// Heartbeat lease for the per-rank failure detector: a peer whose
  /// heartbeat counter does not advance for this long (wall-clock) is
  /// declared dead by deadline-aware blocking calls.
  std::chrono::milliseconds failure_lease{250};
  /// Doorbell predicate re-check interval; bounds how stale a lease check
  /// made from a wait loop can be. Must be well under failure_lease.
  std::chrono::milliseconds doorbell_recheck{1};

  // --- Service mode (multi-tenant; see runtime/pool_service.hpp) ---
  /// Attach to an existing shared device instead of creating one. The
  /// universe then occupies [region_base, region_base + region_size) of
  /// the pool: every on-pool structure (bootstrap page, barrier,
  /// heartbeats, recovery ledger, doorbell matrix, arena) is laid out
  /// region-relative, and each rank accessor is fenced to the region with
  /// blast-radius counters. pool_size/fault_plan are the *device owner's*
  /// business and must stay at their defaults here.
  std::shared_ptr<cxlsim::DaxDevice> shared_device;
  std::uint64_t region_base = 0;
  std::size_t region_size = 0;  ///< 0 = rest of the pool
  /// Tenant id for telemetry (flight-dump suffix, per-tenant metrics) and
  /// the WFQ bandwidth class. 0 = untenanted (the standalone default).
  int tenant_id = 0;
  /// Base of this universe's global-rank namespace for fault targeting:
  /// plan entries address rank `fault_rank_base + local`. 0 standalone.
  int fault_rank_base = 0;

  [[nodiscard]] unsigned nranks() const noexcept {
    return nodes * ranks_per_node;
  }
};

class Universe;

/// Monotonic host-side counters for the recovery layer, shared by every
/// rank of a Universe and accumulated across run() epochs. Incremented by
/// the p2p retransmission path and PoolRecovery; snapshot via
/// Universe::recovery_stats().
struct RecoveryCounters {
  std::atomic<std::uint64_t> crc_failures{0};   ///< chunks failing verify
  std::atomic<std::uint64_t> naks_sent{0};      ///< receiver NAKs issued
  std::atomic<std::uint64_t> retransmits{0};    ///< sender resends served
  std::atomic<std::uint64_t> retransmit_rejects{0};  ///< staging evicted
  std::atomic<std::uint64_t> stale_fenced{0};   ///< dead-incarnation msgs dropped
  std::atomic<std::uint64_t> scavenges{0};      ///< scavenge passes performed
  std::atomic<std::uint64_t> ring_cells_tombstoned{0};  ///< cells drained dead
  /// In-flight rendezvous payload slots reclaimed: by pool scavenge (a
  /// dead sender's slots) plus by survivors dropping slots whose receiver
  /// died before sending FIN.
  std::atomic<std::uint64_t> rendezvous_slots_scavenged{0};
};

/// Plain-value snapshot of RecoveryCounters.
struct RecoveryStats {
  std::uint64_t crc_failures = 0;
  std::uint64_t naks_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t retransmit_rejects = 0;
  std::uint64_t stale_fenced = 0;
  std::uint64_t scavenges = 0;
  std::uint64_t ring_cells_tombstoned = 0;
  std::uint64_t rendezvous_slots_scavenged = 0;
};

/// Everything one rank thread needs. Owned by the Universe; valid only for
/// the duration of the rank function.
class RankCtx {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] int node() const noexcept { return node_; }

  [[nodiscard]] cxlsim::Accessor& acc() noexcept { return *acc_; }
  [[nodiscard]] simtime::VClock& clock() noexcept { return clock_; }
  [[nodiscard]] Doorbell& doorbell() noexcept { return *doorbell_; }
  [[nodiscard]] arena::Arena& arena() noexcept { return *arena_; }
  [[nodiscard]] cxlsim::DaxDevice& device() noexcept { return *device_; }
  /// This rank's heartbeat-lease failure detector (liveness layer).
  [[nodiscard]] FailureDetector& failure_detector() noexcept {
    return *detector_;
  }
  [[nodiscard]] const UniverseConfig& config() const noexcept {
    return *config_;
  }

  /// This rank's incarnation number: 0 for the first life, bumped by each
  /// Universe::respawn. Stamped into every message cell so receivers can
  /// fence out traffic published by a dead incarnation.
  [[nodiscard]] std::uint32_t incarnation() const noexcept {
    return (*incarnations_)[static_cast<std::size_t>(rank_)];
  }
  /// Current incarnation of any rank (what this universe expects live
  /// traffic from `rank` to be stamped with).
  [[nodiscard]] std::uint32_t incarnation(int rank) const noexcept {
    return (*incarnations_)[static_cast<std::size_t>(rank)];
  }

  /// Base offset of the initialization-barrier slot array.
  [[nodiscard]] std::uint64_t barrier_base() const noexcept {
    return barrier_base_;
  }
  /// Base offset of the PoolRecovery ledger (epoch + per-rank stamps).
  [[nodiscard]] std::uint64_t recovery_base() const noexcept {
    return recovery_base_;
  }
  /// Base offset of the aggregated p2p doorbell matrix (AggDoorbell).
  [[nodiscard]] std::uint64_t doorbell_base() const noexcept {
    return doorbell_base_;
  }
  /// Shared recovery counters (see RecoveryCounters).
  [[nodiscard]] RecoveryCounters& recovery_counters() noexcept {
    return *recovery_counters_;
  }

  /// Enter the cross-node initialization barrier (§3.4).
  void barrier() {
    init_barrier_->enter(*acc_, *doorbell_);
  }

  /// Charge the fixed per-call MPI software overhead.
  void charge_mpi_overhead() noexcept {
    clock_.advance(config_->mpi_call_overhead);
  }

  /// The context of the calling rank thread (nullptr off a rank thread).
  static RankCtx* current() noexcept;

 private:
  friend class Universe;
  RankCtx() = default;

  int rank_ = 0;
  int nranks_ = 0;
  int node_ = 0;
  simtime::VClock clock_;
  std::unique_ptr<cxlsim::Accessor> acc_;
  std::unique_ptr<arena::Arena> arena_;
  std::unique_ptr<SeqBarrier> init_barrier_;
  std::unique_ptr<FailureDetector> detector_;
  Doorbell* doorbell_ = nullptr;
  cxlsim::DaxDevice* device_ = nullptr;
  const UniverseConfig* config_ = nullptr;
  const std::vector<std::uint32_t>* incarnations_ = nullptr;
  RecoveryCounters* recovery_counters_ = nullptr;
  std::uint64_t barrier_base_ = 0;
  std::uint64_t recovery_base_ = 0;
  std::uint64_t doorbell_base_ = 0;
};

class Universe {
 public:
  explicit Universe(const UniverseConfig& config);

  /// Launch one thread per rank (runtime::launch_ranks) and run `fn` in
  /// each. Blocks until all ranks return; the first rank exception (if
  /// any) is re-thrown.
  void run(const std::function<void(RankCtx&)>& fn);

  [[nodiscard]] cxlsim::DaxDevice& device() noexcept { return *device_; }
  [[nodiscard]] const UniverseConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::uint64_t arena_base() const noexcept {
    return arena_base_;
  }
  [[nodiscard]] Doorbell& doorbell() noexcept { return doorbell_; }

  /// Node cache of a given node id (tests/teardown).
  [[nodiscard]] cxlsim::CacheSim& node_cache(int node) noexcept {
    return *node_caches_[static_cast<std::size_t>(node)];
  }

  /// The coherence checker, or nullptr when checking is off. Violations
  /// accumulate across run() calls; tests assert on summary().total().
  [[nodiscard]] cxlsim::CoherenceChecker* coherence_checker() noexcept {
    return device_->checker();
  }

  /// The fault injector, or nullptr when config.fault_plan was empty.
  /// Events accumulate across run() calls (like the coherence checker).
  [[nodiscard]] cxlsim::FaultInjector* fault_injector() noexcept {
    return device_->fault_injector();
  }

  /// Ranks known to have failed: scripted crashes recorded by the fault
  /// injector plus peers declared dead by any rank's failure detector.
  /// Sorted, deduplicated. Accumulates across run() calls.
  [[nodiscard]] std::vector<int> failed_ranks() const;

  /// Base offset of the per-rank heartbeat slot array.
  [[nodiscard]] std::uint64_t heartbeat_base() const noexcept {
    return hb_base_;
  }
  /// Base offset of the PoolRecovery ledger.
  [[nodiscard]] std::uint64_t recovery_base() const noexcept {
    return recovery_base_;
  }
  /// Base offset of the aggregated p2p doorbell matrix.
  [[nodiscard]] std::uint64_t doorbell_base() const noexcept {
    return doorbell_base_;
  }

  /// Restart a crashed rank for the NEXT run() epoch under a bumped
  /// incarnation: forgives the injector's crash record, withdraws the rank
  /// from the detector-merged failure record, zeroes its heartbeat slot
  /// and forges its barrier slot level with the survivors so it rejoins in
  /// step. Stale pool state from the dead incarnation is fenced at the
  /// endpoint match path via the incarnation stamp (and reclaimed by
  /// PoolRecovery::scavenge if a survivor ran one). Must be called between
  /// run() epochs — never while rank threads are live.
  void respawn(int rank);

  /// Current incarnation of a rank (0 until its first respawn).
  [[nodiscard]] std::uint32_t incarnation(int rank) const {
    return incarnations_[static_cast<std::size_t>(rank)];
  }

  /// Snapshot of the recovery-layer counters (NAKs, retransmissions,
  /// fenced stale messages, scavenges). Accumulates across run() epochs.
  [[nodiscard]] RecoveryStats recovery_stats() const;

  /// Base/size of this universe's pool region ([0, device size) when it
  /// owns the whole device).
  [[nodiscard]] std::uint64_t region_base() const noexcept {
    return region_base_;
  }
  [[nodiscard]] std::uint64_t region_size() const noexcept {
    return region_size_;
  }

  /// Blast-radius counters of this universe's fault-domain fence: accesses
  /// its ranks made OUTSIDE [region_base, region_base + region_size).
  /// Always zero in whole-device mode (the fence is off) and, if tenant
  /// isolation holds, in service mode too.
  struct DomainStats {
    std::uint64_t writes_outside = 0;
    std::uint64_t reads_outside = 0;
  };
  [[nodiscard]] DomainStats domain_stats() const noexcept {
    return {domain_counters_.writes_outside.load(std::memory_order_relaxed),
            domain_counters_.reads_outside.load(std::memory_order_relaxed)};
  }

 private:
  /// Offset of the barrier array inside the region (the region's first
  /// 4 KiB is the bootstrap page).
  static constexpr std::uint64_t kBarrierOffset = 4096;

  // PodCluster launches the ranks of all its pods in one call.
  friend class fabric::PodCluster;

  /// Apply this universe's tenant attribution to an accessor: WFQ
  /// bandwidth class and, in service mode, the region fault-domain fence.
  void configure_accessor(cxlsim::Accessor& acc) noexcept;

  /// Rank `r`'s whole life on the calling thread: build its context, run
  /// `fn`, absorb a scripted crash and fold the rank's detector verdicts
  /// into the universe record. Any other exception is re-thrown.
  void run_rank(unsigned r, const std::function<void(RankCtx&)>& fn);

  /// Teardown after every rank returned: write back (or, for dead nodes,
  /// drop) the node caches and log the checker, injector and detector
  /// records.
  void finish_run();

  UniverseConfig config_;
  std::shared_ptr<cxlsim::DaxDevice> device_;
  std::uint64_t region_base_ = 0;
  std::uint64_t region_size_ = 0;
  std::uint64_t barrier_base_ = 0;
  /// Blast-radius counters shared by every rank accessor of the universe.
  cxlsim::DomainCounters domain_counters_;
  std::vector<std::unique_ptr<cxlsim::CacheSim>> node_caches_;
  Doorbell doorbell_;
  std::uint64_t hb_base_ = 0;
  std::uint64_t recovery_base_ = 0;
  std::uint64_t doorbell_base_ = 0;
  std::uint64_t arena_base_ = 0;
  /// Peers declared dead by rank detectors, merged at thread exit.
  mutable std::mutex failures_mutex_;
  std::vector<int> detected_failures_;
  /// Ranks whose threads unwound via RankCrashed (cleared by respawn).
  std::vector<bool> rank_crashed_;
  /// Nodes whose every rank has crashed: the "host" is dead, its private
  /// cache must be DROPPED, never written back (a dead host's writeback
  /// would leak post-crash state into the pool).
  std::vector<bool> node_dead_;
  std::vector<std::uint32_t> incarnations_;
  std::unique_ptr<RecoveryCounters> recovery_counters_;
  // Exposes the recovery counters to the obs metrics registry as the
  // recovery.* family; declared after the counters so the provider's final
  // read at unregistration still sees them alive.
  obs::ProviderRegistration obs_registration_;
  // Service mode only: exposes the blast-radius counters as tenant.* (the
  // aggregate across tenants) plus a tenant.<id>.* copy for per-tenant
  // isolation dashboards.
  obs::ProviderRegistration obs_domain_registration_;
};

}  // namespace cmpi::runtime
