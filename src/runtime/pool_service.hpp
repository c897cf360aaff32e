// Multi-tenant pool service: admission control and tenant fault domains
// over one shared CXL pooled-memory device.
//
// The paper shares one pool among cooperating ranks of a single job; the
// service generalizes that to many independent *tenants* (jobs) attached
// to the same device, the deployment model AMD's pooled-memory papers and
// CXLMemSim's interposition shim anticipate. Three mechanisms make that
// safe:
//
//   * Fault domains — each tenant's Universe occupies a private region
//     [base, base + size) of the pool and every one of its structures
//     (bootstrap page, barrier slots, heartbeats, recovery ledger, arena
//     with its lock tickets and ring cells) is laid out inside it. Crash
//     recovery (PoolRecovery scavenge) and Arena fsck therefore operate
//     only on the convicted tenant's region, and each rank accessor
//     carries a blast-radius fence (see cxlsim::Accessor::set_fault_domain)
//     that counts any access leaving the region — the service's proof
//     obligation that isolation held.
//
//   * Admission control — join() reserves a region and a tenant slot, or
//     fails fast with kAdmissionRejected when the service is at capacity
//     (tenant count, region space, or bandwidth oversubscription).
//     join_for() is the caller-side retry loop: jittered exponential
//     backoff between attempts, bounded by a deadline. Both the clock and
//     the sleep are injectable so tests drive the whole state machine on
//     a fake clock.
//
//   * Bandwidth shares — a tenant may reserve a fraction of device
//     streaming bandwidth, enforced by weighted fair queueing in the
//     device timing model (simtime::BusyResource::set_share): a
//     saturating neighbour cannot push a guaranteed tenant below its
//     share, while idle guarantees lapse so the server stays
//     work-conserving.
//
// Fault plans are installed once, by the service, and target *global*
// ranks: tenant-local rank r of the tenant whose fault_rank_base is B is
// global rank B + r (bases are handed out monotonically and never
// reused). See bench/churn_tenants.cpp for the chaos harness built on
// top.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "runtime/universe.hpp"

namespace cmpi::runtime {

/// What a joining tenant asks for.
struct TenantConfig {
  unsigned nodes = 2;
  unsigned ranks_per_node = 1;
  /// Pool bytes for the tenant's region (its whole fault domain: barrier,
  /// heartbeats, ledger and arena all live inside). Rounded up to 4 KiB.
  std::size_t region_size = 4_MiB;
  /// Guaranteed fraction of device streaming bandwidth (WFQ share).
  /// 0 = best effort. The sum over admitted tenants must stay <= 1.
  double bandwidth_share = 0.0;
  /// Forwarded to the tenant's UniverseConfig. The arena defaults are
  /// deliberately smaller than UniverseConfig's whole-pool defaults: a
  /// tenant region is a few MiB, not a whole 64 MiB pool.
  arena::Arena::Params arena_params{
      .levels = 4, .level1_buckets = 61, .max_participants = 16};
  std::size_t cell_payload = 16_KiB;
  std::size_t ring_cells = 8;
  std::size_t rendezvous_threshold = 0;
  std::chrono::milliseconds failure_lease{250};
};

/// Caller-side retry policy for join_for: attempt k (0-based) waits
/// jitter * min(cap, initial * multiplier^k), jitter uniform in
/// [0.5, 1.0] from a deterministic per-service RNG. Delays are therefore
/// jittered (desynchronizing competing joiners), bounded by cap, and
/// never exceed the remaining deadline.
struct BackoffPolicy {
  std::chrono::microseconds initial{200};
  std::chrono::microseconds cap{10000};
  double multiplier = 2.0;
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

struct PoolServiceConfig {
  std::size_t pool_size = 64_MiB;
  /// Device heads (ports); sized for the largest tenant's node count.
  unsigned heads = 4;
  /// Hard cap on concurrently admitted tenants.
  std::size_t max_tenants = 8;
  cxlsim::CxlTimingParams timing{};
  cxlsim::CacheSim::Geometry cache_geometry{};
  /// Installed once on the shared device (global rank ids; see above).
  cxlsim::FaultPlan fault_plan{};
  BackoffPolicy backoff{};
  /// Injectable time source / sleep for join_for (fake-clock tests).
  /// Defaults: steady_clock / sleep_for.
  std::function<std::chrono::steady_clock::time_point()> now_fn;
  std::function<void(std::chrono::microseconds)> sleep_fn;
};

/// Plain-value snapshot of the service's admission counters.
struct AdmissionStats {
  std::uint64_t admissions = 0;   ///< successful joins
  std::uint64_t rejections = 0;   ///< kAdmissionRejected returned
  std::uint64_t retries = 0;      ///< backoff sleeps taken inside join_for
  std::uint64_t leaves = 0;       ///< sessions released
  std::uint64_t active_tenants = 0;
};

class PoolService;

/// A tenant's admission handle: owns the tenant's Universe and returns
/// the region/share/slot to the service when destroyed (leave). Movable,
/// not copyable.
class TenantSession {
 public:
  TenantSession(TenantSession&& other) noexcept { *this = std::move(other); }
  TenantSession& operator=(TenantSession&& other) noexcept;
  TenantSession(const TenantSession&) = delete;
  TenantSession& operator=(const TenantSession&) = delete;
  ~TenantSession() { leave(); }

  [[nodiscard]] Universe& universe() noexcept { return *universe_; }
  [[nodiscard]] int tenant_id() const noexcept { return tenant_id_; }
  /// Global rank of this tenant's local rank r (fault-plan targeting).
  [[nodiscard]] int global_rank(int local) const noexcept {
    return rank_base_ + local;
  }
  [[nodiscard]] std::uint64_t region_base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t region_size() const noexcept { return size_; }

  /// Release the region/share/slot now (idempotent; also run by ~TenantSession).
  void leave();

 private:
  friend class PoolService;
  TenantSession() = default;

  PoolService* service_ = nullptr;
  std::unique_ptr<Universe> universe_;
  int tenant_id_ = 0;
  int rank_base_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t size_ = 0;
  double share_ = 0.0;
};

class PoolService {
 public:
  explicit PoolService(const PoolServiceConfig& config);
  PoolService(const PoolService&) = delete;
  PoolService& operator=(const PoolService&) = delete;

  /// One admission attempt: returns a live session, or kAdmissionRejected
  /// when the service is at capacity (tenant slots, region space, or
  /// bandwidth oversubscription). Thread-safe.
  Result<TenantSession> join(const TenantConfig& tenant);

  /// join() with caller-side retry: jittered exponential backoff between
  /// rejected attempts, until `deadline` elapses (then kTimedOut carrying
  /// the last rejection's message). Non-admission errors return
  /// immediately.
  Result<TenantSession> join_for(const TenantConfig& tenant,
                                 std::chrono::milliseconds deadline);

  [[nodiscard]] cxlsim::DaxDevice& device() noexcept { return *device_; }
  /// The shared device's fault injector (installed iff the config had a
  /// plan), for runtime poisoning in chaos tests.
  [[nodiscard]] cxlsim::FaultInjector* fault_injector() noexcept {
    return device_->fault_injector();
  }

  [[nodiscard]] AdmissionStats admission_stats() const;

 private:
  friend class TenantSession;

  struct FreeRegion {
    std::uint64_t base = 0;
    std::uint64_t size = 0;
  };

  /// First 64 KiB of the pool is the service's own reserved page (never
  /// handed to a tenant).
  static constexpr std::uint64_t kServiceReserved = 64 * 1024;

  /// Take a region of `size` bytes (first fit), or size 0 when none fits.
  std::uint64_t allocate_region_locked(std::uint64_t size);
  void free_region_locked(std::uint64_t base, std::uint64_t size);
  void release(TenantSession& session);

  PoolServiceConfig config_;
  std::shared_ptr<cxlsim::DaxDevice> device_;

  mutable std::mutex mutex_;
  std::vector<FreeRegion> free_;  // address-ordered, coalesced
  std::size_t active_tenants_ = 0;
  double reserved_bandwidth_ = 0.0;
  int next_tenant_id_ = 1;
  int next_rank_base_ = 0;
  std::mt19937_64 jitter_rng_;
  std::uint64_t admissions_ = 0;
  std::uint64_t rejections_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t leaves_ = 0;
  obs::ProviderRegistration obs_registration_;
};

}  // namespace cmpi::runtime
