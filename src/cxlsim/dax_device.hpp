// Simulated CXL pooled-memory device exposed as a dax-style mapping.
//
// The paper's platform (Niagara 2.0) is a multi-headed device: up to four
// hosts each attach through a dedicated CXL port and the host kernel exposes
// the pool as a /dev/daxX.Y character device that processes mmap. We
// reproduce that topology with a memfd: the memfd is the pool's backing
// DRAM, each simulated node "attaches a head" and maps it. Because it is a
// real file descriptor, forked processes can map the same pool — the
// multiprocess example demonstrates genuine cross-address-space sharing.
//
// What the device does NOT provide (faithfully to the hardware):
//   * cross-host cache coherence — each node's CacheSim sits between its
//     ranks and the pool; stores stay in the node cache until flushed,
//   * cross-host atomic read-modify-write — the accessor API offers none.
//
// A small control block (separate mapping, not part of the pool the Arena
// manages) holds the process-shared lock that serializes bulk pool copies
// and the MTRR-style cacheability registers.
#pragma once

#include <pthread.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/align.hpp"
#include "common/status.hpp"
#include "cxlsim/timing.hpp"

namespace cmpi::cxlsim {

class CoherenceChecker;
class FaultInjector;
struct FaultPlan;

/// Cacheability attribute of a physical range, as programmed via MTRRs in
/// the paper's §3.5 study.
enum class Cacheability : std::uint8_t {
  kWriteBack = 0,   ///< normal cached access; coherence needs explicit flushes
  kUncachable = 1,  ///< every access goes straight to the device
};

/// MTRR-style range registers: a handful of variable ranges over the pool.
struct MtrrTable {
  static constexpr std::size_t kMaxRanges = 8;
  struct Range {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    Cacheability type = Cacheability::kWriteBack;
  };
  std::array<Range, kMaxRanges> ranges{};
  std::uint32_t count = 0;
};

/// The simulated pooled-memory device. Create once, then attach one head
/// per simulated node. Thread-safe where noted.
class DaxDevice {
 public:
  /// Create a pool of `size` bytes (rounded up to the 2 MiB dax mapping
  /// granularity). `heads` is the number of ports the platform exposes
  /// (Niagara 2.0: 4).
  static Result<std::unique_ptr<DaxDevice>> create(
      std::size_t size, unsigned heads = 4,
      const CxlTimingParams& timing = CxlTimingParams{});

  ~DaxDevice();
  DaxDevice(const DaxDevice&) = delete;
  DaxDevice& operator=(const DaxDevice&) = delete;

  /// The mapped pool, as the host kernel would hand it to mmap callers.
  [[nodiscard]] std::span<std::byte> pool() noexcept {
    return {pool_base_, size_};
  }
  [[nodiscard]] std::span<const std::byte> pool() const noexcept {
    return {pool_base_, size_};
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] unsigned heads() const noexcept { return heads_; }

  /// Backing fd, so forked processes can re-map the same pool.
  [[nodiscard]] int fd() const noexcept { return pool_fd_; }

  /// Zero [offset, offset + size) of the pool: the whole pages inside the
  /// range go back to the kernel (a hole punched in the backing memfd, so
  /// every mapping, forked ones included, reads zeros and the pages stop
  /// costing memory); the partial pages at its edges are memset.
  /// Serialized against bulk pool copies. Pool bytes only: node caches
  /// and virtual time are CacheSim::discard's and Accessor::discard's.
  void discard(std::uint64_t offset, std::uint64_t size);
  /// Whether any pool page overlapping [offset, offset + size) has been
  /// written since the pool was created or the page discarded; a page that
  /// has not reads as zeros. A host-side query of the backing memfd (no
  /// page is touched, no virtual time); true when the host cannot tell.
  [[nodiscard]] bool holds_data(std::uint64_t offset, std::uint64_t size) const;

  /// Program a cacheability range (MTRR write). Returns an error when the
  /// register file is full or the range is malformed. Not thread-safe with
  /// concurrent accesses (matches real MTRR reprogramming discipline).
  Status set_cacheability(std::uint64_t offset, std::uint64_t size,
                          Cacheability type);

  /// Effective cacheability of a byte offset (first matching range wins;
  /// default is write-back).
  [[nodiscard]] Cacheability cacheability(std::uint64_t offset) const noexcept;

  /// Timing model shared by all heads (device DIMMs + link are the shared
  /// resources that create contention).
  [[nodiscard]] CxlTimingModel& timing() noexcept { return timing_; }

  // --- Coherence-protocol checking (see coherence_checker.hpp) ---
  /// Attach a checker (idempotent). Enable before any pool traffic: lines
  /// cached earlier are tracked conservatively but without version history.
  /// Also enabled automatically by create() when the CMPI_COHERENCE_CHECK
  /// environment variable is set to anything but "0" (how the test suite
  /// turns it on globally).
  CoherenceChecker& enable_coherence_checker();
  void disable_coherence_checker();
  /// The attached checker, or nullptr when checking is off (the default).
  [[nodiscard]] CoherenceChecker* checker() const noexcept {
    return checker_.get();
  }

  // --- Fault injection (see fault_injector.hpp) ---
  /// Install a fault plan (replacing any earlier one). Install before the
  /// pool traffic the plan targets; typically done by Universe from
  /// UniverseConfig::fault_plan.
  FaultInjector& install_fault_plan(FaultPlan plan);
  void clear_fault_plan();
  /// The attached injector, or nullptr when no plan is installed (the
  /// default — a plan-free device pays one pointer compare per access).
  [[nodiscard]] FaultInjector* fault_injector() const noexcept {
    return fault_injector_.get();
  }

  /// Serialize a bulk pool copy against other bulk copies. Process-shared.
  /// u64-sized flag accesses use lock-free atomics instead and do not take
  /// this lock.
  class PoolGuard {
   public:
    explicit PoolGuard(DaxDevice& device) : mutex_(&device.ctrl_->pool_mutex) {
      pthread_mutex_lock(mutex_);
    }
    ~PoolGuard() { pthread_mutex_unlock(mutex_); }
    PoolGuard(const PoolGuard&) = delete;
    PoolGuard& operator=(const PoolGuard&) = delete;

   private:
    pthread_mutex_t* mutex_;
  };

 private:
  struct CtrlBlock {
    pthread_mutex_t pool_mutex;
    MtrrTable mtrr;
  };

  DaxDevice(int pool_fd, std::byte* pool_base, std::size_t size, int ctrl_fd,
            CtrlBlock* ctrl, unsigned heads, const CxlTimingParams& timing);

  int pool_fd_ = -1;
  std::byte* pool_base_ = nullptr;
  std::size_t size_ = 0;
  int ctrl_fd_ = -1;
  CtrlBlock* ctrl_ = nullptr;
  unsigned heads_ = 0;
  CxlTimingModel timing_;
  std::unique_ptr<CoherenceChecker> checker_;
  std::unique_ptr<FaultInjector> fault_injector_;
};

}  // namespace cmpi::cxlsim
