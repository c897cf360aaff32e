// A shared bandwidth resource in virtual time (a DDR channel group, a NIC
// wire, a PCIe link).
//
// Rank threads run concurrently in wall-clock time, so reservations arrive
// in arbitrary order relative to their *virtual* ready times. A naive
// FCFS busy-until server would serialize a virtually-early transfer behind
// a virtually-late one just because the late rank's thread got scheduled
// first — skew that compounds over a run. Instead the resource models
// fluid capacity over fixed virtual-time slots: a transfer consumes
// capacity starting at its own ready time, wherever free capacity is left
// when it is reserved. Which capacity is left still depends on call order:
// a transfer reserved first takes capacity that a virtually-earlier one,
// reserved later, would have used (ROADMAP item 2). One 2-pod x 8-rank
// cross-pod round of 2 KiB PodFabric sends from idle clocks finishes at
// 104.1 us with the pods' sends interleaved and at 110.5 us with pod 0's
// first, where FCFS by ready time gives 91.9 us. Uncontended transfers
// complete at ready + size/rate exactly; under contention aggregate
// throughput is capped at the service rate (processor sharing, which also
// matches how DRAM/NIC hardware interleaves concurrent streams better than
// strict FCFS would).
//
// Weighted fair queueing (multi-tenant pools): callers may register
// guaranteed capacity fractions per class (set_share) and attribute
// reservations to a class (reserve_for). In every capacity slot a class
// must leave untouched the unmet guarantees of *other* classes that were
// recently active, so a saturating tenant cannot push a guaranteed tenant
// below its share — while idle guarantees age out after a short activity
// window, keeping the server work-conserving. With no shares registered
// the reservation path is exactly the classic free-capacity scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/contracts.hpp"
#include "simtime/vclock.hpp"

namespace cmpi::simtime {

class BusyResource {
 public:
  /// `bytes_per_ns`: service rate (e.g. 9.9 GB/s = 9.9 bytes/ns).
  explicit BusyResource(double bytes_per_ns) : bytes_per_ns_(bytes_per_ns) {
    CMPI_EXPECTS(bytes_per_ns > 0);
    slots_.resize(kWindowSlots, 0.0);
  }

  /// Reserve capacity for a `bytes`-sized transfer that becomes ready at
  /// virtual time `ready`. Returns the completion time. Thread-safe.
  Ns reserve(Ns ready, std::size_t bytes) { return reserve_for(0, ready, bytes); }

  /// Reserve capacity on behalf of `cls` (0 = unattributed; never carries a
  /// guarantee). Identical to reserve() when no shares are registered.
  Ns reserve_for(unsigned cls, Ns ready, std::size_t bytes);

  /// Guarantee `fraction` of the capacity (0 < fraction < 1) to `cls`
  /// (cls > 0). The sum of registered fractions must stay <= 1. Replaces
  /// any earlier share for the class. Thread-safe.
  void set_share(unsigned cls, double fraction);

  /// Withdraw a class's guarantee (tenant leave). No-op if unregistered.
  void clear_share(unsigned cls);

  /// Registered guarantee of a class (0.0 when none).
  [[nodiscard]] double share(unsigned cls) const;

  /// Completion time for a transfer if no contention existed.
  [[nodiscard]] Ns uncontended_cost(std::size_t bytes) const noexcept {
    return static_cast<Ns>(bytes) / bytes_per_ns_;
  }

  /// Forget all reserved capacity (benchmark iteration boundaries).
  void reset();

  [[nodiscard]] double bytes_per_ns() const noexcept { return bytes_per_ns_; }

 private:
  /// Virtual nanoseconds per capacity slot. Small enough that completion
  /// rounding is negligible against the microsecond-scale transfers the
  /// models deal in; large enough to keep the window cheap.
  static constexpr Ns kSlotNs = 2048;
  /// Slots kept live; earlier slots are considered fully used. Covers
  /// ~130 virtual milliseconds of lookback, far beyond any legitimate
  /// thread skew.
  static constexpr std::size_t kWindowSlots = 1 << 16;

  /// An idle class's guarantee stops being reserved after this many slots
  /// without a reservation from it (~128 virtual microseconds): long
  /// enough to bridge the gaps of a continuously-offered stream, short
  /// enough that a departed/idle tenant doesn't strand capacity.
  static constexpr std::int64_t kActivityWindowSlots = 64;

  /// A registered class's guarantee and recent-activity bookkeeping.
  struct ClassShare {
    unsigned cls = 0;
    double fraction = 0.0;
    /// Used service-ns per slot for this class, parallel to slots_.
    std::vector<double> used;
    /// Highest slot this class reserved into (-1: never active).
    std::int64_t last_active_slot = -1;
  };

  [[nodiscard]] double& slot_used(std::int64_t slot) {
    return slots_[static_cast<std::size_t>(slot) % kWindowSlots];
  }
  [[nodiscard]] static double& class_used(ClassShare& share,
                                          std::int64_t slot) {
    return share.used[static_cast<std::size_t>(slot) % kWindowSlots];
  }
  void advance_base(std::int64_t new_base);

  const double bytes_per_ns_;
  mutable std::mutex mutex_;
  std::vector<double> slots_;  // used service-ns per slot, ring-buffer
  std::int64_t base_slot_ = 0;  // smallest live slot index
  std::vector<ClassShare> shares_;  // registered WFQ classes (usually few)
};

}  // namespace cmpi::simtime
