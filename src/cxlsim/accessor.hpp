// Per-rank access path to the simulated CXL pool.
//
// Every CXL SHM touch in the upper layers (arena metadata, message cells,
// RMA windows, synchronization flags) goes through an Accessor, which
// performs the functional operation on the owning node's CacheSim and
// charges the rank's virtual clock according to the device timing model.
//
// Operation classes, mirroring §3.5 of the paper:
//   * cached load/store/memset — write-back, may be stale/invisible until
//     flushed; per-line latency charges (control-plane sized data),
//   * clflush / clflushopt / clwb + sfence/lfence — software coherence,
//   * non-temporal ops — bypass the cache; u64 variants are the lock-free
//     synchronization-flag primitives (ring head pointers, PSCW flags);
//     a record store can itself be the publish (a ring cell header);
//     a gathered read loads independent ranges in one overlapped wave,
//     bounded by the core's line fill buffers (kLineFillBuffers),
//   * bulk_write / bulk_read — streaming payload copies with the pipelined
//     CPU + device bandwidth model (and the node's contention gauge),
//   * timestamped flags — an 8-byte value plus an 8-byte virtual-time stamp
//     published together, the mechanism that propagates causality between
//     rank clocks (see simtime/vclock.hpp).
//
// An Accessor is owned by exactly one rank thread; it is not thread-safe
// (the CacheSim and device underneath are).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "cxlsim/cache_sim.hpp"
#include "cxlsim/dax_device.hpp"
#include "cxlsim/fault_injector.hpp"
#include "simtime/vclock.hpp"

namespace cmpi::cxlsim {

/// Blast-radius counters for a tenant fault domain (see
/// Accessor::set_fault_domain). Shared by every accessor of one tenant;
/// a multi-tenant pool service asserts these stay zero to prove that a
/// tenant's traffic — including its crash recovery and fsck — never
/// touched another tenant's region.
struct DomainCounters {
  std::atomic<std::uint64_t> writes_outside{0};
  std::atomic<std::uint64_t> reads_outside{0};
};

class Accessor {
 public:
  Accessor(DaxDevice& device, CacheSim& node_cache, simtime::VClock& clock)
      : device_(device), cache_(node_cache), clock_(clock) {}

  Accessor(const Accessor&) = delete;
  Accessor& operator=(const Accessor&) = delete;

  // --- Cached (write-back) accesses; per-line latency charges ---
  void store(std::uint64_t offset, std::span<const std::byte> src);
  void load(std::uint64_t offset, std::span<std::byte> dst);
  void memset(std::uint64_t offset, std::byte value, std::size_t size);

  // --- Flush family ---
  void clflush(std::uint64_t offset, std::size_t size);
  void clflushopt(std::uint64_t offset, std::size_t size);
  void clwb(std::uint64_t offset, std::size_t size);

  /// Store fence: waits (in virtual time) for outstanding write-backs to
  /// reach the device.
  void sfence();
  /// Load fence: ordering cost only.
  void lfence();

  // --- §3.5 composite coherence helpers ---
  /// "After every write, flush + fence": cached store, clflushopt, sfence.
  void coherent_write(std::uint64_t offset, std::span<const std::byte> src);
  /// "Before every read, fence + flush": lfence, invalidate, cached load.
  void coherent_read(std::uint64_t offset, std::span<std::byte> dst);

  // --- Non-temporal accesses ---
  void nt_store(std::uint64_t offset, std::span<const std::byte> src);
  void nt_load(std::uint64_t offset, std::span<std::byte> dst);

  /// One range of a gathered read.
  struct GatherRange {
    std::uint64_t offset = 0;
    std::span<std::byte> dst;
    /// Out: the poisoned pool offset this range's read touched (nullopt
    /// when clean). Parked here, not on the sticky flag, so a reader that
    /// reads ahead can charge it to the data it belongs to.
    std::optional<std::uint64_t> poison;
  };
  /// Gathered NT read: independent loads of every range, issued back to
  /// back so their line fills overlap. Charged exactly as one nt_load of
  /// the summed bytes: one device read reservation, one line_fill_latency.
  /// Limited to one wave: the ranges together span at most
  /// kLineFillBuffers lines (a contract). Each range is one access for
  /// crash-at-Nth schedules, performed in order; poison pending before the
  /// call stays raised. An aligned 8-byte range is read with nt_load_u64's
  /// lock-free atomic load, so a gather may include flag words that their
  /// writer stores concurrently.
  void nt_load_gather(std::span<GatherRange> ranges);

  std::uint64_t nt_load_u64(std::uint64_t offset);
  void nt_store_u64(std::uint64_t offset, std::uint64_t value);

  /// Zero a line-aligned range the way NT stores of zeros would, without
  /// storing them: CacheSim::discard drops this node's cached copies
  /// unwritten and the device hands the range's pages back. Charged what
  /// the stores cost: one device write reservation for the range, drained
  /// by the next sfence, plus the per-line store cost.
  void discard(std::uint64_t offset, std::size_t size);

  /// Poll-read one u64, such as the publish word of a record stored with
  /// publish_store, lock-free and without charging time (failed polls
  /// are waiting, not work) and raising no poison: a poller reads what it
  /// found with a timed read before using it, and that read parks or
  /// raises the poison.
  [[nodiscard]] std::uint64_t poll_word(std::uint64_t offset);

  /// Whether a bulk op pays the flush/invalidate sweep's setup cost.
  /// kBatched is for the second and later ops of one reap/publish batch:
  /// the sweep is issued once for the whole batch, so only the first op
  /// charges flush_base (per-byte costs are always charged).
  enum class BulkCharge { kFull, kBatched };

  // --- Streaming payload copies (message cells, RMA data) ---
  /// Local buffer -> pool. Functionally non-temporal (immediately visible
  /// to other heads); charges the CPU copy cost and reserves device write
  /// bandwidth. Device completion is folded into the next sfence.
  void bulk_write(std::uint64_t offset, std::span<const std::byte> src,
                  BulkCharge charge = BulkCharge::kFull);
  /// Pool -> local buffer; charges CPU copy and device read bandwidth.
  void bulk_read(std::uint64_t offset, std::span<std::byte> dst,
                 BulkCharge charge = BulkCharge::kFull);

  // --- Timestamped synchronization flags ---
  /// Layout: [u64 value][u64 vtime bits]; 16 bytes, 8-byte aligned.
  static constexpr std::size_t kFlagBytes = 16;

  struct FlagValue {
    std::uint64_t value = 0;
    simtime::Ns stamp = 0;
  };

  /// Publish value + the caller's current virtual time. Issues an sfence
  /// first so the stamp covers all prior writes (release semantics).
  void publish_flag(std::uint64_t offset, std::uint64_t value);

  /// Read a flag without charging time (failed polls are waiting, not
  /// work; see the runtime's wait loops).
  [[nodiscard]] FlagValue peek_flag(std::uint64_t offset);

  /// Charge one NT-load round and absorb the publisher's stamp into this
  /// rank's clock. Call exactly once per observed transition.
  void absorb_flag(const FlagValue& flag);

  /// NT-store a record whose arrival is itself the publish: a ring cell's
  /// header, whose generation tells the consumer the cell is ready. The
  /// record's 8-byte-aligned publish word, at `word` bytes into it, lands
  /// last and in one atomic store, so pollers read it with poll_word and
  /// no lock. Charged as one nt_store of the record; it does not fence,
  /// so the caller issues the sfence that must cover the payload first.
  /// Like publish_flag, it consumes the annotate_publish_range ranges for
  /// the checker.
  void publish_store(std::uint64_t offset, std::span<const std::byte> src,
                     std::size_t word);

  /// Coherence-checker hint: declare that the NEXT publish_flag or
  /// publish_store covers `[offset, offset + size)` as payload (the reader
  /// will consume that range after observing the publish). The checker
  /// verifies the range is clean in the publisher's cache at publish time
  /// ("torn publish" detection). No-op when checking is off; never affects
  /// timing.
  void annotate_publish_range(std::uint64_t offset, std::size_t size);

  // --- Fault injection (see fault_injector.hpp) ---
  /// Report a named sync point to the fault injector (no-op when no plan
  /// is installed). Protocol layers call this at scripted kill locations:
  /// "barrier-enter", "lock-acquired", "window-put", ... May throw
  /// RankCrashed on the scripted rank.
  void fault_sync_point(std::string_view point) {
    if (FaultInjector* fi = device_.fault_injector()) {
      fi->on_sync_point(point);
    }
  }

  /// Whether any read this Accessor performed since the last
  /// take_poison_status touched a poisoned range (sticky; cleared by
  /// take_poison_status). Always false when no fault plan is installed.
  [[nodiscard]] bool poison_pending() const noexcept { return poison_seen_; }

  /// Consume the sticky poison flag: returns kDataPoisoned naming the
  /// first poisoned offset when set (and clears it), Status::ok otherwise.
  /// The §3.5 discipline for media errors: check after reading a range
  /// whose integrity the caller must vouch for.
  Status take_poison_status(std::string_view context);
  /// Replace the sticky poison flag (its first poisoned offset; nullopt
  /// when clear) with `next` and return the old one. Lets a reader that
  /// reads ahead of the data it consumes (SpscRing::peek) park poison
  /// with the data it belongs to. Host-side only: no pool access, no
  /// virtual time.
  std::optional<std::uint64_t> exchange_poison(
      std::optional<std::uint64_t> next) noexcept;

  // --- Multi-tenant pool service hooks (see runtime/pool_service.hpp) ---
  /// Attribute this accessor's device bandwidth to a WFQ class (tenant).
  /// 0 (the default) is unattributed — no guarantee, classic sharing.
  void set_wfq_class(unsigned cls) noexcept { wfq_class_ = cls; }
  [[nodiscard]] unsigned wfq_class() const noexcept { return wfq_class_; }

  /// Declare this accessor's tenant fault domain [base, base + size):
  /// every access outside the range bumps the matching blast-radius
  /// counter (the access still performs — the counters *detect* isolation
  /// breaches, they do not mask them). `counters` must outlive the
  /// accessor. size == 0 disables the fence (the single-tenant default).
  void set_fault_domain(std::uint64_t base, std::uint64_t size,
                        DomainCounters* counters) noexcept {
    domain_base_ = base;
    domain_size_ = size;
    domain_counters_ = counters;
  }

  [[nodiscard]] simtime::VClock& clock() noexcept { return clock_; }
  [[nodiscard]] DaxDevice& device() noexcept { return device_; }
  [[nodiscard]] CacheSim& node_cache() noexcept { return cache_; }

 private:
  [[nodiscard]] bool is_uncachable(std::uint64_t offset) const noexcept {
    return device_.cacheability(offset) == Cacheability::kUncachable;
  }
  void charge_flush(const CacheSim::FlushResult& result,
                    simtime::Ns per_line_cost);
  /// Charge a multi-byte NT write of [offset, offset + size): a device
  /// write reservation drained by the next sfence, plus per-line issue.
  void charge_nt_write(std::uint64_t offset, std::size_t size);
  /// Charge an NT read of `size` bytes: one NT-load round up to 8 bytes,
  /// else a device read reservation plus one line-fill latency.
  void charge_nt_read(std::size_t size);
  /// Fault hook at the top of every data operation: counts the access for
  /// crash-at-Nth scheduling (may throw RankCrashed) and, on reads, tags
  /// poison overlap. Polling reads (peek_flag) check poison but are not
  /// counted — their iteration count is wall-clock dependent, and crash
  /// schedules must stay deterministic.
  void fault_access(std::uint64_t offset, std::size_t size, bool is_read) {
    domain_check(offset, size, is_read);
    if (FaultInjector* fi = device_.fault_injector()) {
      fi->on_access();
      if (is_read && fi->check_poison(offset, size) && !poison_seen_) {
        poison_seen_ = true;
        poison_offset_ = offset;
      }
    }
  }
  void fault_poll_read(std::uint64_t offset, std::size_t size) {
    domain_check(offset, size, /*is_read=*/true);
    if (FaultInjector* fi = device_.fault_injector()) {
      if (fi->check_poison(offset, size) && !poison_seen_) {
        poison_seen_ = true;
        poison_offset_ = offset;
      }
    }
  }
  /// Blast-radius fence: count accesses leaving the tenant fault domain.
  /// One compare on the common (in-domain or un-fenced) path.
  void domain_check(std::uint64_t offset, std::size_t size,
                    bool is_read) noexcept {
    if (domain_size_ == 0) {
      return;
    }
    if (offset >= domain_base_ && offset + size <= domain_base_ + domain_size_) {
      return;
    }
    auto& counter = is_read ? domain_counters_->reads_outside
                            : domain_counters_->writes_outside;
    counter.fetch_add(1, std::memory_order_relaxed);
  }
  /// Degraded-link multiplier on flush write-back / line-fill latencies.
  [[nodiscard]] double fault_latency_multiplier() const noexcept {
    const FaultInjector* fi = device_.fault_injector();
    return fi == nullptr ? 1.0 : fi->latency_multiplier();
  }

  DaxDevice& device_;
  CacheSim& cache_;
  simtime::VClock& clock_;
  /// Latest device completion stamp of writes this rank issued but has not
  /// yet fenced (flush write-backs, NT stores, bulk writes).
  simtime::Ns pending_drain_ = 0;
  /// Functional mirror of pending_drain_ for the coherence checker: true
  /// while this rank has issued writes (flush write-backs, bulk/NT stores)
  /// not yet covered by an sfence. Unlike the timing predicate it does not
  /// depend on where the virtual clock happens to sit.
  bool writes_since_fence_ = false;
  /// Payload ranges accumulated by annotate_publish_range, consumed by the
  /// next publish_flag or publish_store.
  std::vector<std::pair<std::uint64_t, std::size_t>> publish_ranges_;
  /// Sticky media-error flag: a read touched a poisoned range (fault
  /// injection); consumed by take_poison_status.
  bool poison_seen_ = false;
  std::uint64_t poison_offset_ = 0;
  /// WFQ class for device-bandwidth attribution (0 = unattributed).
  unsigned wfq_class_ = 0;
  /// Tenant fault domain; size 0 = fence disabled.
  std::uint64_t domain_base_ = 0;
  std::uint64_t domain_size_ = 0;
  DomainCounters* domain_counters_ = nullptr;
};

}  // namespace cmpi::cxlsim
