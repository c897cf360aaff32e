// Dynamic coherence-protocol checker for the simulated CXL pool.
//
// The pooled device has no cross-host cache coherence, so every protocol
// layer (SPSC rings, PSCW flags, the bakery lock, the sequence barrier)
// must manage coherence in software: flush after writes, invalidate before
// reads, fence before publishing a flag (§3.5). The checker turns that
// discipline into a machine-checked property: CacheSim and Accessor report
// every line-granular event (cached read/write, writeback, invalidate,
// NT access, flag publish) and the checker replays them against an
// event-sourced model of which cache holds which version of every line.
//
// Violation taxonomy:
//   * kStaleRead    — a load observed data older than a version another
//                     node's cache holds dirty (no intervening writeback +
//                     invalidate), or a cached hit on a copy the pool has
//                     since overtaken.
//   * kLostUpdate   — a store to a line concurrently dirty in another
//                     node's cache; whichever writeback lands last silently
//                     clobbers the other write.
//   * kTornPublish  — a flag publish or record publish (a ring cell
//                     header) whose annotated payload lines were still
//                     dirty in the publisher's cache (the publish becomes
//                     visible before the data it covers).
//   * kFenceOrder   — a raw store to a registered flag word while the rank
//                     had unfenced writes outstanding (publish before
//                     sfence).
//
// The checker is an interposition layer: it never alters functional or
// timing behaviour, it only records. It is owned by the DaxDevice, enabled
// via UniverseConfig::coherence_check or the CMPI_COHERENCE_CHECK
// environment variable (the test suite sets it for every test), and off by
// default so benchmarks pay nothing.
//
// Thread model: hooks are called from rank threads (often with a CacheSim
// mutex held); the checker has its own mutex and never calls back into a
// cache, so lock order is always cache -> checker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/align.hpp"

namespace cmpi::cxlsim {

class CacheSim;

class CoherenceChecker {
 public:
  enum class Kind : std::uint8_t {
    kStaleRead = 0,
    kLostUpdate = 1,
    kTornPublish = 2,
    kFenceOrder = 3,
  };
  static constexpr std::size_t kKindCount = 4;

  /// Short stable name for a violation kind ("stale-read", ...).
  static std::string_view kind_name(Kind kind) noexcept;

  struct Violation {
    Kind kind = Kind::kStaleRead;
    int rank = -1;               ///< observing rank (-1: outside a rank thread)
    std::uint64_t offset = 0;    ///< pool byte offset of the access
    const char* op = "";         ///< operation label ("cached-load", ...)
    std::string detail;          ///< human-readable specifics
  };

  struct Summary {
    std::uint64_t by_kind[kKindCount] = {0, 0, 0, 0};

    [[nodiscard]] std::uint64_t total() const noexcept {
      std::uint64_t sum = 0;
      for (const std::uint64_t n : by_kind) {
        sum += n;
      }
      return sum;
    }
    [[nodiscard]] std::uint64_t count(Kind kind) const noexcept {
      return by_kind[static_cast<std::size_t>(kind)];
    }
  };

  /// Violations beyond this many are counted in the summary but not stored.
  static constexpr std::size_t kMaxStoredViolations = 1024;

  /// Tag the calling thread with its MPI rank for violation attribution.
  /// Universe::run does this for every rank thread; standalone tests call
  /// it manually. -1 (the default) means "not a rank thread".
  static void set_current_rank(int rank) noexcept;
  [[nodiscard]] static int current_rank() noexcept;

  /// RAII scope that suppresses kStaleRead reports on the calling thread.
  /// For deliberately optimistic reads that are re-validated later (the
  /// arena's lock-free name probe races a locked writer's transient dirty
  /// window by design).
  class ToleranceScope {
   public:
    ToleranceScope() noexcept;
    ~ToleranceScope();
    ToleranceScope(const ToleranceScope&) = delete;
    ToleranceScope& operator=(const ToleranceScope&) = delete;
  };

  // --- CacheSim hooks (line_offset is cacheline-aligned) ---
  void on_cached_read(const CacheSim* cache, std::uint64_t line_offset,
                      bool hit);
  void on_cached_write(const CacheSim* cache, std::uint64_t line_offset);
  /// A dirty line's data reached the pool (clflush/clwb/eviction/wbinvd).
  void on_writeback(const CacheSim* cache, std::uint64_t line_offset);
  /// A (possibly clean) line left the cache.
  void on_invalidate(const CacheSim* cache, std::uint64_t line_offset);
  /// Multi-byte NT store landed in the pool (own copies already evicted).
  void on_pool_write(const CacheSim* cache, std::uint64_t offset,
                     std::size_t size);
  /// Multi-byte NT load from the pool (own dirty lines merged by CacheSim).
  void on_pool_read(const CacheSim* cache, std::uint64_t offset,
                    std::size_t size);
  /// Lock-free 8-byte flag accesses (no merge with any cache).
  void on_pool_write_u64(const CacheSim* cache, std::uint64_t offset);
  void on_pool_read_u64(const CacheSim* cache, std::uint64_t offset);
  /// A cache left the coherence domain; forget its copies.
  void on_cache_detached(const CacheSim* cache);

  // --- Accessor hooks ---
  /// A timestamped flag publish. Registers the 16-byte flag for
  /// fence-order checking and verifies every annotated payload range is
  /// clean in the publisher's cache.
  void on_publish(
      const CacheSim* cache, std::uint64_t flag_offset,
      std::span<const std::pair<std::uint64_t, std::size_t>> payload);
  /// A record store that is itself the publish (Accessor::publish_store,
  /// a ring cell header). Verifies the annotated payload ranges as
  /// on_publish does; registers no flag word, since the record is
  /// rewritten whole as plain data.
  void on_record_publish(
      const CacheSim* cache, std::uint64_t record_offset,
      std::span<const std::pair<std::uint64_t, std::size_t>> payload);
  /// A raw Accessor::nt_store_u64. `fenced` is false when the rank has
  /// unfenced writes outstanding.
  void on_flag_store(const CacheSim* cache, std::uint64_t offset, bool fenced);

  // --- Results ---
  [[nodiscard]] Summary summary() const;
  [[nodiscard]] std::uint64_t total_violations() const;
  /// Stored violations (up to kMaxStoredViolations), in discovery order.
  [[nodiscard]] std::vector<Violation> violations() const;
  /// One-line report, e.g. "4 violations (stale-read 2, ... )".
  [[nodiscard]] std::string summary_string() const;
  void clear();

 private:
  /// One cache's copy of a line, by version.
  struct Copy {
    const CacheSim* cache = nullptr;
    std::uint64_t version = 0;  ///< version of `latest` the copy reflects
    bool dirty = false;
  };

  /// Event-sourced state of one 64-byte pool line.
  struct LineState {
    std::uint64_t latest = 0;  ///< newest version written anywhere
    std::uint64_t pool = 0;    ///< newest version the pool itself holds
    std::vector<Copy> copies;
    /// 8-byte-aligned offsets of flag value-words registered by publishes
    /// on this line (cleared when the line is rewritten as plain data).
    std::vector<std::uint64_t> flag_words;
  };

  using LineMap = std::unordered_map<std::uint64_t, LineState>;

  static Copy* find_copy(LineState& state, const CacheSim* cache) noexcept;
  /// Drop map entries that carry no information (no copies, no flags):
  /// recreating them later at version zero preserves detection.
  void maybe_gc(LineMap::iterator it);
  void record(Kind kind, std::uint64_t offset, const char* op,
              std::string detail);
  /// Shared torn-publish rule (mutex held): report every annotated
  /// payload line still dirty in the publisher's cache.
  void check_payload_clean(
      const CacheSim* cache, std::uint64_t publish_offset,
      std::span<const std::pair<std::uint64_t, std::size_t>> payload);
  /// Shared stale-read rule: report if any *other* cache holds the line
  /// dirty at a version newer than what this access can observe.
  void check_read_observes(const LineState& state, const CacheSim* cache,
                           std::uint64_t line_offset,
                           std::uint64_t observed_version, const char* op);

  mutable std::mutex mutex_;
  LineMap lines_;
  std::vector<Violation> log_;
  Summary summary_;
};

}  // namespace cmpi::cxlsim
