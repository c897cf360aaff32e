// Per-node cache simulator.
//
// This is what makes the coherence problem of §3.5 real in the
// reproduction: the pooled device has no cross-host coherence, so each
// simulated node owns a private set-associative write-back cache that sits
// between its ranks and the pool. A store lands in the node cache (dirty)
// and is invisible to other nodes until written back by clflush/clwb or by
// capacity eviction; a load can return stale node-cached data until the
// line is invalidated. Software (the cMPI layers) must flush after writes
// and invalidate before reads, exactly as the paper's software-based cache
// coherence does.
//
// All ranks of a node share the node cache (intra-node coherence is the
// host's own coherent domain), hence the internal mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "common/align.hpp"
#include "common/status.hpp"
#include "cxlsim/dax_device.hpp"
#include "obs/metrics.hpp"

namespace cmpi::cxlsim {

class CacheSim {
 public:
  struct Geometry {
    std::size_t sets = 2048;
    std::size_t ways = 8;
  };  // default: 2048 * 8 * 64 B = 1 MiB per node

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
  };

  /// Result of a flush-family operation, for the timing layer.
  struct FlushResult {
    std::size_t lines_touched = 0;      ///< lines the instruction spanned
    std::size_t lines_written_back = 0; ///< dirty lines that hit the device
  };

  CacheSim(DaxDevice& device, Geometry geometry);
  explicit CacheSim(DaxDevice& device) : CacheSim(device, Geometry{}) {}
  ~CacheSim();
  CacheSim(const CacheSim&) = delete;
  CacheSim& operator=(const CacheSim&) = delete;

  // --- Cached (write-back) accesses ---
  /// Read through the node cache; may return data that is stale with
  /// respect to the pool if this node cached the lines earlier.
  void read(std::uint64_t offset, std::span<std::byte> dst);

  /// Write into the node cache (write-allocate); the pool is NOT updated
  /// until the lines are flushed or evicted.
  void write(std::uint64_t offset, std::span<const std::byte> src);

  /// memset through the cache (the §2 micro-benchmark's operation).
  void memset(std::uint64_t offset, std::byte value, std::size_t size);

  // --- Flush family ---
  /// Write back dirty lines in the range and invalidate them (clflush /
  /// clflushopt semantics; the two differ only in timing).
  FlushResult clflush(std::uint64_t offset, std::size_t size);

  /// Write back dirty lines but keep them valid (clwb semantics).
  FlushResult clwb(std::uint64_t offset, std::size_t size);

  // --- Non-temporal (cache-bypassing) accesses ---
  /// Store directly to the pool. Any node-cached copy of the spanned lines
  /// is written back first and invalidated, so the cache never shadows an
  /// NT store.
  void nt_store(std::uint64_t offset, std::span<const std::byte> src);

  /// Load directly from the pool, bypassing (and not filling) the cache.
  /// If this node holds a dirty copy of a spanned line, the dirty data is
  /// returned instead (the local coherent domain would satisfy the load).
  void nt_load(std::uint64_t offset, std::span<std::byte> dst);

  /// Lock-free 8-byte pool accesses for synchronization flags. `offset`
  /// must be 8-byte aligned and the line must be accessed exclusively with
  /// NT u64 ops (protocol discipline; enforced by the callers).
  std::uint64_t nt_load_u64(std::uint64_t offset);
  void nt_store_u64(std::uint64_t offset, std::uint64_t value);

  /// Write back everything and drop all lines (wbinvd-style; used at node
  /// teardown and in tests).
  void writeback_all();

  /// Drop all lines WITHOUT writing back (power-loss style; tests only).
  void drop_all();

  /// Zero the line-aligned range [offset, offset + size) of the pool
  /// (DaxDevice::discard) and drop this node's cached copies of it WITHOUT
  /// writing them back, so no later eviction or writeback_all brings the
  /// old bytes back. Other nodes' copies are theirs to invalidate, as
  /// after any NT store.
  void discard(std::uint64_t offset, std::size_t size);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Geometry& geometry() const noexcept { return geometry_; }

  /// Bulk copies in flight on this node: the §4.2 contention gauge its
  /// ranks' bulk reads and writes share.
  [[nodiscard]] StreamGauge& copy_streams() noexcept { return copy_streams_; }

 private:
  /// A line's fields are read only while its valid_ entry is set, and
  /// fill_line writes them all first, so they start uninitialised.
  struct Line {
    std::uint64_t tag;  ///< line-aligned pool offset
    std::uint64_t lru;
    bool dirty;
    std::byte data[kCacheLineSize];
  };

  [[nodiscard]] std::size_t capacity() const noexcept {
    return geometry_.sets * geometry_.ways;
  }
  [[nodiscard]] bool& valid(const Line& line) noexcept {
    return valid_[static_cast<std::size_t>(&line - lines_.get())];
  }
  /// Drop a valid line without writing it back and tell the checker.
  void invalidate(Line& line);
  Line* find_line(std::uint64_t line_offset);
  Line& fill_line(std::uint64_t line_offset);
  void writeback_line(Line& line);
  void pool_read(std::uint64_t offset, std::span<std::byte> dst);
  void pool_write(std::uint64_t offset, std::span<const std::byte> src);
  std::size_t set_index(std::uint64_t line_offset) const noexcept;

  DaxDevice& device_;
  const Geometry geometry_;
  mutable std::mutex mutex_;
  std::unique_ptr<Line[]> lines_;  // sets * ways, row-major by set
  std::unique_ptr<bool[]> valid_;  // per line; starts cleared, lines_ not
  std::uint64_t lru_clock_ = 0;
  Stats stats_;
  StreamGauge copy_streams_;
  // Exposes stats() to the obs metrics registry as the cache.* family;
  // the registration folds the final values in when this cache dies.
  obs::ProviderRegistration obs_registration_;
};

}  // namespace cmpi::cxlsim
