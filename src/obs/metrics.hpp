// Metrics registry (cmpi::obs).
//
// One process-wide registry of named metric families:
//
//   * Counter   — monotonically increasing u64, sharded per rank so the
//                 hot layers never contend on one cacheline,
//   * Gauge     — high-water mark (max) of a u64, sharded the same way,
//   * Histogram — log2-bucketed distribution of virtual-time durations
//                 (or any non-negative quantity), plus count and sum.
//
// Two ways for data to reach a snapshot:
//
//   1. Native instruments: a layer resolves a family once
//      (`registry.counter("ring.enqueues")`) and bumps it from the hot
//      path. Resolution takes the registry mutex; the bump itself is a
//      relaxed atomic add on this rank's shard.
//   2. Snapshot providers: a pre-existing stats struct (CacheSim::Stats,
//      p2p::CommStats, runtime::RecoveryCounters) registers a callback
//      that renders its current values as named samples. Snapshots sum
//      providers into the same namespace as native counters, so the
//      legacy structs become registered metric families instead of
//      parallel one-offs. When a provider unregisters (its owner dies),
//      its final samples are folded into a retired accumulator — totals
//      stay cumulative across short-lived owners (per-run endpoints,
//      bootstrap caches).
//
// Family objects are never destroyed once created (callers cache
// references); reset_for_test() zeroes values in place.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace cmpi::obs {

/// Shard count for counters/gauges. Rank r writes shard (r + 1) % kShards
/// (shard 0 doubles as the home of non-rank threads); collisions only
/// share a cacheline, never lose counts.
inline constexpr std::size_t kMetricShards = 32;

/// Shard index of the calling thread (from the installed RankScope; 0 for
/// threads outside any rank). Defined in obs.cpp.
[[nodiscard]] std::size_t shard_index() noexcept;

class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    slots_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const Slot& s : slots_) {
      sum += s.v.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void reset() noexcept {
    for (Slot& s : slots_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kMetricShards> slots_{};
};

/// High-water gauge: record() keeps the maximum ever seen.
class Gauge {
 public:
  void record(std::uint64_t v) noexcept {
    std::atomic<std::uint64_t>& slot = slots_[shard_index()].v;
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    std::uint64_t best = 0;
    for (const Slot& s : slots_) {
      best = std::max(best, s.v.load(std::memory_order_relaxed));
    }
    return best;
  }
  void reset() noexcept {
    for (Slot& s : slots_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kMetricShards> slots_{};
};

/// Log2-bucket histogram: a sample v lands in bucket bit_width(v), so
/// bucket b holds samples in [2^(b-1), 2^b). Values are virtual
/// nanoseconds in every current use, but any non-negative double works
/// (negative samples clamp to 0).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] std::array<std::uint64_t, kBuckets> buckets() const noexcept;
  /// Upper bound of the bucket holding the q-quantile sample (q in
  /// [0, 1]): a conservative estimate with at most 2x overshoot, which is
  /// what a log2 histogram can promise. 0 on an empty histogram. p50 =
  /// quantile(0.5), p99 = quantile(0.99).
  [[nodiscard]] double quantile(double q) const noexcept;
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// One value a snapshot provider contributes, summed by name.
struct Sample {
  std::string name;
  std::uint64_t value = 0;
};

using Provider = std::function<std::vector<Sample>()>;

/// Point-in-time view of every family (see MetricsRegistry::snapshot).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  /// Same semantics as Histogram::quantile, over this snapshot.
  [[nodiscard]] double quantile(double q) const noexcept;
};

struct MetricsSnapshot {
  /// Native counters + live provider samples + retired provider totals,
  /// summed per name.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter value by name (0 when absent) — test/report convenience.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Get-or-create. The returned reference is valid for the process
  /// lifetime — cache it in a function-local static on hot paths.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Register a snapshot provider; returns a token for unregistration.
  /// The callback runs under the registry mutex whenever snapshot() is
  /// taken, from an arbitrary thread — it must read only data that is
  /// safe to read concurrently (atomics, or internally-locked state).
  std::uint64_t register_provider(Provider fn);
  /// Unregister, folding the provider's final samples into the retired
  /// accumulator so totals stay cumulative.
  void unregister_provider(std::uint64_t token);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Snapshot rendered as a JSON document:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {"count": N, "sum": S, "buckets": [...]}}}
  /// Histogram bucket arrays are trimmed to the last non-empty bucket.
  void write_json(std::ostream& os) const;

  /// Zero every family and drop retired accumulations; live providers and
  /// family objects survive (cached references stay valid).
  void reset_for_test();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  // unique_ptr values keep family addresses stable across rehash.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::uint64_t, Provider> providers_;
  std::map<std::string, std::uint64_t> retired_;
  std::uint64_t next_token_ = 1;
};

/// RAII provider registration that survives a move of its owner (the
/// moved-from copy forgets the token, so unregistration happens exactly
/// once). Registering with an empty token (0) is a no-op handle.
class ProviderRegistration {
 public:
  ProviderRegistration() = default;
  explicit ProviderRegistration(Provider fn)
      : token_(MetricsRegistry::instance().register_provider(std::move(fn))) {}
  ProviderRegistration(ProviderRegistration&& other) noexcept
      : token_(other.token_) {
    other.token_ = 0;
  }
  ProviderRegistration& operator=(ProviderRegistration&& other) noexcept {
    if (this != &other) {
      release();
      token_ = other.token_;
      other.token_ = 0;
    }
    return *this;
  }
  ProviderRegistration(const ProviderRegistration&) = delete;
  ProviderRegistration& operator=(const ProviderRegistration&) = delete;
  ~ProviderRegistration() { release(); }

 private:
  void release() noexcept {
    if (token_ != 0) {
      MetricsRegistry::instance().unregister_provider(token_);
      token_ = 0;
    }
  }
  std::uint64_t token_ = 0;
};

}  // namespace cmpi::obs
