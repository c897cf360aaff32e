// tune::Policy — the knob handle every p2p::Endpoint data-path decision
// routes through.
//
// Two modes:
//
//   * static (tuning off): every accessor returns the defaults resolved
//     from UniverseConfig at Endpoint construction — exactly the
//     constants the code used before this subsystem existed. No
//     per-destination state is consulted, so behaviour is bit-identical
//     to a build without tuning.
//   * adaptive (tuning on): a per-destination KnobSettings vector,
//     mutated between polls by tune::Controller and read by the hot
//     paths with plain loads (policy and endpoint live on the same rank
//     thread; nothing here is shared).
//
// The policy also owns the per-destination traffic signals (eager vs
// rendezvous split, ring-full backpressure, inflight-budget stalls) the
// endpoint feeds from its send paths. They are maintained in BOTH modes:
// the controller consumes them when tuning is on, and the per-destination
// telemetry split is available to benches/tests either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"

namespace cmpi::tune {

/// The adaptable knobs, per destination. Zero is never a valid resolved
/// value — construction fills every field from the endpoint's defaults.
struct KnobSettings {
  /// Eager/rendezvous switchover (bytes; strictly-greater goes rendezvous).
  std::size_t rendezvous_threshold = 0;
  /// Cap on the rendezvous segment quantum (was kRendezvousSegmentBytes).
  std::size_t pipeline_quantum = 0;
  /// Un-FINished rendezvous slots allowed in flight toward one
  /// destination (was kMaxRendezvousInflight).
  std::size_t inflight_depth = 0;

  friend bool operator==(const KnobSettings&, const KnobSettings&) = default;
};

/// Per-destination traffic signals. Plain counters: bumped and read on
/// the owning rank thread only (the cross-thread aggregate lives in
/// p2p::CommStats).
struct DestSignals {
  std::uint64_t eager_messages = 0;
  std::uint64_t eager_bytes = 0;
  std::uint64_t rdvz_messages = 0;
  std::uint64_t rdvz_bytes = 0;
  /// Send attempts that hit a full ring (eager chunk or RTS descriptor).
  std::uint64_t ring_full = 0;
  /// Rendezvous sends stalled on the per-destination inflight budget.
  std::uint64_t inflight_blocked = 0;
};

class Policy {
 public:
  Policy() = default;

  static Policy make_static(int ndests, const KnobSettings& defaults) {
    return Policy(ndests, defaults, /*adaptive=*/false);
  }
  static Policy make_adaptive(int ndests, const KnobSettings& defaults) {
    return Policy(ndests, defaults, /*adaptive=*/true);
  }

  [[nodiscard]] bool adaptive() const noexcept { return adaptive_; }
  [[nodiscard]] int ndests() const noexcept {
    return static_cast<int>(signals_.size());
  }
  [[nodiscard]] const KnobSettings& defaults() const noexcept {
    return defaults_;
  }

  /// The knobs governing traffic toward `dst`. Static mode: the defaults,
  /// unconditionally (per_dest_ is never even allocated).
  [[nodiscard]] const KnobSettings& settings(int dst) const noexcept {
    if (!adaptive_) {
      return defaults_;
    }
    return per_dest_[static_cast<std::size_t>(dst)];
  }
  /// Controller-side mutable view (adaptive mode only).
  [[nodiscard]] KnobSettings& mutable_settings(int dst) noexcept {
    CMPI_EXPECTS(adaptive_);
    return per_dest_[static_cast<std::size_t>(dst)];
  }

  [[nodiscard]] DestSignals& signals(int dst) noexcept {
    return signals_[static_cast<std::size_t>(dst)];
  }
  [[nodiscard]] const DestSignals& signals(int dst) const noexcept {
    return signals_[static_cast<std::size_t>(dst)];
  }

 private:
  Policy(int ndests, const KnobSettings& defaults, bool adaptive)
      : defaults_(defaults),
        adaptive_(adaptive),
        signals_(static_cast<std::size_t>(ndests)) {
    if (adaptive_) {
      per_dest_.assign(static_cast<std::size_t>(ndests), defaults_);
    }
  }

  KnobSettings defaults_{};
  bool adaptive_ = false;
  std::vector<KnobSettings> per_dest_;
  std::vector<DestSignals> signals_;
};

}  // namespace cmpi::tune
