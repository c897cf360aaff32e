// cmpi::obs — unified telemetry: metrics registry, virtual-time trace
// recorder, flight-recorder dumps. Master header; the hot layers include
// this and speak only through the CMPI_OBS_* macros below.
//
// Cost model (the contract every layer relies on):
//   * Compiled out: building with -DCMPI_OBS=0 removes every macro body —
//     instrumented code is byte-identical to uninstrumented.
//   * Compiled in, disabled (the default): each macro is one relaxed
//     atomic-bool load plus a branch the compiler is told to predict
//     not-taken. No allocation, no locks, no stores.
//   * Enabled: counter bumps are relaxed adds on a per-rank-sharded slot;
//     trace appends take the owning ring's uncontended mutex.
//
// Enablement comes from the environment (read once, idempotently, by the
// first Universe):
//   CMPI_TRACE=out.json    record spans/instants, export Chrome trace
//                          JSON at Universe teardown (load in Perfetto)
//   CMPI_METRICS=out.json  aggregate metrics, export JSON at teardown
//   CMPI_FLIGHT=1|path     flight-recorder dumps on failure (default on
//                          whenever tracing is on; path adds a JSON copy)
//   CMPI_OBS=0             master kill switch for all of the above
// or programmatically via configure() (tests, benches).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simtime/vclock.hpp"

// Compile-time gate. Default on: the runtime check is cheap enough for
// production builds, and the perf-smoke CI gate holds with it compiled in.
#ifndef CMPI_OBS
#define CMPI_OBS 1
#endif

namespace cmpi::obs {

struct Config {
  bool metrics = false;
  bool trace = false;
  bool flight = false;
  std::string metrics_path;      // empty: no teardown metrics file
  std::string trace_path;        // empty: no teardown trace file
  std::string flight_path;       // empty: flight dumps go to stderr only
  std::size_t trace_capacity = std::size_t{1} << 14;  // events per rank
  std::size_t flight_events = 64;  // tail length in a flight dump
};

/// Apply a configuration (tests/benches). Flips the runtime enable bits;
/// call before ranks start recording.
void configure(const Config& config);

/// Read CMPI_TRACE / CMPI_METRICS / CMPI_FLIGHT / CMPI_OBS once per
/// process and configure() accordingly. Idempotent; later calls are
/// no-ops (including after an explicit configure(), which also counts).
void configure_from_env();

/// Active configuration.
[[nodiscard]] const Config& config();

namespace detail {
extern std::atomic<bool> g_metrics_on;
extern std::atomic<bool> g_trace_on;
extern std::atomic<bool> g_flight_on;
}  // namespace detail

[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool trace_enabled() noexcept {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool flight_enabled() noexcept {
  return detail::g_flight_on.load(std::memory_order_relaxed);
}

/// Per-thread identity installed by RankScope on rank threads.
struct RankInfo {
  int rank = -1;
  int node = 0;
  int tenant = 0;  // pool-service tenant id; 0 = untenanted
  const simtime::VClock* clock = nullptr;
  TraceRing* ring = nullptr;
  std::size_t shard = 0;  // metrics shard; 0 for non-rank threads
};

namespace detail {
extern constinit thread_local RankInfo t_rank;
}  // namespace detail

/// Current rank's virtual time, 0 on threads without a clock.
[[nodiscard]] inline simtime::Ns now_ns() noexcept {
  const simtime::VClock* clock = detail::t_rank.clock;
  return clock != nullptr ? clock->now() : 0;
}

/// Installs this thread's rank identity (metrics shard, trace ring, log
/// prefix context) for the scope's lifetime; restores the previous
/// identity on exit. The runtime wraps each rank thread's body in one.
class RankScope {
 public:
  RankScope(int rank, int node, const simtime::VClock* clock,
            int tenant = 0);
  ~RankScope();
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

 private:
  RankInfo saved_;
};

/// Append an event to the calling thread's trace ring (no-op when the
/// thread has none). `name`/`arg_name` must be immortal strings.
inline void trace_event(char phase, const char* name,
                        const char* arg_name = nullptr,
                        std::uint64_t arg = 0) noexcept {
  TraceRing* ring = detail::t_rank.ring;
  if (ring != nullptr) {
    ring->append(TraceEvent{name, arg_name, now_ns(), arg, phase});
  }
}

/// RAII span: 'B' at construction, matching 'E' at destruction. The ring
/// is captured at construction so the pair stays matched even if tracing
/// toggles mid-span.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name, const char* arg_name = nullptr,
                     std::uint64_t arg = 0) noexcept {
#if CMPI_OBS
    if (__builtin_expect(trace_enabled(), 0)) {
      ring_ = detail::t_rank.ring;
      if (ring_ != nullptr) {
        name_ = name;
        ring_->append(TraceEvent{name, arg_name, now_ns(), arg, 'B'});
      }
    }
#else
    (void)name;
    (void)arg_name;
    (void)arg;
#endif
  }
  ~SpanGuard() {
#if CMPI_OBS
    if (ring_ != nullptr) {
      ring_->append(TraceEvent{name_, nullptr, now_ns(), 0, 'E'});
    }
#endif
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
#if CMPI_OBS
  TraceRing* ring_ = nullptr;
  const char* name_ = nullptr;
#endif
};

/// Write the configured teardown artifacts (CMPI_METRICS / CMPI_TRACE
/// files). Overwrites: the recorder state is cumulative, so the last
/// writer produces the complete picture. Called once at the teardown of
/// runtime::Universe::run() and of fabric::PodCluster::run().
void export_artifacts();

}  // namespace cmpi::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. All hot-path hooks go through these so that
// -DCMPI_OBS=0 compiles them away entirely.

#define CMPI_OBS_CONCAT_IMPL(a, b) a##b
#define CMPI_OBS_CONCAT(a, b) CMPI_OBS_CONCAT_IMPL(a, b)

#if CMPI_OBS

/// Bump counter `name` (string literal) by `n`.
#define CMPI_OBS_COUNT(name, n)                                       \
  do {                                                                \
    if (__builtin_expect(::cmpi::obs::metrics_enabled(), 0)) {        \
      static ::cmpi::obs::Counter& cmpi_obs_counter_cached =          \
          ::cmpi::obs::MetricsRegistry::instance().counter(name);     \
      cmpi_obs_counter_cached.add(n);                                 \
    }                                                                 \
  } while (0)

/// Record `v` into high-water gauge `name`.
#define CMPI_OBS_GAUGE_MAX(name, v)                                   \
  do {                                                                \
    if (__builtin_expect(::cmpi::obs::metrics_enabled(), 0)) {        \
      static ::cmpi::obs::Gauge& cmpi_obs_gauge_cached =              \
          ::cmpi::obs::MetricsRegistry::instance().gauge(name);       \
      cmpi_obs_gauge_cached.record(v);                                \
    }                                                                 \
  } while (0)

/// Record sample `v` (virtual ns) into histogram `name`.
#define CMPI_OBS_HIST(name, v)                                        \
  do {                                                                \
    if (__builtin_expect(::cmpi::obs::metrics_enabled(), 0)) {        \
      static ::cmpi::obs::Histogram& cmpi_obs_hist_cached =           \
          ::cmpi::obs::MetricsRegistry::instance().histogram(name);   \
      cmpi_obs_hist_cached.record(v);                                 \
    }                                                                 \
  } while (0)

/// Instant event on this rank's trace timeline.
#define CMPI_OBS_INSTANT(name)                                        \
  do {                                                                \
    if (__builtin_expect(::cmpi::obs::trace_enabled(), 0)) {          \
      ::cmpi::obs::trace_event('i', name);                            \
    }                                                                 \
  } while (0)

/// Instant event with one numeric argument (arg_name a string literal).
#define CMPI_OBS_INSTANT_ARG(name, arg_name, arg)                     \
  do {                                                                \
    if (__builtin_expect(::cmpi::obs::trace_enabled(), 0)) {          \
      ::cmpi::obs::trace_event('i', name, arg_name,                   \
                               static_cast<std::uint64_t>(arg));      \
    }                                                                 \
  } while (0)

/// Span covering the rest of the enclosing scope.
#define CMPI_OBS_SPAN(name) \
  ::cmpi::obs::SpanGuard CMPI_OBS_CONCAT(cmpi_obs_span_, __COUNTER__)(name)

/// Span with one numeric argument attached to the 'B' event.
#define CMPI_OBS_SPAN_ARG(name, arg_name, arg)                     \
  ::cmpi::obs::SpanGuard CMPI_OBS_CONCAT(cmpi_obs_span_,           \
                                         __COUNTER__)(            \
      name, arg_name, static_cast<std::uint64_t>(arg))

/// Flight-recorder trigger (failure paths only — never hot).
#define CMPI_OBS_FLIGHT(reason)                                       \
  do {                                                                \
    if (__builtin_expect(::cmpi::obs::flight_enabled(), 0)) {         \
      ::cmpi::obs::flight_dump(reason);                               \
    }                                                                 \
  } while (0)

#else  // !CMPI_OBS

#define CMPI_OBS_COUNT(name, n) \
  do {                          \
  } while (0)
#define CMPI_OBS_GAUGE_MAX(name, v) \
  do {                              \
  } while (0)
#define CMPI_OBS_HIST(name, v) \
  do {                         \
  } while (0)
#define CMPI_OBS_INSTANT(name) \
  do {                         \
  } while (0)
#define CMPI_OBS_INSTANT_ARG(name, arg_name, arg) \
  do {                                            \
  } while (0)
#define CMPI_OBS_SPAN(name) \
  do {                      \
  } while (0)
#define CMPI_OBS_SPAN_ARG(name, arg_name, arg) \
  do {                                         \
  } while (0)
#define CMPI_OBS_FLIGHT(reason) \
  do {                          \
  } while (0)

#endif  // CMPI_OBS
