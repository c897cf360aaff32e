#include "obs/obs.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#include "common/log.hpp"

namespace cmpi::obs {

namespace detail {
std::atomic<bool> g_metrics_on{false};
std::atomic<bool> g_trace_on{false};
std::atomic<bool> g_flight_on{false};
constinit thread_local RankInfo t_rank{};
}  // namespace detail

namespace {

std::mutex g_config_mutex;
Config g_config;
bool g_configured = false;

// Truthy for "1"/"true"/"on"; a value with a '.' or '/' is a path (also
// truthy). "0"/"false"/"off" disable.
bool env_truthy(const char* v) noexcept {
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "false") == 0 ||
           std::strcmp(v, "off") == 0);
}

bool env_is_path(const char* v) noexcept {
  return std::strchr(v, '.') != nullptr || std::strchr(v, '/') != nullptr;
}

void apply_locked(const Config& config) {
  g_config = config;
  g_configured = true;
  TraceRecorder::instance().set_capacity(config.trace_capacity);
  detail::g_metrics_on.store(config.metrics, std::memory_order_relaxed);
  detail::g_trace_on.store(config.trace, std::memory_order_relaxed);
  detail::g_flight_on.store(config.flight, std::memory_order_relaxed);
}

}  // namespace

void configure(const Config& config) {
  std::lock_guard<std::mutex> lock(g_config_mutex);
  apply_locked(config);
}

void configure_from_env() {
  std::lock_guard<std::mutex> lock(g_config_mutex);
  if (g_configured) {
    return;
  }
  Config config;
  const char* master = std::getenv("CMPI_OBS");
  const bool killed = master != nullptr && !env_truthy(master);
  if (!killed) {
    if (const char* trace = std::getenv("CMPI_TRACE")) {
      if (env_truthy(trace)) {
        config.trace = true;
        if (env_is_path(trace)) {
          config.trace_path = trace;
        }
      }
    }
    if (const char* metrics = std::getenv("CMPI_METRICS")) {
      if (env_truthy(metrics)) {
        config.metrics = true;
        if (env_is_path(metrics)) {
          config.metrics_path = metrics;
        }
      }
    }
    // Flight dumps ride along with tracing unless explicitly toggled.
    config.flight = config.trace;
    if (const char* flight = std::getenv("CMPI_FLIGHT")) {
      config.flight = env_truthy(flight);
      if (config.flight && env_is_path(flight)) {
        config.flight_path = flight;
      }
    }
  }
  apply_locked(config);
}

const Config& config() {
  std::lock_guard<std::mutex> lock(g_config_mutex);
  return g_config;
}

std::size_t shard_index() noexcept { return detail::t_rank.shard; }

RankScope::RankScope(int rank, int node, const simtime::VClock* clock,
                     int tenant)
    : saved_(detail::t_rank) {
  RankInfo info;
  info.rank = rank;
  info.node = node;
  info.tenant = tenant;
  info.clock = clock;
  // Shard 0 stays the home of non-rank threads so rank 0 never shares a
  // cacheline with stray helpers.
  info.shard = static_cast<std::size_t>(rank + 1) % kMetricShards;
  if (trace_enabled() || flight_enabled()) {
    info.ring = &TraceRecorder::instance().ring(node, rank);
  }
  detail::t_rank = info;
  log_set_thread_context(rank, [] { return static_cast<double>(now_ns()); });
}

RankScope::~RankScope() {
  detail::t_rank = saved_;
  if (saved_.rank >= 0) {
    log_set_thread_context(saved_.rank,
                           [] { return static_cast<double>(now_ns()); });
  } else {
    log_set_thread_context(-1, nullptr);
  }
}

void export_artifacts() {
  Config snapshot_config;
  {
    std::lock_guard<std::mutex> lock(g_config_mutex);
    snapshot_config = g_config;
  }
  if (snapshot_config.metrics && !snapshot_config.metrics_path.empty()) {
    std::ofstream out(snapshot_config.metrics_path);
    if (out) {
      MetricsRegistry::instance().write_json(out);
    } else {
      log_warn("obs: cannot write CMPI_METRICS file '%s'",
               snapshot_config.metrics_path.c_str());
    }
  }
  if (snapshot_config.trace && !snapshot_config.trace_path.empty()) {
    std::ofstream out(snapshot_config.trace_path);
    if (out) {
      TraceRecorder::instance().write_chrome_json(out);
    } else {
      log_warn("obs: cannot write CMPI_TRACE file '%s'",
               snapshot_config.trace_path.c_str());
    }
  }
}

}  // namespace cmpi::obs
