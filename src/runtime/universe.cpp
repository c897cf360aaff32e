#include "runtime/universe.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "common/log.hpp"
#include "cxlsim/coherence_checker.hpp"
#include "obs/obs.hpp"
#include "runtime/config_validate.hpp"
#include "runtime/launch.hpp"
#include "runtime/pool_recovery.hpp"

namespace cmpi::runtime {

namespace {
thread_local RankCtx* tls_ctx = nullptr;
}  // namespace

RankCtx* RankCtx::current() noexcept { return tls_ctx; }

Universe::Universe(const UniverseConfig& config) : config_(config) {
  CMPI_EXPECTS(config.nodes > 0);
  CMPI_EXPECTS(config.ranks_per_node > 0);
  CMPI_EXPECTS(config.cell_payload >= kCacheLineSize);
  CMPI_EXPECTS(is_aligned(config.cell_payload, kCacheLineSize));
  CMPI_EXPECTS(config.ring_cells >= 2);
  CMPI_EXPECTS(config.failure_lease.count() > 0);
  if (const Status knobs = validate(config); !knobs.is_ok()) {
    throw std::invalid_argument(knobs.message());
  }

  // Settle the telemetry configuration (CMPI_TRACE / CMPI_METRICS /
  // CMPI_FLIGHT / CMPI_OBS) before any instrumented traffic. Idempotent:
  // only the first Universe of the process reads the environment.
  obs::configure_from_env();

  // The rings require a power-of-two cell count (index wraparound);
  // accept any requested geometry and round up.
  config_.ring_cells = std::bit_ceil(config_.ring_cells);

  // Every rank must have a bakery-lock slot in the arena.
  config_.arena_params.max_participants =
      std::max<std::size_t>(config_.arena_params.max_participants,
                            config_.nranks());

  if (config_.shared_device != nullptr) {
    // Service mode: a tenant universe over a region of an existing pool.
    // Device-global policy (fault plans) belongs to the device owner
    // (the pool service), not to any one tenant.
    device_ = config_.shared_device;
    CMPI_EXPECTS(config_.fault_plan.empty());
    region_base_ = config_.region_base;
    region_size_ = config_.region_size != 0
                       ? config_.region_size
                       : device_->size() - region_base_;
    CMPI_EXPECTS(is_aligned(region_base_, 4096));
    CMPI_EXPECTS(region_base_ + region_size_ <= device_->size());
  } else {
    CMPI_EXPECTS(config_.region_base == 0);
    device_ = check_ok(cxlsim::DaxDevice::create(
        config_.pool_size, std::max(4u, config_.nodes), config_.timing));
    region_base_ = 0;
    region_size_ = device_->size();
  }
  // Settle coherence checking before any pool traffic (kAuto keeps
  // whatever the CMPI_COHERENCE_CHECK environment variable selected in
  // DaxDevice::create).
  if (config_.coherence_check == CoherenceChecking::kEnabled) {
    device_->enable_coherence_checker();
  } else if (config_.coherence_check == CoherenceChecking::kDisabled) {
    device_->disable_coherence_checker();
  }
  node_caches_.reserve(config_.nodes);
  for (unsigned n = 0; n < config_.nodes; ++n) {
    node_caches_.push_back(
        std::make_unique<cxlsim::CacheSim>(*device_, config_.cache_geometry));
  }

  const std::uint64_t region_end = region_base_ + region_size_;
  barrier_base_ = region_base_ + kBarrierOffset;
  const std::uint64_t barrier_end =
      barrier_base_ + SeqBarrier::footprint(config_.nranks());
  // Heartbeat slots and the recovery ledger ride in the same reserved
  // region as the barrier; the arena starts at the next 4 KiB boundary.
  // Everything is region-relative so a tenant's whole footprint —
  // metadata included — lives in its fault domain.
  hb_base_ = barrier_end;
  recovery_base_ = hb_base_ + FailureDetector::footprint(config_.nranks());
  arena_base_ = align_up(
      recovery_base_ + PoolRecovery::footprint(config_.nranks()), 4096);
  CMPI_EXPECTS(arena_base_ + arena::Arena::metadata_footprint(
                                 config_.arena_params) <
               region_end);

  // Bootstrap with a scratch accessor: format the barrier array, the
  // heartbeat slots and the arena. Bootstrap state is flushed out of the
  // scratch cache so every node starts clean.
  simtime::VClock boot_clock;
  cxlsim::CacheSim boot_cache(*device_, {.sets = 64, .ways = 4});
  cxlsim::Accessor boot(*device_, boot_cache, boot_clock);
  configure_accessor(boot);
  SeqBarrier::format(boot, barrier_base_, config_.nranks());
  FailureDetector::format(boot, hb_base_, config_.nranks());
  PoolRecovery::format(boot, recovery_base_, config_.nranks());
  check_ok(arena::Arena::format(boot, arena_base_, region_end - arena_base_,
                                /*participant=*/0, config_.arena_params));
  boot_cache.writeback_all();
  // Install the fault plan only after bootstrap so formatting traffic is
  // never counted toward crash-at-Nth schedules or flagged as poisoned.
  if (!config_.fault_plan.empty()) {
    device_->install_fault_plan(config_.fault_plan);
  }
  incarnations_.assign(config_.nranks(), 0);
  rank_crashed_.assign(config_.nranks(), false);
  node_dead_.assign(config_.nodes, false);
  recovery_counters_ = std::make_unique<RecoveryCounters>();
  obs_registration_ = obs::ProviderRegistration(
      [counters = recovery_counters_.get()] {
        const auto load = [](const std::atomic<std::uint64_t>& a) {
          return a.load(std::memory_order_relaxed);
        };
        return std::vector<obs::Sample>{
            {"recovery.crc_failures", load(counters->crc_failures)},
            {"recovery.naks_sent", load(counters->naks_sent)},
            {"recovery.retransmits", load(counters->retransmits)},
            {"recovery.retransmit_rejects",
             load(counters->retransmit_rejects)},
            {"recovery.stale_fenced", load(counters->stale_fenced)},
            {"recovery.scavenges", load(counters->scavenges)},
            {"recovery.ring_cells_tombstoned",
             load(counters->ring_cells_tombstoned)},
        };
      });
  if (config_.shared_device != nullptr) {
    obs_domain_registration_ = obs::ProviderRegistration(
        [counters = &domain_counters_, tenant = config_.tenant_id] {
          const std::uint64_t writes =
              counters->writes_outside.load(std::memory_order_relaxed);
          const std::uint64_t reads =
              counters->reads_outside.load(std::memory_order_relaxed);
          const std::string prefix =
              "tenant." + std::to_string(tenant) + ".";
          return std::vector<obs::Sample>{
              {"tenant.out_of_domain_writes", writes},
              {"tenant.out_of_domain_reads", reads},
              {prefix + "out_of_domain_writes", writes},
              {prefix + "out_of_domain_reads", reads},
          };
        });
  }
  log_info("universe: %u nodes x %u ranks, pool %zu MiB, region [%#lx, %#lx), "
           "arena at %#lx",
           config_.nodes, config_.ranks_per_node, device_->size() >> 20,
           static_cast<unsigned long>(region_base_),
           static_cast<unsigned long>(region_base_ + region_size_),
           static_cast<unsigned long>(arena_base_));
}

void Universe::configure_accessor(cxlsim::Accessor& acc) noexcept {
  if (config_.tenant_id > 0) {
    acc.set_wfq_class(static_cast<unsigned>(config_.tenant_id));
  }
  if (config_.shared_device != nullptr) {
    acc.set_fault_domain(region_base_, region_size_, &domain_counters_);
  }
}

void Universe::run(const std::function<void(RankCtx&)>& fn) {
  const std::exception_ptr error = launch_ranks(
      config_.nranks(), [&](unsigned r) { run_rank(r, fn); },
      [this] { doorbell_.ring(); });
  finish_run();
  // Write CMPI_METRICS / CMPI_TRACE artifacts even when re-throwing — a
  // failed run is exactly when the telemetry is wanted.
  obs::export_artifacts();
  if (error) {
    std::rethrow_exception(error);
  }
}

void Universe::run_rank(unsigned r, const std::function<void(RankCtx&)>& fn) {
  const unsigned nranks = config_.nranks();
  RankCtx ctx;
  ctx.rank_ = static_cast<int>(r);
  ctx.nranks_ = static_cast<int>(nranks);
  ctx.node_ = static_cast<int>(r / config_.ranks_per_node);
  ctx.doorbell_ = &doorbell_;
  ctx.device_ = device_.get();
  ctx.config_ = &config_;
  ctx.incarnations_ = &incarnations_;
  ctx.recovery_counters_ = recovery_counters_.get();
  ctx.barrier_base_ = barrier_base_;
  ctx.recovery_base_ = recovery_base_;
  ctx.acc_ = std::make_unique<cxlsim::Accessor>(
      *device_, *node_caches_[static_cast<std::size_t>(ctx.node_)],
      ctx.clock_);
  configure_accessor(*ctx.acc_);
  cxlsim::CoherenceChecker::set_current_rank(static_cast<int>(r));
  cxlsim::FaultInjector::set_current_rank(static_cast<int>(r));
  cxlsim::FaultInjector::set_rank_base(config_.fault_rank_base);
  // Rank/node/clock context for the obs layer (metrics shard, trace ring,
  // log prefix); torn down when the rank leaves this function.
  obs::RankScope obs_scope(ctx.rank_, ctx.node_, &ctx.clock_,
                           config_.tenant_id);
  std::exception_ptr error;
  try {
    // Arena participants are ranks: a rank that died holding the arena
    // lock must not stall the attach of a late-starting peer.
    const cxlsim::FaultInjector* injector = device_->fault_injector();
    ctx.arena_ = std::make_unique<arena::Arena>(check_ok(
        arena::Arena::attach(*ctx.acc_, arena_base_, r, incarnations_[r],
                             [injector](std::size_t participant) {
                               return injector != nullptr &&
                                      injector->rank_crashed(
                                          static_cast<int>(participant));
                             })));
    ctx.init_barrier_ =
        std::make_unique<SeqBarrier>(*ctx.acc_, barrier_base_, nranks, r);
    ctx.detector_ = std::make_unique<FailureDetector>(hb_base_, nranks, r,
                                                      config_.failure_lease);
    tls_ctx = &ctx;
    fn(ctx);
  } catch (const cxlsim::RankCrashed& crash) {
    // Scripted fault, not a bug: the rank's "host" died. It stops beating
    // its heartbeat and never reaches another sync point; the survivors
    // detect it via their leases. Recorded by the injector, reported in
    // teardown — deliberately NOT re-thrown as the run's error.
    log_warn("universe: rank %d crashed (fault injection): %s", crash.rank(),
             crash.what());
    {
      // When the last rank of a node dies the simulated host is gone: its
      // private cache's dirty lines vanish with it. DROP them — writing
      // them back would leak post-crash state into the pool.
      std::lock_guard lock(failures_mutex_);
      rank_crashed_[r] = true;
      const auto node = static_cast<std::size_t>(ctx.node_);
      bool all_dead = true;
      for (unsigned rr = static_cast<unsigned>(node) * config_.ranks_per_node;
           rr < (static_cast<unsigned>(node) + 1) * config_.ranks_per_node;
           ++rr) {
        all_dead = all_dead && rank_crashed_[rr];
      }
      if (all_dead) {
        node_dead_[node] = true;
        node_caches_[node]->drop_all();
      }
    }
    doorbell_.ring();
  } catch (...) {
    error = std::current_exception();
  }
  // Fold this rank's liveness verdicts into the universe-level record
  // (survives the RankCtx, which dies with this call).
  if (ctx.detector_ != nullptr) {
    const auto dead = ctx.detector_->failed_ranks();
    if (!dead.empty()) {
      std::lock_guard lock(failures_mutex_);
      for (int d : dead) {
        if (std::find(detected_failures_.begin(), detected_failures_.end(),
                      d) == detected_failures_.end()) {
          detected_failures_.push_back(d);
        }
      }
    }
  }
  tls_ctx = nullptr;
  if (error) {
    std::rethrow_exception(error);
  }
}

void Universe::finish_run() {
  // Leave the pool coherent for the next run() or for inspection. Dead
  // nodes' caches are dropped, not flushed: a crashed host never gets to
  // write back its dirty lines.
  for (std::size_t n = 0; n < node_caches_.size(); ++n) {
    if (node_dead_[n]) {
      node_caches_[n]->drop_all();
    } else {
      node_caches_[n]->writeback_all();
    }
  }
  // Surface protocol violations the checker recorded during this run.
  if (cxlsim::CoherenceChecker* chk = device_->checker();
      chk != nullptr && chk->total_violations() > 0) {
    log_warn("universe: coherence checker recorded %s",
             chk->summary_string().c_str());
    const auto violations = chk->violations();
    const std::size_t shown = std::min<std::size_t>(violations.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      const auto& v = violations[i];
      log_warn("universe:   [%.*s] rank %d @%#llx (%s): %s",
               static_cast<int>(
                   cxlsim::CoherenceChecker::kind_name(v.kind).size()),
               cxlsim::CoherenceChecker::kind_name(v.kind).data(), v.rank,
               static_cast<unsigned long long>(v.offset), v.op,
               v.detail.c_str());
    }
    if (violations.size() > shown) {
      log_warn("universe:   ... %zu more", violations.size() - shown);
    }
    CMPI_OBS_FLIGHT("universe: coherence checker recorded violations");
  }
  // Surface injected faults the same way.
  if (cxlsim::FaultInjector* fi = device_->fault_injector();
      fi != nullptr && fi->total_events() > 0) {
    log_warn("universe: fault injector fired: %s",
             fi->summary_string().c_str());
    const auto events = fi->events();
    const std::size_t shown = std::min<std::size_t>(events.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      const auto& e = events[i];
      log_warn("universe:   [%.*s] rank %d @%#llx: %s",
               static_cast<int>(
                   cxlsim::FaultInjector::kind_name(e.kind).size()),
               cxlsim::FaultInjector::kind_name(e.kind).data(), e.rank,
               static_cast<unsigned long long>(e.offset), e.detail.c_str());
    }
    if (events.size() > shown) {
      log_warn("universe:   ... %zu more", events.size() - shown);
    }
  }
  bool any_failed = false;
  {
    std::lock_guard lock(failures_mutex_);
    for (int d : detected_failures_) {
      log_warn("universe: failure detector declared rank %d dead", d);
    }
    any_failed = !detected_failures_.empty() ||
                 std::find(rank_crashed_.begin(), rank_crashed_.end(), true) !=
                     rank_crashed_.end();
  }
  if (any_failed) {
    CMPI_OBS_FLIGHT("universe: teardown with failed ranks");
  }
}

void Universe::respawn(int rank) {
  CMPI_EXPECTS(rank >= 0 && static_cast<unsigned>(rank) < config_.nranks());
  const auto r = static_cast<std::size_t>(rank);
  incarnations_[r] += 1;
  if (cxlsim::FaultInjector* fi = device_->fault_injector()) {
    fi->absolve(config_.fault_rank_base + rank);
  }
  {
    std::lock_guard lock(failures_mutex_);
    detected_failures_.erase(std::remove(detected_failures_.begin(),
                                         detected_failures_.end(), rank),
                             detected_failures_.end());
    rank_crashed_[r] = false;
    node_dead_[r / config_.ranks_per_node] = false;
  }
  // Repair the rank's liveness and barrier slots with a scratch accessor
  // (respawn runs between run() epochs; no rank threads are live). The
  // heartbeat restarts from zero; the barrier slot is forged level with
  // the survivors so the next incarnation — whose SeqBarrier constructor
  // restores its sequence from this slot — rejoins in step even if no
  // survivor ran a scavenge.
  simtime::VClock clock;
  cxlsim::CacheSim cache(*device_, {.sets = 64, .ways = 4});
  cxlsim::Accessor acc(*device_, cache, clock);
  configure_accessor(acc);
  FailureDetector::reset_slot(acc, hb_base_, r);
  SeqBarrier::forge_slot(acc, barrier_base_, config_.nranks(), r);
  cache.writeback_all();
  log_info("universe: rank %d respawned as incarnation %u", rank,
           incarnations_[r]);
}

RecoveryStats Universe::recovery_stats() const {
  const RecoveryCounters& c = *recovery_counters_;
  RecoveryStats out;
  out.crc_failures = c.crc_failures.load();
  out.naks_sent = c.naks_sent.load();
  out.retransmits = c.retransmits.load();
  out.retransmit_rejects = c.retransmit_rejects.load();
  out.stale_fenced = c.stale_fenced.load();
  out.scavenges = c.scavenges.load();
  out.ring_cells_tombstoned = c.ring_cells_tombstoned.load();
  return out;
}

std::vector<int> Universe::failed_ranks() const {
  std::vector<int> out;
  if (const cxlsim::FaultInjector* fi = device_->fault_injector()) {
    // The injector's record is global; keep only this universe's rank
    // namespace and translate back to local ids.
    const int base = config_.fault_rank_base;
    const int limit = base + static_cast<int>(config_.nranks());
    for (const int global : fi->crashed_ranks()) {
      if (global >= base && global < limit) {
        out.push_back(global - base);
      }
    }
  }
  {
    std::lock_guard lock(failures_mutex_);
    out.insert(out.end(), detected_failures_.begin(),
               detected_failures_.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace cmpi::runtime
