// Multi-tenant churn/chaos harness for runtime::PoolService.
//
// Two phases, one JSON artifact (BENCH_churn.json):
//
//   * Fairness — a 10%-share "light" tenant runs a fixed transfer
//     schedule twice: solo (full device to itself) and against a
//     90%-share saturator streaming ~12x its volume. The WFQ guarantee in
//     the device timing model must keep the light tenant's attainment
//     (observed bandwidth vs its promised 10% slice) at or above 80%.
//
//   * Churn + chaos — three tenants cycle join -> traffic epoch -> leave
//     -> join_for(backoff) on their own host threads while a fault plan
//     seeded from CMPI_FAULT_SEED kills one first-wave sender rank
//     mid-stream. Survivor tenants must complete every message, the
//     victim tenant must convict + scavenge inside its own region, and
//     every tenant's blast-radius counters must stay zero (no access ever
//     left its fault domain).
//
// The process exits non-zero when either the fairness floor or the
// isolation invariants fail, so CI can gate on the binary directly.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/units.hpp"
#include "core/cmpi.hpp"
#include "obs/obs.hpp"
#include "runtime/pool_service.hpp"
#include "runtime/universe.hpp"

using namespace cmpi;
using namespace std::chrono_literals;

namespace {

// --- Phase 1: WFQ fairness under a saturating neighbour ---------------

struct FairnessReport {
  double solo_ns = 0.0;        ///< light tenant's solo completion (vtime)
  double contended_ns = 0.0;   ///< same schedule against the saturator
  double share = 0.1;
  double attainment = 0.0;     ///< observed bandwidth / promised share
};

runtime::TenantConfig fairness_tenant(double share) {
  runtime::TenantConfig tenant;
  tenant.nodes = 2;
  tenant.ranks_per_node = 1;
  tenant.region_size = 12_MiB;
  tenant.bandwidth_share = share;
  return tenant;
}

/// rank 1 streams `msgs` transfers of `bytes` to rank 0; returns the
/// receiver's virtual clock when the last one landed.
double run_stream(runtime::Universe& universe, int msgs, std::size_t bytes) {
  std::atomic<double> done_ns{0.0};
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    std::vector<std::byte> buf(bytes, std::byte{0x2c});
    if (ctx.rank() == 1) {
      for (int m = 0; m < msgs; ++m) {
        check_ok(mpi.send(0, m, buf));
      }
    } else {
      for (int m = 0; m < msgs; ++m) {
        check_ok(mpi.recv(1, m, buf).status());
      }
      done_ns.store(ctx.clock().now());
    }
    ctx.barrier();
  });
  return done_ns.load();
}

FairnessReport measure_fairness(int light_msgs, int sat_msgs,
                                std::size_t msg_bytes) {
  FairnessReport report;

  {
    // Solo baseline: the light tenant alone on a fresh device measures
    // the full-rate completion of its schedule.
    runtime::PoolServiceConfig cfg;
    cfg.pool_size = 64_MiB;
    runtime::PoolService service(cfg);
    runtime::TenantSession light =
        check_ok(service.join(fairness_tenant(report.share)));
    report.solo_ns = run_stream(light.universe(), light_msgs, msg_bytes);
  }
  {
    // Contended: a 90%-share saturator streams concurrently (in virtual
    // time) with the same light schedule on the same device.
    runtime::PoolServiceConfig cfg;
    cfg.pool_size = 64_MiB;
    runtime::PoolService service(cfg);
    runtime::TenantSession saturator =
        check_ok(service.join(fairness_tenant(0.9)));
    runtime::TenantSession light =
        check_ok(service.join(fairness_tenant(report.share)));
    std::thread sat([&] {
      (void)run_stream(saturator.universe(), sat_msgs, msg_bytes);
    });
    report.contended_ns = run_stream(light.universe(), light_msgs, msg_bytes);
    sat.join();
  }

  // Bandwidth ratio via completion times: promised slice is
  // share * full rate, so attainment = solo / (share * contended).
  if (report.contended_ns > 0.0) {
    report.attainment =
        report.solo_ns / (report.share * report.contended_ns);
  }
  return report;
}

// --- Phase 2: churn with a seeded mid-stream crash --------------------

constexpr int kTenants = 3;
constexpr int kRanksPerTenant = 2;
constexpr std::size_t kChurnMsgBytes = 2500;  // 3 chunks at 1 KiB cells

struct TenantLedger {
  std::uint64_t msgs_expected = 0;
  std::uint64_t msgs_completed = 0;
  std::uint64_t epochs_completed = 0;
  std::uint64_t crashes_observed = 0;
  std::uint64_t scavenges = 0;
  std::uint64_t blast_writes = 0;
  std::uint64_t blast_reads = 0;
  std::uint64_t join_failures = 0;
};

runtime::TenantConfig churn_tenant() {
  runtime::TenantConfig tenant;
  tenant.nodes = kRanksPerTenant;
  tenant.ranks_per_node = 1;
  tenant.region_size = 4_MiB;
  tenant.cell_payload = 1_KiB;
  // Keep 2.5 KiB messages on the chunked eager path so the scripted
  // p2p-chunk-staged kill point is reachable.
  tenant.rendezvous_threshold = 64_KiB;
  tenant.failure_lease = 50ms;
  return tenant;
}

/// One traffic epoch inside a joined tenant. Returns normally whether or
/// not the scripted crash hit this tenant; the ledger records what
/// happened.
void run_epoch(runtime::TenantSession& session, int msgs,
               TenantLedger& ledger) {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> crashes{0};
  session.universe().run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    ctx.barrier();
    std::vector<std::byte> buf(kChurnMsgBytes, std::byte{0x7e});
    if (ctx.rank() == 1) {
      for (int m = 0; m < msgs; ++m) {
        // The scripted victim dies inside one of these sends
        // (RankCrashed unwinds the rank thread; the universe harness
        // catches it and convicts the rank).
        if (!mpi.send_for(0, m, buf, 5000ms).is_ok()) {
          return;
        }
      }
    } else {
      for (int m = 0; m < msgs; ++m) {
        const auto r = mpi.recv_for(1, m, buf, 5000ms);
        if (!r.is_ok()) {
          if (r.status().code() == ErrorCode::kPeerFailed) {
            ++crashes;
            // Region-scoped recovery: reclaim the corpse's cells from
            // THIS tenant's region.
            (void)mpi.scavenge(1);
          }
          return;
        }
        ++completed;
      }
    }
  });
  ledger.msgs_expected += static_cast<std::uint64_t>(msgs);
  ledger.msgs_completed += completed.load();
  ledger.crashes_observed += crashes.load();
  if (completed.load() == static_cast<std::uint64_t>(msgs)) {
    ++ledger.epochs_completed;
  }
  const runtime::Universe::DomainStats blast =
      session.universe().domain_stats();
  ledger.blast_writes += blast.writes_outside;
  ledger.blast_reads += blast.reads_outside;
  ledger.scavenges += session.universe().recovery_stats().scavenges;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = check_ok(CliArgs::parse(argc, argv));
  const char* seed_env = std::getenv("CMPI_FAULT_SEED");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int(
      "seed", seed_env != nullptr ? std::atoll(seed_env) : 1));
  const int epochs = static_cast<int>(args.get_int("epochs", 3));
  const int msgs = static_cast<int>(args.get_int("msgs", 16));
  const int light_msgs = static_cast<int>(args.get_int("light-msgs", 8));
  const int sat_msgs = static_cast<int>(args.get_int("sat-msgs", 96));
  const std::size_t msg_bytes = args.get_size("msg-size", 256_KiB);
  const std::string json_path = args.get_string("json", "BENCH_churn.json");
  for (const auto& flag : args.unused_flags()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    return 2;
  }

  std::printf("churn_tenants: seed %llu, %d tenants x %d epochs x %d msgs\n",
              static_cast<unsigned long long>(seed), kTenants, epochs, msgs);

  // Phase 1: fairness.
  const FairnessReport fair =
      measure_fairness(light_msgs, sat_msgs, msg_bytes);
  std::printf(
      "  fairness: solo %.0f ns, contended %.0f ns -> attainment %.1f%% of"
      " the 10%% share\n",
      fair.solo_ns, fair.contended_ns, 100.0 * fair.attainment);

  // Phase 2: churn + seeded chaos. The victim is always a first-wave
  // SENDER (local rank 1 -> global 2 * t + 1): receivers never stage
  // chunks, so a receiver-rank target would make the plan unreachable.
  const int victim_tenant = static_cast<int>(seed % kTenants);
  const int victim_rank = kRanksPerTenant * victim_tenant + 1;
  const std::uint64_t occurrence = 2 + seed % 40;  // within epoch 1's 48
  runtime::PoolServiceConfig cfg;
  cfg.pool_size = 64_MiB;
  cfg.max_tenants = kTenants;
  cfg.fault_plan.crash_at_sync.push_back(
      {.rank = victim_rank,
       .point = "p2p-chunk-staged",
       .occurrence = occurrence});
  runtime::PoolService service(cfg);
  std::printf("  chaos: global rank %d (tenant slot %d) dies at staged"
              " chunk %llu\n",
              victim_rank, victim_tenant,
              static_cast<unsigned long long>(occurrence));

  // Wave 1 joins on the main thread so global rank bases are exactly
  // 0/2/4 and the seeded plan targets a live rank.
  std::vector<runtime::TenantSession> wave;
  wave.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    wave.push_back(check_ok(service.join(churn_tenant())));
  }

  std::vector<TenantLedger> ledgers(kTenants);
  std::vector<std::thread> churners;
  churners.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    churners.emplace_back([&, t] {
      TenantLedger& ledger = ledgers[static_cast<std::size_t>(t)];
      runtime::TenantSession session =
          std::move(wave[static_cast<std::size_t>(t)]);
      for (int e = 0; e < epochs; ++e) {
        if (e > 0) {
          // Churn: give the slot back, then re-admit through the backoff
          // loop while the other tenants race for the same capacity.
          session.leave();
          auto readmit = service.join_for(churn_tenant(), 10000ms);
          if (!readmit.is_ok()) {
            ++ledger.join_failures;
            return;
          }
          session = std::move(readmit.value());
        }
        run_epoch(session, msgs, ledger);
      }
    });
  }
  for (std::thread& churner : churners) {
    churner.join();
  }

  // Verdicts.
  const bool fairness_ok = fair.attainment >= 0.8;
  bool isolation_ok = true;
  std::uint64_t total_crashes = 0;
  for (int t = 0; t < kTenants; ++t) {
    const TenantLedger& ledger = ledgers[static_cast<std::size_t>(t)];
    total_crashes += ledger.crashes_observed;
    if (ledger.blast_writes != 0 || ledger.blast_reads != 0) {
      isolation_ok = false;  // an access escaped the tenant's region
    }
    if (ledger.join_failures != 0) {
      isolation_ok = false;
    }
    if (t == victim_tenant) {
      // The victim must have seen the crash, scavenged, and completed
      // every epoch after its respawn.
      if (ledger.crashes_observed != 1 || ledger.scavenges < 1 ||
          ledger.epochs_completed !=
              static_cast<std::uint64_t>(epochs) - 1) {
        isolation_ok = false;
      }
    } else if (ledger.msgs_completed != ledger.msgs_expected) {
      isolation_ok = false;  // a survivor lost traffic to the blast
    }
    std::printf(
        "  tenant slot %d%s: %llu/%llu msgs, %llu/%d epochs, crashes %llu,"
        " scavenges %llu, blast %llu/%llu\n",
        t, t == victim_tenant ? " (victim)" : "",
        static_cast<unsigned long long>(ledger.msgs_completed),
        static_cast<unsigned long long>(ledger.msgs_expected),
        static_cast<unsigned long long>(ledger.epochs_completed), epochs,
        static_cast<unsigned long long>(ledger.crashes_observed),
        static_cast<unsigned long long>(ledger.scavenges),
        static_cast<unsigned long long>(ledger.blast_writes),
        static_cast<unsigned long long>(ledger.blast_reads));
  }
  if (total_crashes != 1) {
    isolation_ok = false;  // the scripted crash fired 0 or 2+ times
  }
  const runtime::AdmissionStats adm = service.admission_stats();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 2;
    }
    out << "{\n"
        << "  \"bench\": \"churn_tenants\",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"fairness\": {\n"
        << "    \"share\": " << fair.share << ",\n"
        << "    \"solo_ns\": " << fair.solo_ns << ",\n"
        << "    \"contended_ns\": " << fair.contended_ns << ",\n"
        << "    \"attainment\": " << fair.attainment << ",\n"
        << "    \"floor\": 0.8,\n"
        << "    \"ok\": " << (fairness_ok ? "true" : "false") << "\n"
        << "  },\n"
        << "  \"chaos\": {\n"
        << "    \"victim_rank\": " << victim_rank << ",\n"
        << "    \"victim_tenant_slot\": " << victim_tenant << ",\n"
        << "    \"kill_occurrence\": " << occurrence << ",\n"
        << "    \"tenants\": [\n";
    for (int t = 0; t < kTenants; ++t) {
      const TenantLedger& ledger = ledgers[static_cast<std::size_t>(t)];
      out << "      {\"slot\": " << t
          << ", \"victim\": " << (t == victim_tenant ? "true" : "false")
          << ", \"msgs_expected\": " << ledger.msgs_expected
          << ", \"msgs_completed\": " << ledger.msgs_completed
          << ", \"epochs_completed\": " << ledger.epochs_completed
          << ", \"crashes_observed\": " << ledger.crashes_observed
          << ", \"scavenges\": " << ledger.scavenges
          << ", \"blast_writes_outside\": " << ledger.blast_writes
          << ", \"blast_reads_outside\": " << ledger.blast_reads
          << ", \"join_failures\": " << ledger.join_failures << "}"
          << (t + 1 < kTenants ? "," : "") << "\n";
    }
    out << "    ],\n"
        << "    \"isolation_ok\": " << (isolation_ok ? "true" : "false")
        << "\n  },\n"
        << "  \"admission\": {\"admissions\": " << adm.admissions
        << ", \"rejections\": " << adm.rejections
        << ", \"retries\": " << adm.retries << ", \"leaves\": " << adm.leaves
        << "}\n"
        << "}\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }

  if (!fairness_ok) {
    std::fprintf(stderr,
                 "FAIL: light tenant attained %.1f%% of its share"
                 " (floor 80%%)\n",
                 100.0 * fair.attainment);
  }
  if (!isolation_ok) {
    std::fprintf(stderr, "FAIL: tenant isolation violated (see ledger)\n");
  }
  return fairness_ok && isolation_ok ? 0 : 1;
}
