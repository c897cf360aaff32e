// Adversarial phase-shifting workload: the dispatch-table acceptance gate.
//
// One run pushes three workload phases through the same universe, in
// order, with no reconfiguration between them:
//
// The universe runs 4 KiB ring cells (the small end of the Fig 9 cell
// axis): per-cell costs — header publish, per-cell reap, doorbells —
// dominate the eager path on large messages there, while the rendezvous
// path moves the same bytes as a handful of slab segments. The phases:
//
//   overlap — 4 MiB messages with receiver-side compute before the
//             receives post (a 4 MiB eager message is 1024 cells; a
//             rendezvous message at a 256 KiB pipeline quantum is 16 RTS
//             descriptors),
//   burst   — 8 KiB messages at high rate (rendezvous RTS/FIN round
//             trips per message lose; the eager path wins),
//   drain   — 256 KiB messages with a shorter compute window (the
//             middle of the switchover).
//
// Most static configurations in the panel are specialized for one phase
// and wrong for another: eager-only loses overlap to per-cell costs,
// rendezvous-everything loses burst, a tiny pipeline quantum fragments
// large messages into per-piece segments (each with its own RTS, fence,
// and flush sweep) and loses overlap. static-16K-512K is the best single
// static configuration measured on this workload. The table run
// (CMPI_TUNE-equivalent, with the checked-in dispatch table) sends each
// message with its size class's row and must land within 5% of the best
// static configuration in EVERY phase. The gate is built in: the bench
// exits non-zero when it fails, so CI runs it bare.
//
//   ./bench/phase_shift [--json=BENCH_tune.json] [--iters-scale=N]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/units.hpp"
#include "core/cmpi.hpp"
#include "osu/drivers.hpp"
#include "tune/dispatch_table.hpp"

#ifndef CMPI_DISPATCH_TABLE_FILE
#error "CMPI_DISPATCH_TABLE_FILE must point at bench/baselines/dispatch_table.json"
#endif

namespace {

using namespace cmpi;

constexpr int kDataTag = 7;
constexpr int kAckTag = 8;

struct PhaseSpec {
  const char* name;
  std::size_t size;
  int window;
  int iters;
  /// Receiver-side compute (virtual ns) charged BEFORE the receives are
  /// posted each iteration — the overlap window a pipelining sender can
  /// hide its slab writes behind.
  double compute_ns;
};

const std::vector<PhaseSpec>& phases() {
  static const std::vector<PhaseSpec> specs = {
      {"overlap", 4_MiB, 2, 4, 3.0e6},
      {"burst", 8_KiB, 32, 20, 0.0},
      {"drain", 256_KiB, 8, 8, 5.0e5},
  };
  return specs;
}

struct ConfigSpec {
  std::string name;
  std::size_t rendezvous_threshold = 0;  // 0 = default (one cell payload)
  std::size_t rendezvous_quantum = 0;    // 0 = default
  bool table = false;
};

struct RunResult {
  std::vector<double> phase_mbps;  // one per phase
  double whole_mbps = 0;
};

RunResult run_config(const ConfigSpec& config, int iters_scale) {
  osu::SweepParams params;
  params.procs = 4;
  params.cell_payload = 4_KiB;
  params.ring_cells = 8;
  params.rendezvous_threshold = config.rendezvous_threshold;
  params.rendezvous_quantum = config.rendezvous_quantum;
  for (const PhaseSpec& phase : phases()) {
    params.sizes.push_back(phase.size);  // pool sizing only
  }
  if (config.table) {
    params.tune.mode = tune::Tuning::kEnabled;
    params.tune.table_path = CMPI_DISPATCH_TABLE_FILE;
  } else {
    params.tune.mode = tune::Tuning::kDisabled;
  }

  runtime::Universe universe(osu::bench_universe_config(params));
  const int pairs = params.procs / 2;
  std::mutex mutex;
  std::vector<double> elapsed(phases().size(), 0.0);
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const bool is_sender = ctx.rank() < pairs;
    const int peer = is_sender ? ctx.rank() + pairs : ctx.rank() - pairs;
    for (std::size_t pi = 0; pi < phases().size(); ++pi) {
      const PhaseSpec& phase = phases()[pi];
      const int iters = phase.iters * iters_scale;
      std::vector<std::byte> payload(phase.size, std::byte{0x5A});
      std::vector<std::byte> inbox(phase.size);
      std::byte ack[4];
      ctx.barrier();
      double start = 0;
      for (int it = -1; it < iters; ++it) {  // one untimed warmup iteration
        if (it == 0) {
          ctx.barrier();
          start = ctx.clock().now();
        }
        std::vector<p2p::RequestPtr> reqs;
        reqs.reserve(static_cast<std::size_t>(phase.window));
        if (is_sender) {
          for (int w = 0; w < phase.window; ++w) {
            reqs.push_back(mpi.isend(peer, kDataTag, payload));
          }
          check_ok(mpi.wait_all(reqs));
          check_ok(mpi.recv(peer, kAckTag, ack).status());
        } else {
          if (phase.compute_ns > 0) {
            ctx.clock().advance(phase.compute_ns);  // compute before recv
          }
          for (int w = 0; w < phase.window; ++w) {
            reqs.push_back(mpi.irecv(peer, kDataTag, inbox));
          }
          check_ok(mpi.wait_all(reqs));
          check_ok(mpi.send(peer, kAckTag, ack));
        }
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        std::lock_guard lock(mutex);
        elapsed[pi] = ctx.clock().now() - start;
      }
    }
  });

  RunResult result;
  double total_bytes = 0;
  double total_ns = 0;
  for (std::size_t pi = 0; pi < phases().size(); ++pi) {
    const PhaseSpec& phase = phases()[pi];
    const double bytes = static_cast<double>(pairs) *
                         (phase.iters * iters_scale) * phase.window *
                         static_cast<double>(phase.size);
    result.phase_mbps.push_back(bytes / elapsed[pi] * 1e3);  // MB/s
    total_bytes += bytes;
    total_ns += elapsed[pi];
  }
  result.whole_mbps = total_bytes / total_ns * 1e3;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = check_ok(CliArgs::parse(argc, argv));
  const std::string json_path = args.get_string("json", "");
  const int iters_scale =
      static_cast<int>(args.get_int("iters-scale", 1));
  for (const auto& flag : args.unused_flags()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    return 2;
  }

  // Without the table the "table" row would silently measure the
  // library defaults.
  const Result<tune::DispatchTable> table =
      tune::DispatchTable::load(CMPI_DISPATCH_TABLE_FILE);
  if (!table.is_ok()) {
    std::fprintf(stderr, "cannot load the dispatch table: %s\n",
                 table.status().message().c_str());
    return 2;
  }

  const std::vector<ConfigSpec> panel = {
      {"table", 0, 0, true},
      {"static-eager-only", ~std::size_t{0}, 0, false},
      {"static-rdvz-all", 1024, 0, false},
      {"static-tiny-quantum", 0, 4_KiB, false},
      {"static-16K-512K", 16_KiB, 512_KiB, false},
  };

  std::vector<RunResult> results;
  std::printf("%-22s", "config");
  for (const PhaseSpec& phase : phases()) {
    std::printf(" %12s", phase.name);
  }
  std::printf(" %12s\n", "whole-run");
  for (const ConfigSpec& config : panel) {
    results.push_back(run_config(config, iters_scale));
    const RunResult& r = results.back();
    std::printf("%-22s", config.name.c_str());
    for (const double mbps : r.phase_mbps) {
      std::printf(" %12.1f", mbps);
    }
    std::printf(" %12.1f\n", r.whole_mbps);
  }

  // The gate: the table run within 5% of the best static config in every
  // phase. There is no whole-run gate: static-16K-512K and the table run
  // trade the lead on whole-run throughput within run-to-run spread.
  const RunResult& table_run = results[0];
  bool phase_gate = true;
  for (std::size_t pi = 0; pi < phases().size(); ++pi) {
    double best_static = 0;
    std::size_t best_ci = 1;
    for (std::size_t ci = 1; ci < results.size(); ++ci) {
      if (results[ci].phase_mbps[pi] > best_static) {
        best_static = results[ci].phase_mbps[pi];
        best_ci = ci;
      }
    }
    if (table_run.phase_mbps[pi] < 0.95 * best_static) {
      std::fprintf(stderr,
                   "GATE FAIL: phase %s — table %.1f MB/s vs %s "
                   "%.1f MB/s (below 95%%)\n",
                   phases()[pi].name, table_run.phase_mbps[pi],
                   panel[best_ci].name.c_str(), best_static);
      phase_gate = false;
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 2;
    }
    out << "{\n  \"bench\": \"phase_shift\",\n  \"configs\": {";
    for (std::size_t ci = 0; ci < panel.size(); ++ci) {
      out << (ci == 0 ? "\n" : ",\n") << "    \"" << panel[ci].name
          << "\": {\"phases\": {";
      for (std::size_t pi = 0; pi < phases().size(); ++pi) {
        out << (pi == 0 ? "" : ", ") << "\"" << phases()[pi].name
            << "\": " << results[ci].phase_mbps[pi];
      }
      out << "}, \"whole_run_mbps\": " << results[ci].whole_mbps << "}";
    }
    out << "\n  },\n  \"gates\": {\"per_phase_within_5pct\": "
        << (phase_gate ? "true" : "false") << "}\n}\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }

  if (!phase_gate) {
    return 1;
  }
  std::printf("gate passed: table within 5%% of the best static in every "
              "phase\n");
  return 0;
}
