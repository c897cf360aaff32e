// Offline autotuner (tune subsystem): sweeps the Fig 9 axes — cell size x
// rendezvous threshold x procs, plus a pipeline-quantum/inflight
// mini-sweep — and writes the winning configuration per message-size
// class to bench/baselines/dispatch_table.json. With tuning on
// (CMPI_TUNE=1, CMPI_TUNE_TABLE=<that file>) every endpoint sends with
// the rows for its cell payload.
//
//   ./bench/autotune                  full sweep, print winners
//   CMPI_UPDATE_BASELINE=1 ./bench/autotune   ...and rewrite the baseline
//   ./bench/autotune --out=PATH       write the table to PATH instead
//   ./bench/autotune --check          drift gate (CI): re-sweep at reduced
//                                     resolution and fail when a checked-in
//                                     winner measures below 95% of the new
//                                     best for its class — catching a stale
//                                     table.
//
// All measurements are virtual time, so host speed does not move them,
// but they are not deterministic: contended charges follow the order in
// which host threads arrive (ROADMAP.md item 2). One build can measure a
// different best for a class from run to run, so --check can trip with
// no code change (ROADMAP.md item 4).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/units.hpp"
#include "osu/drivers.hpp"
#include "tune/dispatch_table.hpp"

#ifndef CMPI_DISPATCH_TABLE_FILE
#error "CMPI_DISPATCH_TABLE_FILE must point at bench/baselines/dispatch_table.json"
#endif

namespace {

using cmpi::tune::DispatchEntry;
using cmpi::tune::DispatchTable;

struct Axes {
  std::vector<std::size_t> cells;
  std::vector<std::size_t> thresholds;  // SIZE_MAX = rendezvous off
  std::vector<std::size_t> quanta;
  std::vector<std::size_t> inflights;
  /// Workload axis, not a knob: each candidate is scored by its mean
  /// throughput across these process counts so the table does not
  /// overfit one communicator size (the Fig 9 procs axis).
  std::vector<int> procs;
};

Axes full_axes() {
  using namespace cmpi;
  Axes axes;
  axes.cells = {4_KiB, 16_KiB, 64_KiB};
  axes.thresholds = {16_KiB, 64_KiB, 256_KiB, ~std::size_t{0}};
  axes.quanta = {64_KiB, 128_KiB, 256_KiB};
  axes.inflights = {4, 8};
  axes.procs = {2, 4};
  return axes;
}

/// --check resolution: the extreme cells, eager-vs-default-rendezvous,
/// and the stock pipeline knobs. Enough to notice a code change that
/// moved the landscape; cheap enough to run on every CI push.
Axes reduced_axes() {
  using namespace cmpi;
  Axes axes;
  axes.cells = {4_KiB, 64_KiB};
  axes.thresholds = {64_KiB, ~std::size_t{0}};
  axes.quanta = {128_KiB};
  axes.inflights = {8};
  // Same procs axis as the full sweep: the drift gate compares scores,
  // and a winner picked on the {2,4} mean would flag as stale when
  // re-measured at a single communicator size.
  axes.procs = {2, 4};
  return axes;
}

/// Size-class upper bounds (half-open, ascending; the last catches all).
std::vector<std::size_t> size_classes() {
  using namespace cmpi;
  return {16_KiB, 64_KiB, 256_KiB, 1_MiB, 4_MiB};
}

/// Mean throughput of one static configuration across the procs axis.
double measure_mbps(std::size_t probe_size, const std::vector<int>& procs,
                    int iters, const DispatchEntry& config) {
  double sum = 0;
  for (const int p : procs) {
    cmpi::osu::SweepParams params;
    params.sizes = {probe_size};
    params.procs = p;
    params.iters = iters;
    params.warmup = 1;
    params.cell_payload = config.cell_payload;
    params.rendezvous_threshold = config.rendezvous_threshold;
    params.rendezvous_quantum = config.pipeline_quantum;
    params.rendezvous_inflight = config.inflight_depth;
    // The sweep measures the configuration it names; a table picked up
    // from the environment would replace the knobs under test.
    params.tune.mode = cmpi::tune::Tuning::kDisabled;
    sum += cmpi::osu::cxl_twosided_bw_mbps(params)[0];
  }
  return sum / static_cast<double>(procs.size());
}

/// Best configuration for one (size class, cell payload): staged sweep —
/// threshold first (stock pipeline knobs), then quantum x inflight around
/// the winner. Cuts the grid from |t||q||i| runs to |t| + |q||i|. The
/// cell is fixed per row: an endpoint uses only rows matching the
/// geometry its universe was built with.
DispatchEntry tune_class(std::size_t max_bytes, std::size_t cell,
                         const Axes& axes, int iters) {
  DispatchEntry best;
  best.max_bytes = max_bytes;
  for (const std::size_t threshold : axes.thresholds) {
    DispatchEntry candidate;
    candidate.max_bytes = max_bytes;
    candidate.cell_payload = cell;
    candidate.rendezvous_threshold = threshold;
    candidate.pipeline_quantum = axes.quanta.front();
    candidate.inflight_depth = axes.inflights.front();
    candidate.mbps = measure_mbps(max_bytes, axes.procs, iters, candidate);
    if (candidate.mbps > best.mbps) {
      best = candidate;
    }
  }
  const bool rendezvous_in_play = max_bytes > best.rendezvous_threshold;
  if (rendezvous_in_play) {
    for (const std::size_t quantum : axes.quanta) {
      for (const std::size_t inflight : axes.inflights) {
        if (quantum == best.pipeline_quantum &&
            inflight == best.inflight_depth) {
          continue;  // already measured in the first stage
        }
        DispatchEntry candidate = best;
        candidate.pipeline_quantum = quantum;
        candidate.inflight_depth = inflight;
        candidate.mbps = measure_mbps(max_bytes, axes.procs, iters, candidate);
        if (candidate.mbps > best.mbps) {
          best = candidate;
        }
      }
    }
  }
  return best;
}

std::string human_size(std::size_t bytes) {
  if (bytes == ~std::size_t{0}) {
    return "off";
  }
  if (bytes >= (std::size_t{1} << 20) && bytes % (std::size_t{1} << 20) == 0) {
    return std::to_string(bytes >> 20) + "M";
  }
  if (bytes >= 1024 && bytes % 1024 == 0) {
    return std::to_string(bytes >> 10) + "K";
  }
  return std::to_string(bytes);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = cmpi::check_ok(cmpi::CliArgs::parse(argc, argv));
  const bool check = args.get_bool("check");
  const int iters = static_cast<int>(args.get_int("iters", 3));
  std::string out_path = args.get_string("out", "");
  for (const auto& flag : args.unused_flags()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    return 2;
  }

  const Axes axes = check ? reduced_axes() : full_axes();
  std::vector<DispatchEntry> winners;
  std::printf("%-8s %-6s %-10s %-8s %-9s %10s\n", "class", "cell",
              "threshold", "quantum", "inflight", "MB/s");
  for (const std::size_t cell : axes.cells) {
    for (const std::size_t max_bytes : size_classes()) {
      const DispatchEntry best = tune_class(max_bytes, cell, axes, iters);
      std::printf("%-8s %-6s %-10s %-8s %-9zu %10.1f\n",
                  human_size(max_bytes).c_str(),
                  human_size(best.cell_payload).c_str(),
                  human_size(best.rendezvous_threshold).c_str(),
                  human_size(best.pipeline_quantum).c_str(),
                  best.inflight_depth, best.mbps);
      winners.push_back(best);
    }
  }

  if (check) {
    // Drift gate: every checked-in winner must still measure within 5% of
    // the best this build finds for its (class, cell) row.
    const cmpi::Result<DispatchTable> loaded =
        DispatchTable::load(CMPI_DISPATCH_TABLE_FILE);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "FAIL: cannot load %s: %s\n",
                   CMPI_DISPATCH_TABLE_FILE,
                   loaded.status().message().c_str());
      return 1;
    }
    const DispatchTable& table = loaded.value();
    bool drifted = false;
    for (const DispatchEntry& fresh : winners) {
      const DispatchEntry* checked_in =
          table.lookup(fresh.max_bytes, fresh.cell_payload);
      if (checked_in == nullptr) {
        std::fprintf(stderr, "FAIL: class %s @ cell %s missing from %s\n",
                     human_size(fresh.max_bytes).c_str(),
                     human_size(fresh.cell_payload).c_str(),
                     CMPI_DISPATCH_TABLE_FILE);
        drifted = true;
        continue;
      }
      const double measured =
          measure_mbps(fresh.max_bytes, axes.procs, iters, *checked_in);
      if (measured < 0.95 * fresh.mbps) {
        std::fprintf(stderr,
                     "FAIL: class %s @ cell %s checked-in policy measures "
                     "%.1f MB/s, below 95%% of this build's best %.1f MB/s — "
                     "re-baseline with CMPI_UPDATE_BASELINE=1 ./bench/autotune\n",
                     human_size(fresh.max_bytes).c_str(),
                     human_size(fresh.cell_payload).c_str(), measured,
                     fresh.mbps);
        drifted = true;
      }
    }
    if (drifted) {
      return 1;
    }
    std::printf("dispatch table up to date (every class within 5%% of the "
                "reduced-sweep best)\n");
    return 0;
  }

  const char* update = std::getenv("CMPI_UPDATE_BASELINE");
  if (out_path.empty() && update != nullptr && update[0] != '\0' &&
      std::string(update) != "0") {
    out_path = CMPI_DISPATCH_TABLE_FILE;
  }
  if (!out_path.empty()) {
    std::string procs_list;
    for (const int p : axes.procs) {
      if (!procs_list.empty()) {
        procs_list += ',';
      }
      procs_list += std::to_string(p);
    }
    DispatchTable table(winners);
    table.set_provenance({
        {"generator", "bench/autotune"},
        {"axes",
         "per cell: rendezvous_threshold, then quantum x inflight; scored "
         "across procs"},
        {"resolution", check ? "reduced" : "full"},
        {"procs", procs_list},
        {"iters", std::to_string(iters)},
    });
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
    table.save(out);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
