// Shared scaffolding for the figure benches: flag parsing, the standard
// transports-x-procs sweep of Figs. 5-8, and ratio annotations.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/units.hpp"
#include "fabric/profiles.hpp"
#include "obs/obs.hpp"
#include "osu/drivers.hpp"
#include "osu/report.hpp"
#include "p2p/endpoint.hpp"

namespace cmpi::bench {

struct FigureOptions {
  std::vector<int> procs{2, 8, 16};
  std::size_t max_size = 8u * 1024 * 1024;
  int iters = 6;
  int warmup = 2;
  std::size_t cell_payload = 64u * 1024;  // §4.2: tuned cell size
  bool csv = false;
  /// Two-sided rendezvous threshold (0 = library default of one cell
  /// payload). --eager-only pins it past any sweep size, measuring the
  /// pre-rendezvous chunked path.
  std::size_t rendezvous_threshold = 0;
  bool eager_only = false;
  /// When non-empty, the primary table is also written here as JSON.
  std::string json_path;
};

inline std::vector<int> parse_proc_list(const std::string& text) {
  std::vector<int> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    out.push_back(std::atoi(item.c_str()));
  }
  return out;
}

/// Common flags: --procs=2,8,16  --max-size=8M  --iters=N  --cell=64K --csv
/// --rdvz=SIZE  --eager-only  --json=PATH
inline FigureOptions parse_options(int argc, char** argv) {
  const auto args = check_ok(CliArgs::parse(argc, argv));
  FigureOptions opts;
  const std::string procs = args.get_string("procs", "2,8,16");
  opts.procs = parse_proc_list(procs);
  opts.max_size = args.get_size("max-size", opts.max_size);
  opts.iters = static_cast<int>(args.get_int("iters", opts.iters));
  opts.warmup = static_cast<int>(args.get_int("warmup", opts.warmup));
  opts.cell_payload = args.get_size("cell", opts.cell_payload);
  opts.csv = args.get_bool("csv");
  opts.rendezvous_threshold = args.get_size("rdvz", opts.rendezvous_threshold);
  opts.eager_only = args.get_bool("eager-only");
  if (opts.eager_only) {
    opts.rendezvous_threshold = ~std::size_t{0};
  }
  opts.json_path = args.get_string("json", "");
  for (const auto& flag : args.unused_flags()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    std::exit(2);
  }
  return opts;
}

inline osu::SweepParams sweep_params(const FigureOptions& opts, int procs) {
  osu::SweepParams params;
  params.sizes = osu::osu_sizes(opts.max_size);
  params.procs = procs;
  params.iters = opts.iters;
  params.warmup = opts.warmup;
  params.cell_payload = opts.cell_payload;
  params.rendezvous_threshold = opts.rendezvous_threshold;
  return params;
}

/// Self-describing metadata for JSON artefacts: the knobs that move the
/// numbers, so a checked-in BENCH_*.json records its own provenance.
inline std::vector<std::pair<std::string, std::string>> json_metadata(
    const FigureOptions& opts) {
  const std::size_t threshold = p2p::Endpoint::rendezvous_threshold_for(
      opts.rendezvous_threshold, opts.cell_payload);
  return {
      {"cell_payload", std::to_string(opts.cell_payload)},
      {"rendezvous_threshold",
       opts.eager_only ? "disabled" : std::to_string(threshold)},
      {"iters", std::to_string(opts.iters)},
      {"warmup", std::to_string(opts.warmup)},
      {"max_size", std::to_string(opts.max_size)},
  };
}

/// Digest of the obs metrics registry for the JSON artefact's optional
/// "telemetry" section. Empty unless the run had CMPI_METRICS set (the
/// digest of a run without metrics would be all zeros — misleading, so it
/// is omitted entirely).
inline std::vector<std::pair<std::string, double>> telemetry_digest() {
  std::vector<std::pair<std::string, double>> out;
  if (!obs::metrics_enabled()) {
    return out;
  }
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::instance().snapshot();
  const auto count = [&snap](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  const double hits = count("cache.hits");
  const double misses = count("cache.misses");
  if (hits + misses > 0) {
    out.emplace_back("cache_hit_rate", hits / (hits + misses));
  }
  out.emplace_back("retransmits", count("recovery.retransmits"));
  out.emplace_back("messages_sent", count("p2p.messages_sent"));
  out.emplace_back("rendezvous_sent", count("p2p.rendezvous_sent"));
  // Eager-vs-rendezvous split (message and byte volume per path), so a
  // bench artefact records which side of the switchover its traffic ran.
  out.emplace_back("eager_messages", count("p2p.eager_messages"));
  out.emplace_back("eager_bytes", count("p2p.eager_bytes"));
  out.emplace_back("rendezvous_bytes", count("p2p.rendezvous_bytes"));
  // Topology descriptor (multi-pool runs publish it as high-water gauges
  // at PodCluster::create; absent on single-pool benches).
  const auto gauge = [&snap](const char* name) {
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0.0 : static_cast<double>(it->second);
  };
  if (gauge("topology.pods") > 0) {
    out.emplace_back("topology_pods", gauge("topology.pods"));
    out.emplace_back("topology_ranks_per_pod", gauge("topology.ranks_per_pod"));
    out.emplace_back("topology_router_local_rank",
                     gauge("topology.router_local_rank"));
    out.emplace_back("pod_fabric_messages", count("pods.fabric.messages"));
    out.emplace_back("pod_fabric_bytes", count("pods.fabric.bytes"));
  }
  return out;
}

/// Write the table to opts.json_path (if set) with standard metadata and,
/// when the run collected metrics, the telemetry digest.
inline void write_json(const osu::FigureTable& table,
                       const FigureOptions& opts) {
  if (opts.json_path.empty()) {
    return;
  }
  std::ofstream out(opts.json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 opts.json_path.c_str());
    std::exit(2);
  }
  osu::FigureTable annotated = table;
  annotated.set_telemetry(telemetry_digest());
  annotated.print_json(out, json_metadata(opts));
  std::printf("  wrote %s\n", opts.json_path.c_str());
}

/// Run the standard three-transport sweep of Figs. 5-8 and fill the table.
/// `cxl_fn` / `net_fn` are the matching osu driver functions.
inline void run_standard_sweep(
    const FigureOptions& opts, osu::FigureTable& table,
    const std::function<std::vector<double>(const osu::SweepParams&)>& cxl_fn,
    const std::function<std::vector<double>(const fabric::NicProfile&,
                                            const osu::SweepParams&)>&
        net_fn) {
  for (const int procs : opts.procs) {
    const osu::SweepParams params = sweep_params(opts, procs);
    const std::string suffix = " (" + std::to_string(procs) + "p)";
    {
      const auto values = cxl_fn(params);
      for (std::size_t i = 0; i < params.sizes.size(); ++i) {
        table.set("CXL SHM" + suffix, params.sizes[i], values[i]);
      }
    }
    for (const auto& profile :
         {fabric::tcp_ethernet(), fabric::tcp_cx6dx()}) {
      const auto values = net_fn(profile, params);
      const std::string name =
          (profile.name == "TCP over Ethernet" ? "TCP/Ethernet"
                                               : "TCP/CX-6 Dx") +
          suffix;
      for (std::size_t i = 0; i < params.sizes.size(); ++i) {
        table.set(name, params.sizes[i], values[i]);
      }
    }
  }
}

/// Print the paper-style "up to Nx" annotations for a bandwidth table
/// (higher is better) or latency table (lower is better).
inline void print_headline_ratios(const osu::FigureTable& table,
                                  const FigureOptions& opts,
                                  bool higher_is_better) {
  for (const int procs : opts.procs) {
    const std::string suffix = " (" + std::to_string(procs) + "p)";
    const std::string cxl = "CXL SHM" + suffix;
    for (const std::string base : {"TCP/Ethernet", "TCP/CX-6 Dx"}) {
      const std::string other = base + suffix;
      const double ratio =
          higher_is_better ? osu::max_ratio(table, cxl, other)
                           : osu::max_ratio(table, other, cxl);
      std::printf("  CXL SHM vs %-22s up to %.1fx %s\n", other.c_str(),
                  ratio, higher_is_better ? "higher bandwidth" : "lower latency");
    }
  }
}

inline void finish(const osu::FigureTable& table, const FigureOptions& opts) {
  table.print(std::cout);
  if (opts.csv) {
    table.print_csv(std::cout);
  }
}

}  // namespace cmpi::bench
