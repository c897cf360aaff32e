// Message-rate fan-in bench: N senders -> 1 receiver, OSU osu_mbw_mr
// style, at small payloads where per-message protocol cost dominates.
//
// Measures p2p::Endpoint's progress engine: every pass polls each
// inbound ring (an empty one costs an untimed poll of its head cell),
// reaps in batches, and senders publish in batches. The linear-scan
// engine it replaced, which paid a header miss per ring, is gone; its
// numbers stay in EXPERIMENTS.md.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "osu/drivers.hpp"
#include "osu/report.hpp"

using namespace cmpi;

int main(int argc, char** argv) {
  const auto args = check_ok(CliArgs::parse(argc, argv));
  osu::MsgRateParams params;
  params.size = args.get_size("size", 8);
  params.window = static_cast<int>(args.get_int("window", 64));
  params.iters = static_cast<int>(args.get_int("iters", 10));
  params.warmup = static_cast<int>(args.get_int("warmup", 2));
  const bool csv = args.get_bool("csv");
  const std::string json_path = args.get_string("json", "BENCH_msgrate.json");
  for (const auto& flag : args.unused_flags()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    return 2;
  }

  osu::FigureTable table("Message rate: N-sender fan-in, " +
                             std::to_string(params.size) + " B payloads",
                         "Senders", "msg/s");
  for (const int senders : {2, 8, 16}) {
    params.senders = senders;
    table.set("CXL SHM", static_cast<std::size_t>(senders),
              osu::cxl_msgrate_fanin(params));
  }
  table.print(std::cout);
  if (csv) {
    table.print_csv(std::cout);
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 2;
    }
    table.print_json(out, {
        {"size", std::to_string(params.size)},
        {"window", std::to_string(params.window)},
        {"iters", std::to_string(params.iters)},
        {"warmup", std::to_string(params.warmup)},
    });
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return 0;
}
