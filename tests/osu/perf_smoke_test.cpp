// Perf-regression smoke gate: a handful of 2-process bandwidth/latency
// points measured through the real stack and compared against checked-in
// baselines (bench/baselines/perf_smoke.json) at +-10%.
//
// The virtual clock makes the numbers near-deterministic (run-to-run
// jitter is well under 1%), so a 10% drift means a real change to the
// data path, not noise. To re-baseline after an intentional perf change:
//
//   CMPI_UPDATE_BASELINE=1 ./osu_test --gtest_filter='PerfSmoke.*'
//
// which rewrites the JSON in the source tree; commit it with the change
// that moved the numbers.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/units.hpp"
#include "model/hier_allreduce_model.hpp"
#include "osu/drivers.hpp"

namespace cmpi::osu {
namespace {

#ifndef CMPI_BASELINE_FILE
#error "CMPI_BASELINE_FILE must point at bench/baselines/perf_smoke.json"
#endif

constexpr double kTolerance = 0.10;

/// Flat {"name": value, ...} document — all this gate needs.
std::map<std::string, double> read_baselines() {
  std::ifstream in(CMPI_BASELINE_FILE);
  std::map<std::string, double> out;
  if (!in) {
    return out;
  }
  std::string key;
  char c;
  while (in.get(c)) {
    if (c == '"') {
      key.clear();
      while (in.get(c) && c != '"') {
        key += c;
      }
    } else if (c == ':' && !key.empty()) {
      double value = 0;
      if (in >> value) {
        out[key] = value;
      }
      key.clear();
    }
  }
  return out;
}

bool updating_baseline() {
  const char* env = std::getenv("CMPI_UPDATE_BASELINE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Collects this process's measurements; on teardown in update mode the
/// last fixture to run rewrites the baseline file with everything seen.
class PerfSmoke : public ::testing::Test {
 protected:
  static SweepParams smoke_params(std::vector<std::size_t> sizes) {
    SweepParams p;
    p.sizes = std::move(sizes);
    p.procs = 2;
    p.iters = 3;
    p.warmup = 1;
    return p;
  }

  void check(const std::string& name, double measured) {
    measured_[name] = measured;
    if (updating_baseline()) {
      return;
    }
    const auto& base = baselines();
    const auto it = base.find(name);
    ASSERT_NE(it, base.end())
        << name << " has no baseline in " << CMPI_BASELINE_FILE
        << " — run once with CMPI_UPDATE_BASELINE=1";
    const double expected = it->second;
    EXPECT_NEAR(measured, expected, expected * kTolerance)
        << name << ": measured " << measured << " vs baseline " << expected
        << " (gate +-" << kTolerance * 100 << "%)";
  }

  static const std::map<std::string, double>& baselines() {
    static const std::map<std::string, double> b = read_baselines();
    return b;
  }

  static void TearDownTestSuite() {
    if (!updating_baseline() || measured_.empty()) {
      return;
    }
    // Merge over the existing file so a filtered run doesn't drop the
    // other metrics.
    std::map<std::string, double> merged = read_baselines();
    for (const auto& [k, v] : measured_) {
      merged[k] = v;
    }
    std::ofstream out(CMPI_BASELINE_FILE);
    ASSERT_TRUE(out) << "cannot write " << CMPI_BASELINE_FILE;
    out << "{\n";
    bool first = true;
    for (const auto& [k, v] : merged) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.1f", v);
      out << (first ? "" : ",\n") << "  \"" << k << "\": " << buf;
      first = false;
    }
    out << "\n}\n";
    std::fprintf(stderr, "updated %s (%zu metrics)\n", CMPI_BASELINE_FILE,
                 merged.size());
  }

  static std::map<std::string, double> measured_;
};

std::map<std::string, double> PerfSmoke::measured_;

TEST_F(PerfSmoke, TwosidedBandwidthAdaptive) {
  const auto params = smoke_params({64_KiB, 1_MiB, 8_MiB});
  const auto bw = cxl_twosided_bw_mbps(params);
  check("twosided_bw_mbps_64K", bw[0]);
  check("twosided_bw_mbps_1M", bw[1]);
  check("twosided_bw_mbps_8M", bw[2]);
}

TEST_F(PerfSmoke, TwosidedBandwidthEagerOnly) {
  // The pre-rendezvous chunked path must not rot either: it is the
  // fallback under pool pressure and the small-message default.
  auto params = smoke_params({8_MiB});
  params.rendezvous_threshold = ~std::size_t{0};
  const auto bw = cxl_twosided_bw_mbps(params);
  check("twosided_bw_mbps_8M_eager", bw[0]);
}

TEST_F(PerfSmoke, TwosidedLatencySmallEager) {
  // The <=16 KiB ladder stays on the eager path; the rendezvous work must
  // not have added a cycle to it (acceptance: within 1% of the seed —
  // the 10% gate here is the ongoing-regression net, the EXPERIMENTS.md
  // table records the 1% comparison).
  const auto params = smoke_params({4_KiB, 16_KiB});
  const auto lat = cxl_twosided_latency_us(params);
  check("twosided_lat_us_4K", lat[0]);
  check("twosided_lat_us_16K", lat[1]);
}

TEST_F(PerfSmoke, TwosidedLatencyShortPayload) {
  // A 512 B chunk is read by the gather plus one line-fill wave, with no
  // invalidate sweep. Its own universe leaves the 4 KiB and 16 KiB
  // points above where they fall in their ring's laps.
  const auto lat = cxl_twosided_latency_us(smoke_params({512}));
  check("twosided_lat_us_512", lat[0]);
}

TEST_F(PerfSmoke, OnesidedBandwidth) {
  const auto params = smoke_params({1_MiB});
  const auto bw = cxl_onesided_bw_mbps(params);
  check("onesided_bw_mbps_1M", bw[0]);
}

TEST_F(PerfSmoke, MessageRateFanin) {
  // The progress-engine stress case: 16 senders stream 8-byte messages at
  // one receiver, where per-message protocol cost (scan + match + reap)
  // is everything and copy cost is nothing.
  MsgRateParams p;
  p.size = 8;
  p.senders = 16;
  p.window = 64;
  p.iters = 3;
  p.warmup = 1;
  const double rate = cxl_msgrate_fanin(p);
  check("msgrate_fanin_8B_16snd", rate);
  // Acceptance floor for the progress engine, independent of baseline
  // drift: at least 2x the rate the deleted linear-scan engine recorded
  // at this point (EXPERIMENTS.md, message-rate section).
  constexpr double kRecordedLegacyMsgRate = 247500.7;
  EXPECT_GE(rate, 2.0 * kRecordedLegacyMsgRate)
      << "progress engine " << rate << " msg/s vs legacy scan "
      << kRecordedLegacyMsgRate
      << " msg/s — batched publish and reap lost their edge";
}

TEST_F(PerfSmoke, HierarchicalAllreduce) {
  // Multi-pool scale-out gate: allreduce at 32 ranks across 4 pods, flat
  // recursive doubling vs the three-phase hierarchical algorithm over the
  // same pod fabric. The fabric tier (LogGP + serial router forwarding)
  // dominates both numbers. Hier repeats to 0.2%; flat does not: the
  // routers place its cross-pod forwards in host order (ROADMAP item 2),
  // which spreads it over 200.9–211.7 µs on a 4-core host.
  HierAllreduceParams p;
  p.pods = 4;
  p.ranks_per_pod = 8;
  p.sizes = {2048};
  p.iters = 5;
  p.warmup = 1;
  p.use_cxl_intra = false;
  p.mode = HierMode::kHier;
  const double hier = hier_allreduce_latency_us(p)[0];
  p.mode = HierMode::kFlat;
  const double flat = hier_allreduce_latency_us(p)[0];
  check("hier_allreduce_us_32r4p", hier);
  check("flat_allreduce_us_32r4p", flat);
  // Acceptance floor independent of baseline drift, from the closed form
  // of this shape (model/hier_allreduce_model.hpp): hier <= 6m + R and
  // flat >= 3m + F, so flat >= (3m + F) / (6m + R) x hier, 1.1308 x hier
  // with the cluster's constants.
  const model::HierAllreduceModel model;
  EXPECT_GE(flat, model.flat_over_hier_floor() * hier)
      << "hierarchical allreduce " << hier << " us vs flat " << flat
      << " us — the pod-aware algorithm lost its edge";
}

}  // namespace
}  // namespace cmpi::osu
