// tune subsystem: static-policy transparency, dispatch-table lookup and
// round-trip, controller AIMD/hysteresis behaviour driven with synthetic
// signals, seeded-decision determinism, and an end-to-end adaptive run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/units.hpp"
#include "core/cmpi.hpp"
#include "runtime/universe.hpp"
#include "tune/controller.hpp"
#include "tune/dispatch_table.hpp"
#include "tune/policy.hpp"
#include "tune/tune.hpp"

namespace cmpi::tune {
namespace {

KnobSettings test_defaults() {
  KnobSettings defaults;
  defaults.rendezvous_threshold = 16_KiB;
  defaults.pipeline_quantum = 128_KiB;
  defaults.inflight_depth = 8;
  return defaults;
}

// ---------------------------------------------------------------- Policy

TEST(TunePolicy, StaticModeReturnsDefaultsForEveryDestination) {
  const KnobSettings defaults = test_defaults();
  const Policy policy = Policy::make_static(4, defaults);
  EXPECT_FALSE(policy.adaptive());
  for (int dst = 0; dst < 4; ++dst) {
    EXPECT_EQ(policy.settings(dst), defaults);
  }
}

TEST(TunePolicy, AdaptiveModeStartsAtDefaultsAndMutatesPerDestination) {
  Policy policy = Policy::make_adaptive(3, test_defaults());
  EXPECT_TRUE(policy.adaptive());
  policy.mutable_settings(1).pipeline_quantum = 256_KiB;
  EXPECT_EQ(policy.settings(0), test_defaults());
  EXPECT_EQ(policy.settings(1).pipeline_quantum, 256_KiB);
  EXPECT_EQ(policy.settings(2), test_defaults());
}

TEST(TunePolicy, SignalsAccumulateIndependentlyOfKnobMode) {
  Policy policy = Policy::make_static(2, test_defaults());
  policy.signals(1).eager_messages += 3;
  policy.signals(1).eager_bytes += 3 * 8_KiB;
  EXPECT_EQ(policy.signals(1).eager_messages, 3u);
  EXPECT_EQ(policy.signals(0).eager_messages, 0u);
}

// -------------------------------------------------------- DispatchTable

std::vector<DispatchEntry> two_cell_entries() {
  // Two cell geometries, two size classes each. Entries are sorted by
  // max_bytes by the DispatchTable constructor.
  DispatchEntry small_4k{64_KiB, 4_KiB, 16_KiB, 64_KiB, 4, 100.0};
  DispatchEntry large_4k{4_MiB, 4_KiB, 256_KiB, 256_KiB, 8, 200.0};
  DispatchEntry small_64k{64_KiB, 64_KiB, ~std::size_t{0}, 128_KiB, 8, 300.0};
  DispatchEntry large_64k{4_MiB, 64_KiB, ~std::size_t{0}, 128_KiB, 8, 400.0};
  return {small_4k, large_4k, small_64k, large_64k};
}

TEST(DispatchTable, EmptyTableLooksUpToNull) {
  const DispatchTable table;
  EXPECT_EQ(table.lookup(1024), nullptr);
  EXPECT_EQ(table.lookup(1024, 4_KiB), nullptr);
}

TEST(DispatchTable, LookupPrefersRowsMatchingTheCellPayload) {
  const DispatchTable table(two_cell_entries());
  const DispatchEntry* hit = table.lookup(32_KiB, 64_KiB);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cell_payload, 64_KiB);
  EXPECT_EQ(hit->max_bytes, 64_KiB);
  hit = table.lookup(1_MiB, 4_KiB);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cell_payload, 4_KiB);
  EXPECT_EQ(hit->max_bytes, 4_MiB);
}

TEST(DispatchTable, LookupWithoutCellTakesTheSmallestCoveringClass) {
  const DispatchTable table(two_cell_entries());
  const DispatchEntry* hit = table.lookup(32_KiB);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->max_bytes, 64_KiB);
}

TEST(DispatchTable, OversizedBytesFallToTheLargestMatchingRow) {
  const DispatchTable table(two_cell_entries());
  // 16 MiB exceeds every class: the catch-all is the largest row with a
  // matching cell payload.
  const DispatchEntry* hit = table.lookup(16_MiB, 4_KiB);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->max_bytes, 4_MiB);
  EXPECT_EQ(hit->cell_payload, 4_KiB);
}

TEST(DispatchTable, UnknownCellFallsBackToAnyCoveringRow) {
  const DispatchTable table(two_cell_entries());
  const DispatchEntry* hit = table.lookup(32_KiB, 8_KiB);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->max_bytes, 64_KiB);  // covering row of some other cell
}

TEST(DispatchTable, SaveLoadRoundTripsIncludingSizeMaxThreshold) {
  DispatchTable table(two_cell_entries());
  table.set_provenance({{"generator", "tune_test"}, {"resolution", "unit"}});
  std::ostringstream os;
  table.save(os);

  const std::string path = ::testing::TempDir() + "dispatch_roundtrip.json";
  {
    std::ofstream out(path);
    out << os.str();
  }
  const Result<DispatchTable> loaded = DispatchTable::load(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().entries().size(), table.entries().size());
  for (std::size_t i = 0; i < table.entries().size(); ++i) {
    EXPECT_EQ(loaded.value().entries()[i], table.entries()[i]) << "entry " << i;
  }
  std::remove(path.c_str());
}

TEST(DispatchTable, LoadRejectsMissingFile) {
  const Result<DispatchTable> loaded =
      DispatchTable::load("/nonexistent/dispatch_table.json");
  EXPECT_FALSE(loaded.is_ok());
}

// ------------------------------------------------------------ Controller

ControllerConfig test_controller_config() {
  ControllerConfig config;
  config.period_ns = 1000;
  config.quantum_step = 16_KiB;
  config.explore_prob = 0.0;  // AIMD tests want no jitter
  config.seed = 42;
  return config;
}

/// One poll with synthetic per-destination traffic layered on top of the
/// policy's cumulative signal counters.
void drive_poll(Controller& controller, Policy& policy, simtime::Ns now,
                const DestSignals& add, const GlobalSignals& global,
                int dst = 0) {
  DestSignals& sig = policy.signals(dst);
  sig.eager_messages += add.eager_messages;
  sig.eager_bytes += add.eager_bytes;
  sig.rdvz_messages += add.rdvz_messages;
  sig.rdvz_bytes += add.rdvz_bytes;
  sig.ring_full += add.ring_full;
  sig.inflight_blocked += add.inflight_blocked;
  controller.poll(now, policy, global);
}

TEST(TuneController, QuantumGrowsAdditivelyWhileRendezvousFlows) {
  Policy policy = Policy::make_adaptive(1, test_defaults());
  Controller controller(test_controller_config(), nullptr);
  const std::size_t before = policy.settings(0).pipeline_quantum;
  drive_poll(controller, policy, 1000, {0, 0, 4, 4 * 1_MiB, 0, 0}, {});
  EXPECT_EQ(policy.settings(0).pipeline_quantum, before + 16_KiB);
  ASSERT_EQ(controller.journal().size(), 1u);
  EXPECT_STREQ(controller.journal()[0].reason, "aimd-increase");
}

TEST(TuneController, RingFullDoublesTheQuantumStep) {
  Policy policy = Policy::make_adaptive(1, test_defaults());
  Controller controller(test_controller_config(), nullptr);
  const std::size_t before = policy.settings(0).pipeline_quantum;
  drive_poll(controller, policy, 1000, {0, 0, 4, 4 * 1_MiB, 3, 0}, {});
  EXPECT_EQ(policy.settings(0).pipeline_quantum, before + 2 * 16_KiB);
}

TEST(TuneController, FreshRetransmitsHalveQuantumAndInflight) {
  Policy policy = Policy::make_adaptive(1, test_defaults());
  Controller controller(test_controller_config(), nullptr);
  GlobalSignals global;
  global.retransmits = 5;  // fresh relative to the controller's zero start
  drive_poll(controller, policy, 1000, {0, 0, 2, 2 * 1_MiB, 0, 0}, global);
  EXPECT_EQ(policy.settings(0).pipeline_quantum, 64_KiB);
  EXPECT_EQ(policy.settings(0).inflight_depth, 4u);
  // Same cumulative count next poll: no longer "fresh", so additive
  // increase resumes.
  drive_poll(controller, policy, 2000, {0, 0, 2, 2 * 1_MiB, 0, 0}, global);
  EXPECT_EQ(policy.settings(0).pipeline_quantum, 64_KiB + 16_KiB);
  EXPECT_EQ(policy.settings(0).inflight_depth, 4u);
}

TEST(TuneController, ColdCacheHoldsQuantumGrowth) {
  Policy policy = Policy::make_adaptive(1, test_defaults());
  Controller controller(test_controller_config(), nullptr);
  GlobalSignals global;
  global.cache_hit_rate = 0.1;  // collapsed: halve instead of grow
  drive_poll(controller, policy, 1000, {0, 0, 2, 2 * 1_MiB, 0, 0}, global);
  EXPECT_EQ(policy.settings(0).pipeline_quantum, 64_KiB);
  // Inflight is untouched: cache pressure is a quantum signal only.
  EXPECT_EQ(policy.settings(0).inflight_depth, 8u);
}

TEST(TuneController, InflightGrowsByOneWhenSendsStallOnTheBudget) {
  Policy policy = Policy::make_adaptive(1, test_defaults());
  Controller controller(test_controller_config(), nullptr);
  drive_poll(controller, policy, 1000, {0, 0, 0, 0, 0, 2}, {});
  EXPECT_EQ(policy.settings(0).inflight_depth, 9u);
}

TEST(TuneController, IdleDestinationsAreLeftAlone) {
  Policy policy = Policy::make_adaptive(2, test_defaults());
  Controller controller(test_controller_config(), nullptr);
  GlobalSignals global;
  global.retransmits = 10;  // would halve knobs on any ACTIVE destination
  controller.poll(1000, policy, global);
  EXPECT_EQ(policy.settings(0), test_defaults());
  EXPECT_EQ(policy.settings(1), test_defaults());
  EXPECT_TRUE(controller.journal().empty());
}

TEST(TuneController, ThresholdPriorNeedsTwoPollsAndABandExit) {
  // 4 MiB-class traffic with a prior saying threshold 256 KiB (vs the
  // 16 KiB default): far outside the 25% band, so it flips — but only
  // after persisting for hysteresis_polls consecutive polls.
  DispatchEntry entry;
  entry.max_bytes = 4_MiB;
  entry.cell_payload = 0;
  entry.rendezvous_threshold = 256_KiB;
  entry.pipeline_quantum = 128_KiB;
  entry.inflight_depth = 8;
  const DispatchTable table({entry});

  Policy policy = Policy::make_adaptive(1, test_defaults());
  Controller controller(test_controller_config(), &table);
  const DestSignals traffic{0, 0, 2, 2 * 2_MiB, 0, 0};
  drive_poll(controller, policy, 1000, traffic, {});
  EXPECT_EQ(policy.settings(0).rendezvous_threshold, 16_KiB)
      << "one poll must not flip the threshold";
  drive_poll(controller, policy, 2000, traffic, {});
  EXPECT_EQ(policy.settings(0).rendezvous_threshold, 256_KiB);
  bool journaled = false;
  for (const Decision& d : controller.journal()) {
    if (d.knob == Decision::Knob::kThreshold) {
      EXPECT_STREQ(d.reason, "prior");
      EXPECT_EQ(d.to, 256_KiB);
      journaled = true;
    }
  }
  EXPECT_TRUE(journaled);
}

TEST(TuneController, ThresholdInsideTheHysteresisBandIsIgnored) {
  // Prior candidate within 25% of the current value: never applied, no
  // matter how many polls it persists.
  DispatchEntry entry;
  entry.max_bytes = 4_MiB;
  entry.rendezvous_threshold = 18_KiB;  // 16 KiB * 1.125, inside the band
  const DispatchTable table({entry});

  Policy policy = Policy::make_adaptive(1, test_defaults());
  Controller controller(test_controller_config(), &table);
  const DestSignals traffic{0, 0, 2, 2 * 2_MiB, 0, 0};
  for (int poll = 0; poll < 5; ++poll) {
    drive_poll(controller, policy, 1000 * (poll + 1), traffic, {});
  }
  EXPECT_EQ(policy.settings(0).rendezvous_threshold, 16_KiB);
}

TEST(TuneController, ThresholdPriorUsesTheMatchingCellRow) {
  // Two rows for the same class; the controller's cell_payload picks one.
  DispatchEntry row_4k;
  row_4k.max_bytes = 4_MiB;
  row_4k.cell_payload = 4_KiB;
  row_4k.rendezvous_threshold = 256_KiB;
  DispatchEntry row_64k = row_4k;
  row_64k.cell_payload = 64_KiB;
  row_64k.rendezvous_threshold = 512_KiB;
  const DispatchTable table({row_4k, row_64k});

  ControllerConfig config = test_controller_config();
  config.cell_payload = 64_KiB;
  Policy policy = Policy::make_adaptive(1, test_defaults());
  Controller controller(config, &table);
  const DestSignals traffic{0, 0, 2, 2 * 2_MiB, 0, 0};
  drive_poll(controller, policy, 1000, traffic, {});
  drive_poll(controller, policy, 2000, traffic, {});
  EXPECT_EQ(policy.settings(0).rendezvous_threshold, 512_KiB);
}

TEST(TuneController, PriorThresholdIsClampedToTheConfiguredMax) {
  DispatchEntry entry;
  entry.max_bytes = 4_MiB;
  entry.rendezvous_threshold = ~std::size_t{0};  // "rendezvous off" row
  const DispatchTable table({entry});

  ControllerConfig config = test_controller_config();
  config.max_threshold = 1_MiB;
  Policy policy = Policy::make_adaptive(1, test_defaults());
  Controller controller(config, &table);
  const DestSignals traffic{0, 0, 2, 2 * 2_MiB, 0, 0};
  drive_poll(controller, policy, 1000, traffic, {});
  drive_poll(controller, policy, 2000, traffic, {});
  EXPECT_EQ(policy.settings(0).rendezvous_threshold, 1_MiB)
      << "an eager-biased row must not disable rendezvous outright";
}

TEST(TuneController, DueFiresOnThePeriodOnly) {
  Controller controller(test_controller_config(), nullptr);
  Policy policy = Policy::make_adaptive(1, test_defaults());
  EXPECT_FALSE(controller.due(999));
  EXPECT_TRUE(controller.due(1000));
  controller.poll(1000, policy, {});
  EXPECT_FALSE(controller.due(1999));
  EXPECT_TRUE(controller.due(2000));
  EXPECT_EQ(controller.polls(), 1u);
}

// --------------------------------------------------------- Determinism

/// Replays a fixed synthetic signal script against a fresh controller and
/// returns the decision journal. Exploration ON: the point is that the
/// seeded jitter replays identically.
std::vector<Decision> journal_for_seed(std::uint64_t seed) {
  ControllerConfig config = test_controller_config();
  config.explore_prob = 0.3;
  config.seed = seed;
  Policy policy = Policy::make_adaptive(2, test_defaults());
  Controller controller(config, nullptr);
  Rng workload(7);  // fixed workload script, independent of the seed
  for (int poll = 0; poll < 64; ++poll) {
    for (int dst = 0; dst < 2; ++dst) {
      DestSignals& sig = policy.signals(dst);
      sig.eager_messages += workload.next_below(4);
      sig.eager_bytes += workload.next_below(4) * 8_KiB;
      sig.rdvz_messages += workload.next_below(3);
      sig.rdvz_bytes += workload.next_below(3) * 1_MiB;
      sig.ring_full += workload.next_below(2);
      sig.inflight_blocked += workload.next_below(2);
    }
    GlobalSignals global;
    global.retransmits = poll / 16;  // occasional fresh retransmit
    controller.poll(1000.0 * (poll + 1), policy, global);
  }
  return controller.journal();
}

TEST(TuneController, SameSeedReplaysTheSameDecisionJournal) {
  const std::vector<Decision> first = journal_for_seed(0xDEADBEEF);
  const std::vector<Decision> second = journal_for_seed(0xDEADBEEF);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "decision " << i;
  }
}

TEST(TuneSeed, ResolveSeedIsRankMixedAndStable) {
  TuneOptions options;
  options.seed = 1234;
  EXPECT_EQ(resolve_seed(options, 0), resolve_seed(options, 0));
  EXPECT_NE(resolve_seed(options, 0), resolve_seed(options, 1));
  TuneOptions other;
  other.seed = 5678;
  EXPECT_NE(resolve_seed(other, 0), resolve_seed(options, 0));
}

TEST(TuneOptionsResolution, ExplicitModeBeatsEnvironment) {
  TuneOptions options;
  options.mode = Tuning::kEnabled;
  EXPECT_TRUE(tuning_enabled(options));
  options.mode = Tuning::kDisabled;
  EXPECT_FALSE(tuning_enabled(options));
}

// --------------------------------------------------------- End to end

runtime::UniverseConfig adaptive_config() {
  runtime::UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.pool_size = 32_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  cfg.tune.mode = Tuning::kEnabled;
  cfg.tune.period_ns = 50'000;  // poll often relative to the traffic below
  cfg.tune.seed = 99;
  return cfg;
}

TEST(TuneEndToEnd, AdaptiveUniversePollsAndSplitsTrafficByPath) {
  runtime::Universe universe(adaptive_config());
  std::uint64_t polls = 0;
  std::uint64_t eager_msgs = 0;
  std::uint64_t rdvz_msgs = 0;
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const int peer = 1 - ctx.rank();
    std::vector<std::byte> small(1_KiB, std::byte{0x11});
    std::vector<std::byte> big(1_MiB, std::byte{0x22});
    for (int it = 0; it < 8; ++it) {
      if (ctx.rank() == 0) {
        check_ok(mpi.send(peer, 1, small));
        check_ok(mpi.send(peer, 2, big));
      } else {
        check_ok(mpi.recv(peer, 1, small).status());
        check_ok(mpi.recv(peer, 2, big).status());
      }
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      // Deterministic poll pump (see JournaledDecisions... below): step
      // past the period and let iprobe run the progress path once.
      ctx.clock().advance(4 * adaptive_config().tune.period_ns);
      (void)mpi.iprobe(peer, 1);
      const p2p::Endpoint& ep = mpi.endpoint();
      ASSERT_NE(ep.tune_controller(), nullptr);
      polls = ep.tune_controller()->polls();
      eager_msgs = ep.stats().eager_messages.load();
      rdvz_msgs = ep.stats().rendezvous_sent.load();
      // The adaptive policy is live: knob reads go through per-dest state.
      EXPECT_GE(ep.knobs(peer).pipeline_quantum,
                ep.tune_controller()->config().min_quantum);
    }
  });
  EXPECT_GT(polls, 0u) << "the progress path never polled the controller";
  EXPECT_EQ(eager_msgs, 8u);   // 1 KiB sends stay eager
  EXPECT_EQ(rdvz_msgs, 8u);    // 1 MiB sends go rendezvous
}

TEST(TuneEndToEnd, DisabledTuningHasNoControllerAndStaticKnobs) {
  runtime::UniverseConfig cfg = adaptive_config();
  cfg.tune.mode = Tuning::kDisabled;
  runtime::Universe universe(cfg);
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const int peer = 1 - ctx.rank();
    std::vector<std::byte> buf(64_KiB, std::byte{0x33});
    if (ctx.rank() == 0) {
      check_ok(mpi.send(peer, 5, buf));
    } else {
      check_ok(mpi.recv(peer, 5, buf).status());
    }
    const p2p::Endpoint& ep = mpi.endpoint();
    EXPECT_EQ(ep.tune_controller(), nullptr);
    EXPECT_EQ(ep.knobs(peer).rendezvous_threshold, ep.rendezvous_threshold());
  });
}

TEST(TuneEndToEnd, JournaledDecisionsStayInsideTheConfiguredBounds) {
  // Journal CONTENT determinism is pinned hermetically above (same seed +
  // same signal sequence => same journal); end-to-end, the poll count and
  // the deltas each poll sees depend on how often the progress loop spins
  // between doorbells, which host scheduling decides. What every run must
  // still produce is a well-formed journal: real transitions, known
  // reasons, values inside the controller's clamps.
  runtime::Universe universe(adaptive_config());
  std::vector<Decision> journal;
  ControllerConfig bounds;
  std::uint64_t polls = 0;
  std::uint64_t rdvz_sent = 0;
  std::uint64_t fallbacks = 0;
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const int peer = 1 - ctx.rank();
    std::vector<std::byte> big(2_MiB, std::byte{0x44});
    for (int it = 0; it < 6; ++it) {
      if (ctx.rank() == 0) {
        check_ok(mpi.send(peer, 9, big));
      } else {
        check_ok(mpi.recv(peer, 9, big).status());
      }
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      // Whether a poll fired DURING the sends depends on how often the
      // progress loop spun, which host scheduling decides. Pump one
      // explicitly: step past the period and iprobe (which runs
      // progress), so the controller is guaranteed to see the
      // accumulated rendezvous deltas at least once.
      ctx.clock().advance(4 * adaptive_config().tune.period_ns);
      (void)mpi.iprobe(peer, 9);
      journal = mpi.endpoint().tune_controller()->journal();
      bounds = mpi.endpoint().tune_controller()->config();
      polls = mpi.endpoint().tune_controller()->polls();
      rdvz_sent = mpi.endpoint().stats().rendezvous_sent.load();
      fallbacks = mpi.endpoint().stats().rendezvous_fallbacks.load();
    }
  });
  ASSERT_FALSE(journal.empty())
      << "pure rendezvous traffic must adapt (polls=" << polls
      << " rdvz_sent=" << rdvz_sent << " fallbacks=" << fallbacks << ")";
  for (const Decision& d : journal) {
    EXPECT_EQ(d.dst, 1);
    EXPECT_NE(d.from, d.to);
    const std::string reason = d.reason;
    EXPECT_TRUE(reason == "prior" || reason == "aimd-increase" ||
                reason == "backpressure" || reason == "inflight-stall" ||
                reason == "explore")
        << reason;
    if (d.knob == Decision::Knob::kQuantum) {
      EXPECT_GE(d.to, bounds.min_quantum);
      EXPECT_LE(d.to, bounds.max_quantum);
    } else if (d.knob == Decision::Knob::kInflight) {
      EXPECT_GE(d.to, bounds.min_inflight);
      EXPECT_LE(d.to, bounds.max_inflight);
    } else {
      EXPECT_GE(d.to, bounds.min_threshold);
      EXPECT_LE(d.to, bounds.max_threshold);
    }
  }
}

}  // namespace
}  // namespace cmpi::tune
