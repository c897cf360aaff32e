// Trace exporter schema: a real 2-process OSU-style workload (eager small
// messages + rendezvous large messages) is recorded and exported, then
// the Chrome trace_event JSON is validated — parseable, monotone per-tid
// timestamps, strictly matched B/E pairs, and pid/tid attribution that
// maps events to the node/rank that produced them. Plus the bounded-ring
// repairs: stray 'E' events whose 'B' was overwritten are dropped and
// still-open spans get a synthetic 'E'.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "json_lite.hpp"
#include "obs/obs.hpp"
#include "p2p/endpoint.hpp"

namespace cmpi::obs {
namespace {

class TraceSchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::instance().reset_for_test();
    Config config;
    config.trace = true;
    config.metrics = true;
    config.flight = false;
    configure(config);
  }
  void TearDown() override {
    configure(Config{});
    TraceRecorder::instance().reset_for_test();
  }
};

struct ParsedEvent {
  std::string phase;
  std::string name;
  double ts = 0;
  int pid = -1;
  int tid = -1;
};

std::vector<ParsedEvent> non_meta_events(const jsonlite::Value& doc) {
  std::vector<ParsedEvent> out;
  for (const jsonlite::Value& ev : doc.at("traceEvents").array) {
    const std::string phase = ev.at("ph").string;
    if (phase == "M") {
      continue;
    }
    ParsedEvent parsed;
    parsed.phase = phase;
    parsed.name = ev.at("name").string;
    parsed.ts = ev.at("ts").number;
    parsed.pid = static_cast<int>(ev.at("pid").number);
    parsed.tid = static_cast<int>(ev.at("tid").number);
    out.push_back(parsed);
  }
  return out;
}

TEST_F(TraceSchemaTest, TwoProcWorkloadExportsValidChromeTrace) {
  runtime::UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.pool_size = 64_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  cfg.cell_payload = 4_KiB;
  runtime::Universe universe(cfg);
  universe.run([&](runtime::RankCtx& ctx) {
    p2p::Endpoint ep = p2p::Endpoint::create(ctx);
    std::vector<std::byte> small(512, std::byte{0x11});      // eager
    std::vector<std::byte> large(64_KiB, std::byte{0x22});   // rendezvous
    if (ctx.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        check_ok(ep.send(1, i, small));
      }
      check_ok(ep.send(1, 100, large));
      std::vector<std::byte> ack(1);
      check_ok(ep.recv(1, 200, ack));
    } else {
      std::vector<std::byte> buf(64_KiB);
      for (int i = 0; i < 4; ++i) {
        check_ok(ep.recv(0, i, {buf.data(), 512}));
      }
      check_ok(ep.recv(0, 100, buf));
      check_ok(ep.send(0, 200, {buf.data(), 1}));
    }
  });

  std::ostringstream out;
  TraceRecorder::instance().write_chrome_json(out);
  const jsonlite::Value doc = jsonlite::parse(out.str());

  // Top-level shape.
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ns");

  // Metadata names both processes (nodes) and threads (ranks).
  std::set<std::pair<int, int>> meta_pid_tid;
  for (const jsonlite::Value& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").string == "M" &&
        ev.at("name").string == "thread_name") {
      meta_pid_tid.emplace(static_cast<int>(ev.at("pid").number),
                           static_cast<int>(ev.at("tid").number));
    }
  }
  const std::set<std::pair<int, int>> expected{{0, 0}, {1, 1}};
  EXPECT_EQ(meta_pid_tid, expected);

  const std::vector<ParsedEvent> events = non_meta_events(doc);
  ASSERT_FALSE(events.empty());

  // Attribution: with 1 rank per node, every event's pid (node) equals
  // its tid (rank), and both ranks contributed.
  std::set<int> tids;
  for (const ParsedEvent& ev : events) {
    EXPECT_EQ(ev.pid, ev.tid);
    tids.insert(ev.tid);
  }
  EXPECT_EQ(tids, (std::set<int>{0, 1}));

  // Monotone non-decreasing ts per tid; matched B/E pairs per tid.
  std::map<int, double> last_ts;
  std::map<int, std::vector<std::string>> open;
  for (const ParsedEvent& ev : events) {
    const auto it = last_ts.find(ev.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ev.ts, it->second)
          << "ts regressed on tid " << ev.tid << " at " << ev.name;
    }
    last_ts[ev.tid] = ev.ts;
    if (ev.phase == "B") {
      open[ev.tid].push_back(ev.name);
    } else if (ev.phase == "E") {
      ASSERT_FALSE(open[ev.tid].empty())
          << "unmatched E on tid " << ev.tid;
      open[ev.tid].pop_back();
    } else {
      EXPECT_EQ(ev.phase, "i") << "unexpected phase for " << ev.name;
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }

  // The workload mixed both protocols: rank 0's timeline has eager and
  // rendezvous send spans, rank 1's a receive.
  std::set<std::string> rank0_spans;
  std::set<std::string> rank1_names;
  for (const ParsedEvent& ev : events) {
    if (ev.tid == 0 && ev.phase == "B") {
      rank0_spans.insert(ev.name);
    }
    if (ev.tid == 1) {
      rank1_names.insert(ev.name);
    }
  }
  EXPECT_TRUE(rank0_spans.count("p2p.isend_eager") == 1)
      << "no eager send span on rank 0";
  EXPECT_TRUE(rank0_spans.count("p2p.isend_rdvz") == 1)
      << "no rendezvous send span on rank 0";
  EXPECT_TRUE(rank1_names.count("p2p.recv") == 1)
      << "no recv span on rank 1";
}

TEST_F(TraceSchemaTest, OverflowedRingDropsStrayEndsAndClosesOpenSpans) {
  TraceRecorder::instance().reset_for_test();
  TraceRecorder::instance().set_capacity(4);
  TraceRing& ring = TraceRecorder::instance().ring(0, 0);
  ring.append(TraceEvent{"span.lost", nullptr, 10, 0, 'B'});
  for (int i = 0; i < 6; ++i) {
    // Overwrites the 'B' above: its 'E' below becomes a stray.
    ring.append(TraceEvent{"noise", nullptr, 20.0 + i, 0, 'i'});
  }
  ring.append(TraceEvent{"span.lost", nullptr, 90, 0, 'E'});
  ring.append(TraceEvent{"span.open", nullptr, 95, 0, 'B'});
  EXPECT_GT(ring.dropped(), 0u);

  std::ostringstream out;
  TraceRecorder::instance().write_chrome_json(out);
  const jsonlite::Value doc = jsonlite::parse(out.str());
  int begins = 0;
  int ends = 0;
  for (const jsonlite::Value& ev : doc.at("traceEvents").array) {
    const std::string phase = ev.at("ph").string;
    begins += phase == "B" ? 1 : 0;
    ends += phase == "E" ? 1 : 0;
  }
  // The stray E was dropped; the open B got a synthetic E.
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST_F(TraceSchemaTest, SpanArgsRideOnBeginEvents) {
  TraceRecorder::instance().reset_for_test();
  simtime::VClock clock;
  RankScope scope(0, 0, &clock);
  {
    SpanGuard span("test.args", "bytes", 4096);
    clock.advance(50);
  }
  std::ostringstream out;
  TraceRecorder::instance().write_chrome_json(out);
  const jsonlite::Value doc = jsonlite::parse(out.str());
  bool found = false;
  for (const jsonlite::Value& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").string == "B" && ev.at("name").string == "test.args") {
      found = true;
      EXPECT_DOUBLE_EQ(ev.at("args").at("bytes").number, 4096);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace cmpi::obs
