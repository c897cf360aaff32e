// tune subsystem: dispatch-table lookup, JSON round trip and row
// validation, CMPI_TUNE / CMPI_TUNE_TABLE resolution, and end-to-end runs
// in which each send takes the knobs of the table row covering its size.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/cmpi.hpp"
#include "runtime/universe.hpp"
#include "tune/dispatch_table.hpp"
#include "tune/tune.hpp"

namespace cmpi::tune {
namespace {

constexpr std::size_t kEagerOnly = ~std::size_t{0};

/// Sets an environment variable for one scope and restores it after, so
/// the binary run by hand (all cases in one process) stays hermetic too.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// A temp-dir path private to the running test and process: ctest runs
/// the cases in parallel, and one case's cleanup must not remove the file
/// another is reading.
std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + std::to_string(::getpid()) + ".json";
}

/// Writes `table` to a fresh temp file and returns its path.
std::string write_table(const DispatchTable& table) {
  const std::string path = temp_path("dispatch");
  std::ofstream out(path);
  table.save(out);
  return path;
}

// -------------------------------------------------------- DispatchTable

std::vector<DispatchEntry> two_cell_entries() {
  // Two cell geometries, two size classes each. Entries are sorted by
  // max_bytes by the DispatchTable constructor.
  DispatchEntry small_4k{64_KiB, 4_KiB, 16_KiB, 64_KiB, 4, 100.0};
  DispatchEntry large_4k{4_MiB, 4_KiB, 256_KiB, 256_KiB, 8, 200.0};
  DispatchEntry small_64k{64_KiB, 64_KiB, kEagerOnly, 128_KiB, 8, 300.0};
  DispatchEntry large_64k{4_MiB, 64_KiB, kEagerOnly, 128_KiB, 8, 400.0};
  return {small_4k, large_4k, small_64k, large_64k};
}

TEST(DispatchTable, EmptyTableLooksUpToNull) {
  const DispatchTable table;
  EXPECT_EQ(table.lookup(64_KiB, 4_KiB), nullptr);
}

TEST(DispatchTable, LookupPrefersRowsMatchingTheCellPayload) {
  const DispatchTable table(two_cell_entries());
  const DispatchEntry* hit = table.lookup(64_KiB, 64_KiB);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cell_payload, 64_KiB);
  EXPECT_EQ(hit->max_bytes, 64_KiB);
  hit = table.lookup(4_MiB, 4_KiB);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cell_payload, 4_KiB);
  EXPECT_EQ(hit->max_bytes, 4_MiB);
  // No other geometry's row stands in for a missing (class, cell).
  EXPECT_EQ(table.lookup(64_KiB, 8_KiB), nullptr);
  EXPECT_EQ(table.lookup(32_KiB, 4_KiB), nullptr);
}

TEST(DispatchTable, SaveLoadRoundTripsIncludingSizeMaxThreshold) {
  DispatchTable table(two_cell_entries());
  table.set_provenance({{"generator", "tune_test"}, {"resolution", "unit"}});
  std::ostringstream os;
  table.save(os);

  const std::string path = temp_path("dispatch_roundtrip");
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

TEST(DispatchTable, CommittedTableLoads) {
  const Result<DispatchTable> loaded =
      DispatchTable::load(CMPI_DISPATCH_TABLE_FILE);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_FALSE(loaded.value().empty());
}

TEST(DispatchTable, LoadRejectsRowsThatCannotDriveSends) {
  // Each case is one class object; a valid row loads, every other one
  // must fail naming its class, its cell and the field at fault.
  struct Case {
    const char* row;
    const char* field;  // nullptr: the row is valid
  };
  const Case cases[] = {
      {R"("cell_payload": 4096, "rendezvous_threshold": 16384,
          "pipeline_quantum": 65536, "inflight_depth": 4)",
       nullptr},
      {R"("cell_payload": 4096, "rendezvous_threshold": 18446744073709551615,
          "pipeline_quantum": 65536, "inflight_depth": 4)",
       nullptr},
      {R"("rendezvous_threshold": 16384, "pipeline_quantum": 65536,
          "inflight_depth": 4)",
       "cell_payload"},
      {R"("cell_payload": 4096, "pipeline_quantum": 65536,
          "inflight_depth": 4)",
       "rendezvous_threshold"},
      {R"("cell_payload": 4096, "rendezvous_threshold": 16384,
          "inflight_depth": 4)",
       "pipeline_quantum"},
      {R"("cell_payload": 4096, "rendezvous_threshold": 16384,
          "pipeline_quantum": 65536)",
       "inflight_depth"},
      {R"("cell_payload": 4096, "rendezvous_threshold": 0,
          "pipeline_quantum": 65536, "inflight_depth": 4)",
       "rendezvous_threshold"},
      {R"("cell_payload": 4096, "rendezvous_threshold": 100,
          "pipeline_quantum": 65536, "inflight_depth": 4)",
       "rendezvous_threshold"},
      {R"("cell_payload": 4096, "rendezvous_threshold": 16384,
          "pipeline_quantum": 1024, "inflight_depth": 4)",
       "pipeline_quantum"},
      {R"("cell_payload": 4096, "rendezvous_threshold": 16384,
          "pipeline_quantum": 33554432, "inflight_depth": 4)",
       "pipeline_quantum"},
      {R"("cell_payload": 4096, "rendezvous_threshold": 16384,
          "pipeline_quantum": 65536, "inflight_depth": 0)",
       "inflight_depth"},
      {R"("cell_payload": 4096, "rendezvous_threshold": 16384,
          "pipeline_quantum": 65536, "inflight_depth": 65)",
       "inflight_depth"},
  };
  const std::string path = temp_path("dispatch_malformed");
  for (const Case& c : cases) {
    {
      std::ofstream out(path);
      // A valid 16 KiB class first: one bad row fails the whole table.
      out << R"({"classes": [
        {"max_bytes": 16384, "cell_payload": 4096,
         "rendezvous_threshold": 65536, "pipeline_quantum": 65536,
         "inflight_depth": 4, "mbps": 1.0},
        {"max_bytes": 65536, )"
          << c.row << ", \"mbps\": 1.0}]}\n";
    }
    const Result<DispatchTable> loaded = DispatchTable::load(path);
    if (c.field == nullptr) {
      EXPECT_TRUE(loaded.is_ok()) << c.row << ": "
                                  << loaded.status().message();
      continue;
    }
    ASSERT_FALSE(loaded.is_ok()) << c.row;
    const std::string message = loaded.status().message();
    EXPECT_EQ(loaded.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(message.find("class 65536"), std::string::npos) << message;
    EXPECT_NE(message.find(c.field), std::string::npos) << message;
    if (std::string(c.field) != "cell_payload") {
      EXPECT_NE(message.find("@ cell 4096"), std::string::npos) << message;
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- Options resolution

TEST(TuneOptionsResolution, ExplicitModeBeatsEnvironment) {
  TuneOptions options;
  options.mode = Tuning::kEnabled;
  EXPECT_TRUE(tuning_enabled(options));
  options.mode = Tuning::kDisabled;
  EXPECT_FALSE(tuning_enabled(options));
}

TEST(TuneOptionsResolution, AutoFollowsTheTuneVariable) {
  const TuneOptions options;  // kAuto
  {
    const ScopedEnv env("CMPI_TUNE", nullptr);
    EXPECT_FALSE(tuning_enabled(options));
  }
  for (const char* off : {"", "0"}) {
    const ScopedEnv env("CMPI_TUNE", off);
    EXPECT_FALSE(tuning_enabled(options)) << "CMPI_TUNE='" << off << "'";
  }
  const ScopedEnv env("CMPI_TUNE", "1");
  EXPECT_TRUE(tuning_enabled(options));
  TuneOptions disabled;
  disabled.mode = Tuning::kDisabled;
  EXPECT_FALSE(tuning_enabled(disabled));
}

TEST(TuneOptionsResolution, TablePathFallsBackToTheTableVariable) {
  const std::string path = write_table(DispatchTable(two_cell_entries()));
  TuneOptions options;
  {
    const ScopedEnv env("CMPI_TUNE_TABLE", nullptr);
    EXPECT_EQ(shared_table(options), nullptr);
  }
  const ScopedEnv env("CMPI_TUNE_TABLE", path.c_str());
  const auto from_env = shared_table(options);
  ASSERT_NE(from_env, nullptr);
  EXPECT_EQ(from_env->entries(), DispatchTable(two_cell_entries()).entries());
  // An explicit path wins over the variable.
  options.table_path = "/nonexistent/dispatch_table.json";
  EXPECT_EQ(shared_table(options), nullptr);
  std::remove(path.c_str());
}

// --------------------------------------------------------- End to end

/// Rows for the 4 KiB cells the end-to-end universe runs: messages up to
/// 64 KiB stay eager, larger ones go rendezvous with a 64 KiB quantum.
/// The 64 KiB-cell row would send them all by rendezvous and must be
/// ignored.
DispatchTable e2e_table() {
  return DispatchTable({
      {64_KiB, 4_KiB, kEagerOnly, 64_KiB, 4, 0.0},
      {4_MiB, 4_KiB, 16_KiB, 64_KiB, 4, 0.0},
      {4_MiB, 64_KiB, 1_KiB, 128_KiB, 8, 0.0},
  });
}

runtime::UniverseConfig e2e_config(Tuning mode, const std::string& table) {
  runtime::UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.pool_size = 32_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  // Config knobs: threshold one cell (4 KiB), quantum 128 KiB.
  cfg.cell_payload = 4_KiB;
  cfg.tune.mode = mode;
  cfg.tune.table_path = table;
  return cfg;
}

/// What rank 0's endpoint did to send one message of `bytes` to rank 1.
struct SendOutcome {
  std::uint64_t eager = 0;
  std::uint64_t rendezvous = 0;
  /// Cells rank 0 published: one RTS descriptor per rendezvous segment.
  std::uint64_t cells = 0;
};

SendOutcome send_one(const runtime::UniverseConfig& cfg, std::size_t bytes) {
  runtime::Universe universe(cfg);
  SendOutcome outcome;
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    std::vector<std::byte> buf(bytes, std::byte{0x5A});
    ctx.barrier();
    const p2p::CommStats before = mpi.endpoint().stats();
    if (ctx.rank() == 0) {
      check_ok(mpi.send(1, 3, buf));
    } else {
      check_ok(mpi.recv(0, 3, buf).status());
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      const p2p::CommStats after = mpi.endpoint().stats();
      outcome.eager = after.eager_messages - before.eager_messages;
      outcome.rendezvous = after.rendezvous_sent - before.rendezvous_sent;
      outcome.cells = after.cells_published - before.cells_published;
    }
  });
  return outcome;
}

TEST(TuneEndToEnd, RowSayingEagerSendsEager) {
  const std::string table = write_table(e2e_table());
  // The config threshold (one 4 KiB cell) would send 32 KiB by rendezvous.
  const SendOutcome out =
      send_one(e2e_config(Tuning::kEnabled, table), 32_KiB);
  EXPECT_EQ(out.eager, 1u);
  EXPECT_EQ(out.rendezvous, 0u);
  std::remove(table.c_str());
}

TEST(TuneEndToEnd, RowSayingRendezvousSendsWithItsQuantum) {
  const std::string table = write_table(e2e_table());
  const SendOutcome out = send_one(e2e_config(Tuning::kEnabled, table), 1_MiB);
  EXPECT_EQ(out.eager, 0u);
  EXPECT_EQ(out.rendezvous, 1u);
  EXPECT_EQ(out.cells, 16u) << "1 MiB at the row's 64 KiB quantum";
  std::remove(table.c_str());
}

TEST(TuneEndToEnd, MessageBeyondEveryClassTakesTheLastRow) {
  const std::string table = write_table(e2e_table());
  runtime::Universe universe(e2e_config(Tuning::kEnabled, table));
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const p2p::Endpoint& ep = mpi.endpoint();
    EXPECT_EQ(ep.knobs(0).max_bytes, 64_KiB);
    EXPECT_EQ(ep.knobs(64_KiB).max_bytes, 64_KiB);
    EXPECT_EQ(ep.knobs(64_KiB + 1).max_bytes, 4_MiB);
    EXPECT_EQ(ep.knobs(16_MiB).max_bytes, 4_MiB);
    EXPECT_EQ(ep.knobs(16_MiB).rendezvous_threshold, 16_KiB);
  });
  std::remove(table.c_str());
}

/// Sends 32 KiB and 1 MiB under `cfg` and expects the config knobs: both
/// go rendezvous (threshold 4 KiB), the 1 MiB one in 128 KiB segments.
void expect_config_knobs(const runtime::UniverseConfig& cfg) {
  const SendOutcome mid = send_one(cfg, 32_KiB);
  EXPECT_EQ(mid.eager, 0u);
  EXPECT_EQ(mid.rendezvous, 1u);
  const SendOutcome large = send_one(cfg, 1_MiB);
  EXPECT_EQ(large.rendezvous, 1u);
  EXPECT_EQ(large.cells, 8u) << "1 MiB at the default 128 KiB quantum";
}

TEST(TuneEndToEnd, TableWithoutThisCellPayloadLeavesTheConfigKnobs) {
  DispatchTable other_cell(
      {{64_KiB, 64_KiB, kEagerOnly, 64_KiB, 4, 0.0},
       {4_MiB, 64_KiB, 16_KiB, 64_KiB, 4, 0.0}});
  const std::string table = write_table(other_cell);
  expect_config_knobs(e2e_config(Tuning::kEnabled, table));
  std::remove(table.c_str());
}

TEST(TuneEndToEnd, DisabledTuningLeavesTheConfigKnobs) {
  const std::string table = write_table(e2e_table());
  expect_config_knobs(e2e_config(Tuning::kDisabled, table));
  std::remove(table.c_str());
}

TEST(TuneEndToEnd, AutoModeTakesTheTableNamedInTheEnvironment) {
  const std::string table = write_table(e2e_table());
  const runtime::UniverseConfig cfg = e2e_config(Tuning::kAuto, "");
  const ScopedEnv table_env("CMPI_TUNE_TABLE", table.c_str());
  {
    const ScopedEnv tune_env("CMPI_TUNE", "1");
    const SendOutcome out = send_one(cfg, 32_KiB);
    EXPECT_EQ(out.eager, 1u) << "the table row keeps 32 KiB eager";
  }
  const ScopedEnv tune_env("CMPI_TUNE", nullptr);
  const SendOutcome out = send_one(cfg, 32_KiB);
  EXPECT_EQ(out.rendezvous, 1u) << "tuning off: the 4 KiB config threshold";
  std::remove(table.c_str());
}

}  // namespace
}  // namespace cmpi::tune
