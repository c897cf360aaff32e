// UniverseConfig knob validation: out-of-range knobs come back as
// kInvalidArgument naming the offending field, and Universe's constructor
// throws with the same message.
#include "runtime/config_validate.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/units.hpp"
#include "runtime/universe.hpp"

namespace cmpi::runtime {
namespace {

UniverseConfig valid_config() {
  UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  cfg.pool_size = 32_MiB;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 61;
  return cfg;
}

TEST(ConfigValidate, DefaultsAreValid) {
  EXPECT_TRUE(validate(valid_config()).is_ok());
}

TEST(ConfigValidate, SentinelKnobValuesAreValid) {
  UniverseConfig cfg = valid_config();
  cfg.rendezvous_threshold = ~std::size_t{0};  // rendezvous off
  EXPECT_TRUE(validate(cfg).is_ok());
  cfg.rendezvous_threshold = 512;  // the documented minimum
  EXPECT_TRUE(validate(cfg).is_ok());
}

TEST(ConfigValidate, TinyRendezvousThresholdNamesTheField) {
  UniverseConfig cfg = valid_config();
  cfg.rendezvous_threshold = 100;
  const Status status = validate(cfg);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("rendezvous_threshold"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("100"), std::string::npos)
      << "the message must quote the offending value";
}

TEST(ConfigValidate, UniverseConstructorThrowsWithTheValidationMessage) {
  UniverseConfig cfg = valid_config();
  cfg.rendezvous_threshold = 100;
  try {
    Universe universe(cfg);
    FAIL() << "Universe must reject an invalid config";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("rendezvous_threshold"),
              std::string::npos)
        << err.what();
  }
}

TEST(ConfigValidate, UniverseConstructorAcceptsExplicitKnobs) {
  UniverseConfig cfg = valid_config();
  cfg.rendezvous_threshold = 64_KiB;
  EXPECT_NO_THROW({ Universe universe(cfg); });
}

}  // namespace
}  // namespace cmpi::runtime
