#include "arena/multilevel_hash.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/primes.hpp"

namespace cmpi::arena {
namespace {

/// `prefix` followed by the decimal `i`. Built by appending: GCC 12's
/// -Wrestrict misfires on a one-character literal + std::to_string.
std::string numbered(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

TEST(MultilevelHash, LevelCountsAreDistinctDescendingPrimes) {
  const auto index = check_ok(MultilevelHash::create(5, 1000));
  ASSERT_EQ(index.levels(), 5u);
  std::size_t prev = 1001;
  for (std::size_t l = 0; l < 5; ++l) {
    const std::size_t count = index.level_buckets(l);
    EXPECT_TRUE(is_prime(count));
    EXPECT_LT(count, prev);
    prev = count;
  }
}

TEST(MultilevelHash, PaperConfigMatchesSection37) {
  const auto index = MultilevelHash::paper_config();
  EXPECT_EQ(index.levels(), 10u);
  EXPECT_EQ(index.level_buckets(0), 199999u);
  EXPECT_EQ(index.level_buckets(9), 199873u);
  EXPECT_EQ(index.total_slots(), 1999260u);
}

TEST(MultilevelHash, TotalSlotsIsSumOfLevels) {
  const auto index = check_ok(MultilevelHash::create(4, 100));
  std::size_t sum = 0;
  for (std::size_t l = 0; l < 4; ++l) {
    sum += index.level_buckets(l);
  }
  EXPECT_EQ(index.total_slots(), sum);
}

TEST(MultilevelHash, SlotsAreWithinLevelRanges) {
  const auto index = check_ok(MultilevelHash::create(3, 50));
  std::size_t level_start = 0;
  for (std::size_t l = 0; l < 3; ++l) {
    for (int k = 0; k < 100; ++k) {
      const std::size_t slot = index.slot_of("key" + std::to_string(k), l);
      EXPECT_GE(slot, level_start);
      EXPECT_LT(slot, level_start + index.level_buckets(l));
    }
    level_start += index.level_buckets(l);
  }
}

TEST(MultilevelHash, ProbeSequenceIsOnePerLevel) {
  const auto index = check_ok(MultilevelHash::create(6, 500));
  const auto seq = index.probe_sequence("window_7");
  ASSERT_EQ(seq.size(), 6u);
  std::set<std::size_t> unique(seq.begin(), seq.end());
  // Probes live in disjoint level ranges, so they are all distinct.
  EXPECT_EQ(unique.size(), 6u);
}

TEST(MultilevelHash, Deterministic) {
  const auto a = check_ok(MultilevelHash::create(4, 200));
  const auto b = check_ok(MultilevelHash::create(4, 200));
  EXPECT_EQ(a.probe_sequence("obj"), b.probe_sequence("obj"));
}

TEST(MultilevelHash, LevelsUseIndependentHashes) {
  // Keys colliding at level 0 should usually separate at level 1.
  const auto index = check_ok(MultilevelHash::create(2, 101));
  int level0_collisions = 0;
  int both_collide = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string a = numbered("x", i);
    const std::string b = numbered("y", i);
    if (index.slot_of(a, 0) == index.slot_of(b, 0)) {
      ++level0_collisions;
      if (index.slot_of(a, 1) == index.slot_of(b, 1)) {
        ++both_collide;
      }
    }
  }
  EXPECT_GT(level0_collisions, 0);
  EXPECT_LT(both_collide, level0_collisions);
}

TEST(MultilevelHash, RejectsDegenerateParams) {
  EXPECT_FALSE(MultilevelHash::create(0, 100).is_ok());
  EXPECT_FALSE(MultilevelHash::create(4, 3).is_ok());
}

}  // namespace
}  // namespace cmpi::arena
