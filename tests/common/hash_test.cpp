#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace cmpi {
namespace {

/// `prefix` followed by the decimal `i`. Built by appending: GCC 12's
/// -Wrestrict misfires on a one-character literal + std::to_string.
std::string numbered(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

TEST(Hash, Deterministic) {
  EXPECT_EQ(hash_string("rma_window_0"), hash_string("rma_window_0"));
  EXPECT_EQ(hash_string("x", 7), hash_string("x", 7));
}

TEST(Hash, SeedChangesValue) {
  EXPECT_NE(hash_string("object", 1), hash_string("object", 2));
}

TEST(Hash, DistinctKeysRarelyCollide) {
  std::set<std::uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.insert(hash_string("key_" + std::to_string(i)));
  }
  EXPECT_EQ(values.size(), 10000u);
}

TEST(Hash, SeedsActAsIndependentFunctions) {
  // Two keys that collide modulo a small bucket count under one seed
  // should usually not collide under another — the property multi-level
  // hashing needs. Statistical check over many pairs.
  constexpr std::uint64_t kBuckets = 101;
  int both_collide = 0;
  int first_collide = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string a = numbered("a", i);
    const std::string b = numbered("b", i);
    const bool c1 = hash_string(a, 1) % kBuckets == hash_string(b, 1) % kBuckets;
    const bool c2 = hash_string(a, 2) % kBuckets == hash_string(b, 2) % kBuckets;
    first_collide += c1 ? 1 : 0;
    both_collide += (c1 && c2) ? 1 : 0;
  }
  // ~2000/101 ≈ 20 first-level collisions expected; double collisions
  // should be ~20/101 — essentially never above a handful.
  EXPECT_GT(first_collide, 0);
  EXPECT_LT(both_collide, first_collide);
  EXPECT_LE(both_collide, 3);
}

TEST(Hash, U64Avalanche) {
  // Flipping one input bit should change roughly half the output bits.
  const std::uint64_t base = hash_u64(0x1234);
  const std::uint64_t flipped = hash_u64(0x1235);
  const int differing = __builtin_popcountll(base ^ flipped);
  EXPECT_GT(differing, 16);
  EXPECT_LT(differing, 48);
}

TEST(Hash, EmptyString) {
  // Must be well-defined and seed-dependent.
  EXPECT_NE(hash_string("", 1), hash_string("", 2));
}

}  // namespace
}  // namespace cmpi
