#include "cxlsim/cache_sim.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"

namespace cmpi::cxlsim {
namespace {

class CacheSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = check_ok(DaxDevice::create(4 * kDaxAlignment));
    node_a_ = std::make_unique<CacheSim>(*device_);
    node_b_ = std::make_unique<CacheSim>(*device_);
  }

  std::vector<std::byte> bytes(std::initializer_list<int> values) {
    std::vector<std::byte> out;
    for (const int v : values) {
      out.push_back(static_cast<std::byte>(v));
    }
    return out;
  }

  std::byte pool_at(std::uint64_t offset) { return device_->pool()[offset]; }

  std::unique_ptr<DaxDevice> device_;
  std::unique_ptr<CacheSim> node_a_;
  std::unique_ptr<CacheSim> node_b_;
};

TEST_F(CacheSimTest, WriteStaysInCacheUntilFlushed) {
  const auto data = bytes({1, 2, 3, 4});
  node_a_->write(128, data);
  // The pool has NOT been updated: this is the coherence hazard.
  EXPECT_EQ(std::to_integer<int>(pool_at(128)), 0);
  node_a_->clflush(128, data.size());
  EXPECT_EQ(std::to_integer<int>(pool_at(128)), 1);
  EXPECT_EQ(std::to_integer<int>(pool_at(131)), 4);
}

TEST_F(CacheSimTest, RemoteNodeSeesStaleDataWithoutInvalidate) {
  // Node B caches the line while it is zero.
  std::byte before[4];
  node_b_->read(256, before);
  EXPECT_EQ(std::to_integer<int>(before[0]), 0);

  // Node A writes and flushes.
  const auto data = bytes({42, 43, 44, 45});
  node_a_->write(256, data);
  node_a_->clflush(256, data.size());
  EXPECT_EQ(std::to_integer<int>(pool_at(256)), 42);

  // B still reads its stale cached copy.
  std::byte stale[4];
  node_b_->read(256, stale);
  EXPECT_EQ(std::to_integer<int>(stale[0]), 0);

  // After invalidating, B sees A's update.
  node_b_->clflush(256, 4);
  std::byte fresh[4];
  node_b_->read(256, fresh);
  EXPECT_EQ(std::to_integer<int>(fresh[0]), 42);
  EXPECT_EQ(std::to_integer<int>(fresh[3]), 45);
}

TEST_F(CacheSimTest, PartialLineWriteMergesWithPoolContents) {
  // Pre-existing pool data written by B.
  const auto base = bytes({9, 9, 9, 9, 9, 9, 9, 9});
  node_b_->nt_store(512, base);
  // A writes only bytes 2..3 (write-allocate must fill first).
  const auto patch = bytes({7, 7});
  node_a_->write(514, patch);
  node_a_->clflush(514, 2);
  EXPECT_EQ(std::to_integer<int>(pool_at(512)), 9);
  EXPECT_EQ(std::to_integer<int>(pool_at(514)), 7);
  EXPECT_EQ(std::to_integer<int>(pool_at(515)), 7);
  EXPECT_EQ(std::to_integer<int>(pool_at(516)), 9);
}

TEST_F(CacheSimTest, ClwbWritesBackButKeepsLineValid) {
  const auto data = bytes({5});
  node_a_->write(1024, data);
  const auto result = node_a_->clwb(1024, 1);
  EXPECT_EQ(result.lines_written_back, 1u);
  EXPECT_EQ(std::to_integer<int>(pool_at(1024)), 5);
  // Subsequent read must be a hit (line still valid).
  const auto before = node_a_->stats();
  std::byte out[1];
  node_a_->read(1024, out);
  const auto after = node_a_->stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(CacheSimTest, ClflushInvalidates) {
  const auto data = bytes({5});
  node_a_->write(1024, data);
  node_a_->clflush(1024, 1);
  const auto before = node_a_->stats();
  std::byte out[1];
  node_a_->read(1024, out);
  const auto after = node_a_->stats();
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST_F(CacheSimTest, FlushResultCountsSpannedLines) {
  node_a_->write(0, std::vector<std::byte>(200, std::byte{1}));
  const auto result = node_a_->clflush(0, 200);
  EXPECT_EQ(result.lines_touched, 4u);  // 200 bytes from offset 0: 4 lines
  EXPECT_EQ(result.lines_written_back, 4u);
}

TEST_F(CacheSimTest, FlushOfUncachedRangeWritesNothingBack) {
  const auto result = node_a_->clflush(8192, 256);
  EXPECT_EQ(result.lines_touched, 4u);
  EXPECT_EQ(result.lines_written_back, 0u);
}

TEST_F(CacheSimTest, ZeroSizeFlushIsNoop) {
  const auto result = node_a_->clflush(0, 0);
  EXPECT_EQ(result.lines_touched, 0u);
}

TEST_F(CacheSimTest, CapacityEvictionWritesBackDirtyLines) {
  CacheSim tiny(*device_, CacheSim::Geometry{.sets = 2, .ways = 2});
  // Dirty far more lines than the cache holds.
  for (std::uint64_t i = 0; i < 64; ++i) {
    tiny.write(i * kCacheLineSize, bytes({static_cast<int>(i + 1)}));
  }
  const auto stats = tiny.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.writebacks, 0u);
  // Evicted lines reached the pool; at most sets*ways remain cached.
  int in_pool = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (std::to_integer<int>(pool_at(i * kCacheLineSize)) ==
        static_cast<int>(i + 1)) {
      ++in_pool;
    }
  }
  EXPECT_GE(in_pool, 60);  // all but the (<=4) still-cached lines
}

TEST_F(CacheSimTest, NtStoreImmediatelyVisibleInPool) {
  node_a_->nt_store(2048, bytes({11, 12}));
  EXPECT_EQ(std::to_integer<int>(pool_at(2048)), 11);
  EXPECT_EQ(std::to_integer<int>(pool_at(2049)), 12);
}

TEST_F(CacheSimTest, NtStoreEvictsStaleCachedCopy) {
  // A caches the line.
  std::byte tmp[1];
  node_a_->read(4096, tmp);
  // A NT-stores new data; its own later cached read must see it.
  node_a_->nt_store(4096, bytes({77}));
  std::byte out[1];
  node_a_->read(4096, out);
  EXPECT_EQ(std::to_integer<int>(out[0]), 77);
}

TEST_F(CacheSimTest, NtLoadBypassesCacheAndSeesPool) {
  // B caches stale zero.
  std::byte tmp[1];
  node_b_->read(4160, tmp);
  node_a_->nt_store(4160, bytes({99}));
  // Cached read on B is stale, NT load is fresh.
  std::byte cached[1];
  node_b_->read(4160, cached);
  EXPECT_EQ(std::to_integer<int>(cached[0]), 0);
  std::byte fresh[1];
  node_b_->nt_load(4160, fresh);
  EXPECT_EQ(std::to_integer<int>(fresh[0]), 99);
}

TEST_F(CacheSimTest, NtLoadReturnsOwnDirtyData) {
  node_a_->write(4224, bytes({55}));
  std::byte out[1];
  node_a_->nt_load(4224, out);
  // The node's coherent domain satisfies the load with the dirty line.
  EXPECT_EQ(std::to_integer<int>(out[0]), 55);
}

TEST_F(CacheSimTest, NtU64RoundTrip) {
  node_a_->nt_store_u64(4352, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(node_b_->nt_load_u64(4352), 0xDEADBEEFCAFEF00DULL);
}

TEST_F(CacheSimTest, MemsetThroughCache) {
  node_a_->memset(8192, std::byte{0xEE}, 300);
  EXPECT_EQ(std::to_integer<int>(pool_at(8192)), 0);  // not yet flushed
  node_a_->clflush(8192, 300);
  for (std::uint64_t i = 0; i < 300; ++i) {
    EXPECT_EQ(std::to_integer<int>(pool_at(8192 + i)), 0xEE);
  }
  EXPECT_EQ(std::to_integer<int>(pool_at(8192 + 300)), 0);
}

TEST_F(CacheSimTest, FalseSharingAcrossNodesLosesData) {
  // Nodes A and B write different halves of the SAME cache line, then both
  // flush. Whole-line write-back means the later flush clobbers the
  // earlier one — the hazard that motivates the paper's cacheline-aligned
  // object layout (§3.7).
  node_a_->write(8448, bytes({1, 1}));       // bytes 0-1 of the line
  node_b_->write(8448 + 32, bytes({2, 2}));  // bytes 32-33 of the line
  node_a_->clflush(8448, 2);
  node_b_->clflush(8448 + 32, 2);
  // B's write-back contained a stale zero prefix: A's data is gone.
  EXPECT_EQ(std::to_integer<int>(pool_at(8448)), 0);
  EXPECT_EQ(std::to_integer<int>(pool_at(8448 + 32)), 2);
}

TEST_F(CacheSimTest, WritebackAllFlushesEverything) {
  for (int i = 0; i < 10; ++i) {
    node_a_->write(16384 + i * 64, bytes({i + 1}));
  }
  node_a_->writeback_all();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(std::to_integer<int>(pool_at(16384 + i * 64)), i + 1);
  }
}

TEST_F(CacheSimTest, DropAllDiscardsDirtyData) {
  node_a_->write(32768, bytes({9}));
  node_a_->drop_all();
  std::byte out[1];
  node_a_->read(32768, out);
  EXPECT_EQ(std::to_integer<int>(out[0]), 0);  // dirty data was lost
}

TEST_F(CacheSimTest, FreshCacheExposesNoStaleStorage) {
  constexpr std::uint64_t kBase = 65536;
  constexpr std::size_t kSpan = 64 * kCacheLineSize;
  // Leave valid-looking dirty lines in memory the allocator may hand to
  // the next cache.
  {
    CacheSim used(*device_);
    used.write(kBase, std::vector<std::byte>(kSpan, std::byte{0xFF}));
    used.drop_all();
  }
  std::memset(device_->pool().data() + kBase, 0x5A, kSpan);
  CacheSim fresh(*device_);
  fresh.writeback_all();
  fresh.drop_all();
  EXPECT_EQ(fresh.stats().writebacks, 0u);
  std::vector<std::byte> got(kSpan);
  fresh.nt_load(kBase, got);
  EXPECT_EQ(got, std::vector<std::byte>(kSpan, std::byte{0x5A}));
  for (std::uint64_t at = kBase; at < kBase + kSpan; at += kCacheLineSize) {
    std::byte out[1];
    fresh.read(at, out);
    EXPECT_EQ(std::to_integer<int>(out[0]), 0x5A) << "line at " << at;
  }
  EXPECT_EQ(fresh.stats().misses, kSpan / kCacheLineSize);
  EXPECT_EQ(fresh.stats().hits, 0u);
  for (std::uint64_t i = 0; i < kSpan; ++i) {
    ASSERT_EQ(std::to_integer<int>(pool_at(kBase + i)), 0x5A) << "byte " << i;
  }
}

TEST_F(CacheSimTest, DiscardDropsOwnCopiesWithoutWriteBack) {
  node_a_->write(16384, bytes({7}));  // inside the range, dirty
  node_a_->write(20480, bytes({8}));  // just past it, dirty
  node_a_->discard(16384, 4096);
  EXPECT_EQ(node_a_->stats().writebacks, 0u);
  node_a_->writeback_all();
  EXPECT_EQ(node_a_->stats().writebacks, 1u);
  EXPECT_EQ(std::to_integer<int>(pool_at(16384)), 0);
  EXPECT_EQ(std::to_integer<int>(pool_at(20480)), 8);
}

TEST_F(CacheSimTest, RandomizedAgainstReferenceWithFlushDiscipline) {
  // Property: if every write is followed by clflush and every read is
  // preceded by clflush (the §3.5 discipline), a single node's view always
  // matches a flat reference buffer.
  constexpr std::uint64_t kBase = 65536;
  constexpr std::size_t kSpan = 2048;
  std::vector<std::byte> reference(kSpan, std::byte{0});
  Rng rng(1234);
  for (int step = 0; step < 500; ++step) {
    const std::size_t offset = rng.next_below(kSpan - 1);
    const std::size_t size = 1 + rng.next_below(
        std::min<std::uint64_t>(kSpan - offset, 200) - 1 + 1);
    if (rng.next_bool(0.5)) {
      std::vector<std::byte> data(size);
      for (auto& b : data) {
        b = static_cast<std::byte>(rng.next_below(256));
      }
      node_a_->write(kBase + offset, data);
      node_a_->clflush(kBase + offset, size);
      std::memcpy(reference.data() + offset, data.data(), size);
    } else {
      node_b_->clflush(kBase + offset, size);
      std::vector<std::byte> got(size);
      node_b_->read(kBase + offset, got);
      ASSERT_EQ(std::memcmp(got.data(), reference.data() + offset, size), 0)
          << "step " << step;
    }
  }
}

}  // namespace
}  // namespace cmpi::cxlsim
