#include "arena/arena.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/align.hpp"
#include "common/units.hpp"
#include "cxlsim/coherence_checker.hpp"

namespace cmpi::arena {
namespace {

/// `prefix` followed by the decimal `i`. Built by appending: GCC 12's
/// -Wrestrict misfires on a one-character literal + std::to_string.
std::string numbered(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

class ArenaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = check_ok(cxlsim::DaxDevice::create(16_MiB));
    cache_ = std::make_unique<cxlsim::CacheSim>(*device_);
    acc_ = std::make_unique<cxlsim::Accessor>(*device_, *cache_, clock_);
  }

  Arena::Params small_params() {
    Arena::Params p;
    p.levels = 4;
    p.level1_buckets = 61;
    p.max_participants = 8;
    return p;
  }

  Arena make_arena() {
    return check_ok(
        Arena::format(*acc_, 0, 4_MiB, /*participant=*/0, small_params()));
  }

  simtime::VClock clock_;
  std::unique_ptr<cxlsim::DaxDevice> device_;
  std::unique_ptr<cxlsim::CacheSim> cache_;
  std::unique_ptr<cxlsim::Accessor> acc_;
};

TEST_F(ArenaTest, FormatAndAttach) {
  Arena a = make_arena();
  EXPECT_EQ(a.index().levels(), 4u);
  Arena b = check_ok(Arena::attach(*acc_, 0, 1));
  EXPECT_EQ(b.index().levels(), 4u);
  EXPECT_EQ(b.objects_offset(), a.objects_offset());
}

TEST_F(ArenaTest, AttachToUnformattedBaseFails) {
  EXPECT_EQ(Arena::attach(*acc_, 8_MiB, 0).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(ArenaTest, CreateReturnsAlignedObject) {
  Arena a = make_arena();
  const auto handle = check_ok(a.create("queue_0", 100));
  EXPECT_EQ(handle.size, 100u);
  EXPECT_TRUE(is_aligned(handle.arena_offset, kCacheLineSize));
  EXPECT_EQ(handle.pool_offset, a.base() + handle.arena_offset);
  EXPECT_GE(handle.arena_offset, a.objects_offset());
}

TEST_F(ArenaTest, CreateDuplicateFails) {
  Arena a = make_arena();
  auto h = check_ok(a.create("dup", 64));
  EXPECT_EQ(a.create("dup", 64).status().code(), ErrorCode::kAlreadyExists);
  check_ok(a.destroy(h));
}

TEST_F(ArenaTest, OpenFindsCreatedObject) {
  Arena a = make_arena();
  const auto created = check_ok(a.create("rma_window", 4096));
  auto opened = check_ok(a.open("rma_window"));
  EXPECT_EQ(opened.arena_offset, created.arena_offset);
  EXPECT_EQ(opened.size, 4096u);
}

TEST_F(ArenaTest, OpenMissingObjectFails) {
  Arena a = make_arena();
  EXPECT_EQ(a.open("ghost").status().code(), ErrorCode::kNotFound);
}

TEST_F(ArenaTest, OpenFromAnotherNodeSeesObject) {
  Arena a = make_arena();
  check_ok(a.create("shared", 256));

  // A different node: own cache, own accessor, attach to same base.
  simtime::VClock clock_b;
  cxlsim::CacheSim cache_b(*device_);
  cxlsim::Accessor acc_b(*device_, cache_b, clock_b);
  Arena b = check_ok(Arena::attach(acc_b, 0, 1));
  const auto handle = check_ok(b.open("shared"));
  EXPECT_EQ(handle.size, 256u);
}

TEST_F(ArenaTest, DestroyMakesNameReusableAndReclaimsSpace) {
  Arena a = make_arena();
  const std::uint64_t before = a.free_bytes();
  auto h = check_ok(a.create("temp", 1000));
  EXPECT_LT(a.free_bytes(), before);
  check_ok(a.destroy(h));
  EXPECT_EQ(a.free_bytes(), before);
  EXPECT_EQ(a.open("temp").status().code(), ErrorCode::kNotFound);
  auto h2 = check_ok(a.create("temp", 1000));  // name reusable
  check_ok(a.destroy(h2));
}

TEST_F(ArenaTest, CloseDropsReference) {
  Arena a = make_arena();
  auto h = check_ok(a.create("obj", 64));
  auto h2 = check_ok(a.open("obj"));
  check_ok(a.close(h2));
  EXPECT_EQ(a.close(h2).code(), ErrorCode::kClosed);  // double close
  check_ok(a.destroy(h));
}

TEST_F(ArenaTest, DestroyTwiceFails) {
  Arena a = make_arena();
  auto h = check_ok(a.create("obj", 64));
  auto h2 = check_ok(a.open("obj"));
  check_ok(a.destroy(h));
  EXPECT_EQ(a.destroy(h2).code(), ErrorCode::kNotFound);
}

TEST_F(ArenaTest, RejectsBadNames) {
  Arena a = make_arena();
  EXPECT_EQ(a.create("", 64).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(a.create(std::string(Arena::kMaxNameLen + 1, 'x'), 64)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(a.create("ok", 0).status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(ArenaTest, MaxLengthNameWorks) {
  Arena a = make_arena();
  const std::string name(Arena::kMaxNameLen, 'n');
  auto h = check_ok(a.create(name, 64));
  auto o = check_ok(a.open(name));
  EXPECT_EQ(o.arena_offset, h.arena_offset);
}

TEST_F(ArenaTest, ExhaustionReportsOutOfMemory) {
  Arena a = make_arena();
  std::vector<ObjectHandle> handles;
  for (int i = 0;; ++i) {
    auto r = a.create("big" + std::to_string(i), 1_MiB);
    if (!r.is_ok()) {
      EXPECT_EQ(r.status().code(), ErrorCode::kOutOfMemory);
      break;
    }
    handles.push_back(std::move(r).value());
    ASSERT_LT(i, 100) << "allocator never exhausted";
  }
  for (auto& h : handles) {
    check_ok(a.destroy(h));
  }
}

TEST_F(ArenaTest, HashCapacityExceededWhenAllLevelsTaken) {
  // With 4 levels a name has 4 candidate slots; filling the arena with
  // many names must eventually hit per-name capacity, not loop forever.
  Arena::Params tiny;
  tiny.levels = 2;
  tiny.level1_buckets = 5;  // levels: 5 + 3 = 8 slots total
  tiny.max_participants = 2;
  Arena a = check_ok(Arena::format(*acc_, 8_MiB, 1_MiB, 0, tiny));
  int created = 0;
  bool saw_capacity = false;
  for (int i = 0; i < 64 && !saw_capacity; ++i) {
    auto r = a.create(numbered("o", i), 64);
    if (r.is_ok()) {
      ++created;
    } else {
      EXPECT_EQ(r.status().code(), ErrorCode::kCapacityExceeded);
      saw_capacity = true;
    }
  }
  EXPECT_TRUE(saw_capacity);
  EXPECT_LE(created, 8);
  EXPECT_GT(created, 0);
}

TEST_F(ArenaTest, FormatOverRecycledRegionReadsClean) {
  // A recycled region (a departed tenant's, say) still holds old bytes,
  // and the formatting node may still cache one of its lines dirty.
  cxlsim::CoherenceChecker& checker = device_->enable_coherence_checker();
  Arena::Params tiny;
  tiny.levels = 2;
  tiny.level1_buckets = 5;  // levels: 5 + 3 = 8 slots total
  tiny.max_participants = 2;
  const auto create_all = [](Arena& a) {
    int created = 0;
    for (int i = 0; i < 64; ++i) {
      created += a.create(numbered("o", i), 64).is_ok() ? 1 : 0;
    }
    return created;
  };
  Arena fresh = check_ok(Arena::format(*acc_, 8_MiB, 1_MiB, 0, tiny));
  const int capacity = create_all(fresh);
  ASSERT_GT(capacity, 0);

  // Every word of the old table reads as a used slot (status 1), and the
  // last slot's first line is dirty in this node's cache.
  const std::uint64_t table_end = Arena::metadata_footprint(tiny);
  const std::vector<std::uint64_t> garbage(table_end / 8, 1);
  acc_->nt_store(0, std::as_bytes(std::span(garbage)));
  const std::uint64_t dirty_line = table_end - 128;
  acc_->store(dirty_line, std::as_bytes(std::span(garbage).first(8)));

  Arena a = check_ok(Arena::format(*acc_, 0, 1_MiB, 0, tiny));
  cache_->writeback_all();
  for (std::uint64_t i = 0; i < kCacheLineSize; ++i) {
    ASSERT_EQ(std::to_integer<int>(device_->pool()[dirty_line + i]), 0)
        << "byte " << i << " of the dirty line came back";
  }
  EXPECT_EQ(a.used_slots(), 0u);
  EXPECT_EQ(a.open("o0").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(create_all(a), capacity);
  EXPECT_EQ(checker.total_violations(), 0u) << checker.summary_string();
}

TEST_F(ArenaTest, FreeListCoalescesAdjacentBlocks) {
  Arena a = make_arena();
  const std::uint64_t baseline = a.free_bytes();
  auto h1 = check_ok(a.create("a", 64_KiB));
  auto h2 = check_ok(a.create("b", 64_KiB));
  auto h3 = check_ok(a.create("c", 64_KiB));
  // Free middle, then left, then right: must coalesce back to one block
  // able to satisfy the original span.
  check_ok(a.destroy(h2));
  check_ok(a.destroy(h1));
  check_ok(a.destroy(h3));
  EXPECT_EQ(a.free_bytes(), baseline);
  auto big = check_ok(a.create("big", 192_KiB));
  check_ok(a.destroy(big));
}

TEST_F(ArenaTest, ObjectDataSurvivesOtherAllocations) {
  Arena a = make_arena();
  auto h = check_ok(a.create("data", 128));
  const std::byte payload[4] = {std::byte{0xAA}, std::byte{0xBB},
                                std::byte{0xCC}, std::byte{0xDD}};
  acc_->coherent_write(h.pool_offset, payload);
  for (int i = 0; i < 20; ++i) {
    auto t = check_ok(a.create("noise" + std::to_string(i), 4096));
    check_ok(a.destroy(t));
  }
  std::byte got[4];
  acc_->coherent_read(h.pool_offset, got);
  EXPECT_EQ(std::memcmp(got, payload, 4), 0);
}

TEST_F(ArenaTest, UsedSlotsTracksLiveObjects) {
  Arena a = make_arena();
  EXPECT_EQ(a.used_slots(), 0u);
  auto h1 = check_ok(a.create("x", 64));
  auto h2 = check_ok(a.create("y", 64));
  EXPECT_EQ(a.used_slots(), 2u);
  check_ok(a.destroy(h1));
  EXPECT_EQ(a.used_slots(), 1u);
  check_ok(a.destroy(h2));
}

TEST_F(ArenaTest, TooSmallArenaRejected) {
  Arena::Params p = small_params();
  EXPECT_FALSE(Arena::format(*acc_, 0, 1024, 0, p).is_ok());
}

TEST_F(ArenaTest, MetadataFootprintIsConsistent) {
  const auto p = small_params();
  Arena a = make_arena();
  EXPECT_GE(a.objects_offset(), Arena::metadata_footprint(p) -
                                    kCacheLineSize);
  EXPECT_LE(a.objects_offset(), Arena::metadata_footprint(p) +
                                    kCacheLineSize);
}

TEST_F(ArenaTest, ConcurrentCreatesFromManyNodes) {
  // Each thread is a rank on its own node creating distinct objects; all
  // creations must succeed and be mutually visible afterwards.
  Arena bootstrap = make_arena();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      simtime::VClock clock;
      cxlsim::CacheSim cache(*device_);
      cxlsim::Accessor acc(*device_, cache, clock);
      Arena arena = check_ok(Arena::attach(acc, 0, t + 1));
      for (int i = 0; i < kPerThread; ++i) {
        check_ok(arena.create(numbered("t", t) + numbered("_", i), 256));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(bootstrap.used_slots(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(bootstrap
                      .open(numbered("t", t) + numbered("_", i))
                      .is_ok());
    }
  }
}

TEST_F(ArenaTest, AttachDuringCreateDestroyChurnSeesNoCorruption) {
  // One participant loops create/destroy 1,000 times while four others
  // attach over and over. Each round splits three objects off the head
  // free block and overwrites them as a user would (their free-list
  // headers go with it), then frees them so that one is linked alone, one
  // merges with the following block and one with both neighbours. Every
  // attach walks the free list; a split or merge caught half done must
  // never read as a corrupt pool.
  Arena bootstrap = make_arena();
  constexpr int kAttachers = 4;
  std::atomic<bool> churning{true};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    simtime::VClock clock;
    cxlsim::CacheSim cache(*device_);
    cxlsim::Accessor acc(*device_, cache, clock);
    Arena arena = check_ok(Arena::attach(acc, 0, 1));
    const std::vector<std::byte> fill(4096, std::byte{0xA5});
    for (int i = 0; i < 1000; ++i) {
      ObjectHandle a = check_ok(arena.create("churn_a", fill.size()));
      ObjectHandle b = check_ok(arena.create("churn_b", fill.size()));
      ObjectHandle c = check_ok(arena.create("churn_c", fill.size()));
      for (const ObjectHandle* object : {&a, &b, &c}) {
        acc.bulk_write(object->pool_offset, fill);
      }
      check_ok(arena.destroy(a));
      check_ok(arena.destroy(c));
      check_ok(arena.destroy(b));
    }
    churning = false;
  });
  for (int t = 0; t < kAttachers; ++t) {
    threads.emplace_back([&, t] {
      simtime::VClock clock;
      cxlsim::CacheSim cache(*device_);
      cxlsim::Accessor acc(*device_, cache, clock);
      do {
        const Result<Arena> view = Arena::attach(acc, 0, t + 2);
        ASSERT_TRUE(view.is_ok()) << view.status().message();
      } while (churning.load());
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(bootstrap.free_bytes(), bootstrap.objects_size());
}

// --- Free-list fsck on attach (bounded walk, kCorruptPool) -------------
//
// A host dying inside free_locked can leave a torn chain behind. attach's
// bounded validate_free_list walk must refuse the arena instead of letting
// the next allocator walk hang or wander out of the region. Each test
// formats a healthy arena, corrupts the chain with non-temporal stores
// (immediately visible, no cache involved) and attaches through a fresh
// cold-cache accessor, like a node arriving after the crash.
//
// On-pool layout facts the corruptions rely on: Header::free_head is the
// 11th u64 (byte 80); FreeBlock is {magic, size, next} at +0/+8/+16.

class ArenaFsckTest : public ArenaTest {
 protected:
  static constexpr std::uint64_t kFreeHeadOffset = 80;

  void SetUp() override {
    ArenaTest::SetUp();
    make_arena();  // formatted; the Arena view itself is not needed
    cache_b_ = std::make_unique<cxlsim::CacheSim>(*device_);
    acc_b_ = std::make_unique<cxlsim::Accessor>(*device_, *cache_b_, clock_b_);
    free_head_ = acc_b_->nt_load_u64(kFreeHeadOffset);
    ASSERT_NE(free_head_, 0u) << "fresh arena must have a free block";
  }

  ErrorCode attach_code() {
    return Arena::attach(*acc_b_, 0, /*participant=*/1).status().code();
  }

  simtime::VClock clock_b_;
  std::unique_ptr<cxlsim::CacheSim> cache_b_;
  std::unique_ptr<cxlsim::Accessor> acc_b_;
  std::uint64_t free_head_ = 0;  // base-relative == pool offset (base 0)
};

TEST_F(ArenaFsckTest, AttachRejectsSelfReferencingChain) {
  // next -> itself: the classic torn-coalesce loop. The address-order
  // check (at <= prev) must catch it long before the step bound.
  acc_b_->nt_store_u64(free_head_ + 16, free_head_);
  EXPECT_EQ(attach_code(), ErrorCode::kCorruptPool);
}

TEST_F(ArenaFsckTest, AttachRejectsBadFreeBlockMagic) {
  acc_b_->nt_store_u64(free_head_ + 0, 0x0BADF00DULL);
  EXPECT_EQ(attach_code(), ErrorCode::kCorruptPool);
}

TEST_F(ArenaFsckTest, AttachRejectsHeadOutsideObjectRegion) {
  Arena view = check_ok(Arena::attach(*acc_b_, 0, 1));
  acc_b_->nt_store_u64(kFreeHeadOffset,
                       view.objects_offset() + view.objects_size());
  EXPECT_EQ(attach_code(), ErrorCode::kCorruptPool);
}

TEST_F(ArenaFsckTest, AttachRejectsImpossibleBlockSize) {
  // A size that runs past the end of the object region.
  acc_b_->nt_store_u64(free_head_ + 8, 64_MiB);
  EXPECT_EQ(attach_code(), ErrorCode::kCorruptPool);
}

TEST_F(ArenaFsckTest, FsckMessageNamesOffsetAndOwningRegion) {
  // Multi-tenant triage regression: the kCorruptPool message must carry
  // the corrupt slot's POOL-ABSOLUTE offset and the owning arena's
  // base/object region, so an operator can attribute the damage to one
  // tenant without replaying the walk. Use a nonzero base so absolute
  // and arena-relative offsets actually differ.
  const std::uint64_t kBase = 8_MiB;
  check_ok(
      Arena::format(*acc_, kBase, 4_MiB, /*participant=*/0, small_params())
          .status());
  const std::uint64_t rel_head = acc_b_->nt_load_u64(kBase + kFreeHeadOffset);
  ASSERT_NE(rel_head, 0u);
  acc_b_->nt_store_u64(kBase + rel_head + 0, 0x0BADF00DULL);  // break magic

  const Status verdict = Arena::attach(*acc_b_, kBase, 1).status();
  ASSERT_EQ(verdict.code(), ErrorCode::kCorruptPool);
  const std::string msg(verdict.message());
  char expect_at[32];
  std::snprintf(expect_at, sizeof expect_at, "0x%llx",
                static_cast<unsigned long long>(kBase + rel_head));
  EXPECT_NE(msg.find(expect_at), std::string::npos)
      << "missing pool-absolute slot offset in: " << msg;
  EXPECT_NE(msg.find("arena base 0x800000"), std::string::npos)
      << "missing owning arena base in: " << msg;
  EXPECT_NE(msg.find("object region [0x"), std::string::npos)
      << "missing owning object region in: " << msg;
  EXPECT_NE(msg.find("bad magic"), std::string::npos) << msg;
}

TEST_F(ArenaFsckTest, HealthyArenaStillAttaches) {
  // Control: the fsck must not reject an intact chain, including after
  // real allocator traffic fragments it.
  Arena view = check_ok(Arena::attach(*acc_b_, 0, 1));
  auto a = check_ok(view.create("frag_a", 4096));
  auto b = check_ok(view.create("frag_b", 4096));
  check_ok(view.destroy(a));  // hole before the tail block
  EXPECT_TRUE(Arena::attach(*acc_b_, 0, 2).is_ok());
  check_ok(view.destroy(b));
}

}  // namespace
}  // namespace cmpi::arena
