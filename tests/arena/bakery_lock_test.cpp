#include "arena/bakery_lock.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

namespace cmpi::arena {
namespace {

class BakeryLockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = cmpi::check_ok(cxlsim::DaxDevice::create(cmpi::kDaxAlignment));
  }

  struct Rank {
    simtime::VClock clock;
    std::unique_ptr<cxlsim::CacheSim> cache;
    std::unique_ptr<cxlsim::Accessor> acc;
  };

  Rank make_rank() {
    Rank r;
    r.cache = std::make_unique<cxlsim::CacheSim>(*device_);
    r.acc = std::make_unique<cxlsim::Accessor>(*device_, *r.cache, r.clock);
    return r;
  }

  std::unique_ptr<cxlsim::DaxDevice> device_;
};

TEST_F(BakeryLockTest, FootprintScalesWithParticipants) {
  EXPECT_EQ(BakeryLock::footprint(1), 128u);
  EXPECT_EQ(BakeryLock::footprint(8), 64u + 8 * 64);
}

TEST_F(BakeryLockTest, FormatThenAttachSeesSameWidth) {
  Rank r = make_rank();
  const auto lock = BakeryLock::format(*r.acc, 0, 16);
  EXPECT_EQ(lock.max_participants(), 16u);
  const auto attached = check_ok(BakeryLock::attach(*r.acc, 0));
  EXPECT_EQ(attached.max_participants(), 16u);
}

TEST_F(BakeryLockTest, AttachRejectsUnformattedPool) {
  Rank r = make_rank();
  const auto attached = BakeryLock::attach(*r.acc, 0);
  ASSERT_FALSE(attached.is_ok());
  EXPECT_EQ(attached.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(BakeryLockTest, AttachRejectsMisalignedBase) {
  Rank r = make_rank();
  BakeryLock::format(*r.acc, 0, 4);
  const auto attached = BakeryLock::attach(*r.acc, 8);
  ASSERT_FALSE(attached.is_ok());
  EXPECT_EQ(attached.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(BakeryLockTest, AttachRejectsCorruptParticipantCount) {
  Rank r = make_rank();
  BakeryLock::format(*r.acc, 0, 4);
  // Clobber the count but keep the magic: header recognized, geometry bad.
  r.acc->nt_store_u64(0, 0);
  const auto zero = BakeryLock::attach(*r.acc, 0);
  ASSERT_FALSE(zero.is_ok());
  EXPECT_EQ(zero.status().code(), ErrorCode::kInvalidArgument);
  r.acc->nt_store_u64(0, std::uint64_t{1} << 40);
  const auto huge = BakeryLock::attach(*r.acc, 0);
  ASSERT_FALSE(huge.is_ok());
  EXPECT_EQ(huge.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(BakeryLockTest, LockForBreaksDeadHolder) {
  Rank a = make_rank();
  Rank b = make_rank();
  const auto lock = BakeryLock::format(*a.acc, 0, 2);
  // Participant 0 takes the lock and then "dies" holding it.
  lock.lock(*a.acc, 0);
  const Status st = lock.lock_for(
      *b.acc, 1, std::chrono::milliseconds(500),
      [](std::size_t p) { return p == 0; });
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  lock.unlock(*b.acc, 1);
}

TEST_F(BakeryLockTest, LockForTimesOutBehindLiveHolder) {
  Rank a = make_rank();
  Rank b = make_rank();
  const auto lock = BakeryLock::format(*a.acc, 0, 2);
  lock.lock(*a.acc, 0);
  const Status st = lock.lock_for(
      *b.acc, 1, std::chrono::milliseconds(50),
      [](std::size_t) { return false; });
  EXPECT_EQ(st.code(), ErrorCode::kTimedOut);
  // The timed-out waiter withdrew its ticket: the holder can release and
  // a later acquire succeeds immediately.
  lock.unlock(*a.acc, 0);
  const Status again = lock.lock_for(
      *b.acc, 1, std::chrono::milliseconds(500),
      [](std::size_t) { return false; });
  ASSERT_TRUE(again.is_ok()) << again.to_string();
  lock.unlock(*b.acc, 1);
}

TEST_F(BakeryLockTest, SingleParticipantLockUnlock) {
  Rank r = make_rank();
  const auto lock = BakeryLock::format(*r.acc, 0, 4);
  lock.lock(*r.acc, 0);
  lock.unlock(*r.acc, 0);
  lock.lock(*r.acc, 0);  // reacquirable after release
  lock.unlock(*r.acc, 0);
}

TEST_F(BakeryLockTest, MutualExclusionUnderContention) {
  // N rank threads (each its own node/cache — the cross-node case) hammer
  // a shared plain counter guarded only by the bakery lock. The counter
  // itself lives in host memory so any exclusion failure shows up as a
  // lost update.
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  Rank bootstrap = make_rank();
  const auto lock = BakeryLock::format(*bootstrap.acc, 0, kThreads);

  long long counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rank r = make_rank();
      for (int i = 0; i < kIters; ++i) {
        BakeryLock::Guard guard(lock, *r.acc, static_cast<std::size_t>(t));
        const long long seen = counter;
        std::this_thread::yield();  // widen the race window
        counter = seen + 1;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<long long>(kThreads) * kIters);
}

TEST_F(BakeryLockTest, LockHandoffPropagatesVirtualTime) {
  Rank a = make_rank();
  Rank b = make_rank();
  const auto lock = BakeryLock::format(*a.acc, 0, 2);

  a.clock.advance(100000);
  lock.lock(*a.acc, 0);
  lock.unlock(*a.acc, 0);

  lock.lock(*b.acc, 1);
  // B acquired after A's critical section: B's clock must reflect it.
  EXPECT_GE(b.clock.now(), 100000.0);
  lock.unlock(*b.acc, 1);
}

TEST_F(BakeryLockTest, CrossNodeVisibilityThroughLock) {
  // The canonical use: A mutates shared cached state under the lock and
  // flushes; B then reads it under the lock.
  Rank a = make_rank();
  Rank b = make_rank();
  const auto lock = BakeryLock::format(*a.acc, 0, 2);
  constexpr std::uint64_t kData = 4096;

  lock.lock(*a.acc, 0);
  const std::byte payload[8] = {std::byte{1}, std::byte{2}, std::byte{3},
                                std::byte{4}, std::byte{5}, std::byte{6},
                                std::byte{7}, std::byte{8}};
  a.acc->coherent_write(kData, payload);
  lock.unlock(*a.acc, 0);

  lock.lock(*b.acc, 1);
  std::byte got[8];
  b.acc->coherent_read(kData, got);
  lock.unlock(*b.acc, 1);
  EXPECT_EQ(std::memcmp(got, payload, 8), 0);
}

}  // namespace
}  // namespace cmpi::arena
