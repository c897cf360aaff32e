// Doorbell unit tests: the configurable recheck interval, the deadline
// overload that the liveness layer's *_for variants build on, and the
// epoch()/wait_past() arming discipline that closes the check-then-sleep
// race (a ring landing between the caller's last condition check and the
// sleep must wake the sleeper immediately, not after a recheck interval).
#include "runtime/doorbell.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

namespace cmpi::runtime {
namespace {

using namespace std::chrono_literals;

TEST(Doorbell, RecheckIntervalIsConfigurable) {
  EXPECT_EQ(Doorbell().recheck_interval(), 1ms);
  EXPECT_EQ(Doorbell(7ms).recheck_interval(), 7ms);
}

TEST(Doorbell, DeadlineOverloadReturnsTrueWhenPredicateAlreadyHolds) {
  Doorbell bell;
  const bool ok = bell.wait_until([] { return true; },
                                  std::chrono::steady_clock::now() + 5s);
  EXPECT_TRUE(ok);
}

TEST(Doorbell, DeadlineOverloadReturnsFalseAfterExpiry) {
  Doorbell bell;
  const auto start = std::chrono::steady_clock::now();
  const bool ok = bell.wait_until([] { return false; }, start + 50ms);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(ok);
  EXPECT_GE(elapsed, 50ms);
  // Bounded: it must not have waited anywhere near "forever".
  EXPECT_LT(elapsed, 5s);
}

TEST(Doorbell, RingBeforeDeadlineWakesTheWaiter) {
  Doorbell bell;
  std::atomic<bool> flag{false};
  std::thread ringer([&] {
    std::this_thread::sleep_for(30ms);
    flag = true;
    bell.ring();
  });
  const auto start = std::chrono::steady_clock::now();
  const bool ok =
      bell.wait_until([&] { return flag.load(); }, start + 30s);
  EXPECT_TRUE(ok);
  // Satisfied by the ring, not by the (far) deadline.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
  ringer.join();
}

TEST(Doorbell, RecheckIntervalBoundsMissedWakeups) {
  // A predicate made true WITHOUT a ring (out-of-scope writer) is still
  // noticed within roughly one recheck interval.
  Doorbell bell(5ms);
  std::atomic<bool> flag{false};
  std::thread writer([&] {
    std::this_thread::sleep_for(20ms);
    flag = true;  // no ring()
  });
  const bool ok =
      bell.wait_until([&] { return flag.load(); },
                      std::chrono::steady_clock::now() + 30s);
  EXPECT_TRUE(ok);
  writer.join();
}

TEST(Doorbell, WaitPastReturnsImmediatelyAfterInterveningRing) {
  // The lost-wakeup scenario, deterministically: the caller arms, the
  // ring lands BEFORE the sleep, and wait_past must return on the
  // generation bump. With a 10 s recheck interval, relying on the
  // timeout instead would hang this test visibly.
  Doorbell bell(10s);
  const std::uint64_t armed = bell.epoch();
  bell.ring();  // between the condition check and the sleep
  const auto start = std::chrono::steady_clock::now();
  bell.wait_past(armed);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST(Doorbell, WaitPastSleepsWhenNothingRangSinceArming) {
  // Control: with no intervening ring, wait_past really does sleep (until
  // the recheck interval or a later ring) instead of spinning through —
  // and no longer than about one recheck interval.
  Doorbell bell(30ms);
  const std::uint64_t armed = bell.epoch();
  const auto start = std::chrono::steady_clock::now();
  bell.wait_past(armed);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 25ms);
  EXPECT_LT(elapsed, 30ms + 100ms);
}

TEST(Doorbell, SeededStressNoLostWakeups) {
  // Four producers ring with seeded pseudo-random jitter while one
  // consumer runs the arm-then-check-then-sleep loop the p2p wait path
  // uses. The 10 s recheck interval turns any lost wake-up into a visible
  // stall, so finishing promptly proves the epoch discipline holds under
  // real interleavings (run under TSan in the sanitize CI job).
  Doorbell bell(10s);
  constexpr int kProducers = 4;
  constexpr int kRingsEach = 200;
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&bell, &count, p] {
      std::mt19937 rng(0xD00DBE11u + static_cast<unsigned>(p));
      std::uniform_int_distribution<int> jitter(0, 64);
      for (int i = 0; i < kRingsEach; ++i) {
        count.fetch_add(1, std::memory_order_relaxed);
        bell.ring();
        // The compiler barrier keeps the empty spin from being folded
        // away (C++20 deprecates -- on a volatile counter).
        for (int spin = jitter(rng); spin > 0; --spin) {
          std::atomic_signal_fence(std::memory_order_seq_cst);
        }
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const std::uint64_t armed = bell.epoch();
    if (count.load(std::memory_order_relaxed) >= kProducers * kRingsEach) {
      break;
    }
    bell.wait_past(armed);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (std::thread& t : producers) {
    t.join();
  }
  // One lost wake-up would cost a full 10 s recheck; the whole run must
  // come in far under that.
  EXPECT_LT(elapsed, 8s);
}

}  // namespace
}  // namespace cmpi::runtime
