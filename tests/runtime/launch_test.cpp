// The rank launcher every universe starts its ranks through: one thread
// per index, the failing body's wake at once, and the first exception
// handed back only after every body returned.
#include "runtime/launch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cmpi::runtime {
namespace {

using namespace std::chrono_literals;

/// Spin (wall clock) until `done()` holds or five seconds pass.
template <typename Pred>
bool spin_until(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

TEST(LaunchRanks, EachIndexRunsOnceOnItsOwnThread) {
  constexpr unsigned kRanks = 5;
  std::mutex mutex;
  std::vector<int> runs(kRanks, 0);
  std::set<std::thread::id> threads;
  std::atomic<unsigned> arrived{0};
  const std::exception_ptr error = launch_ranks(
      kRanks,
      [&](unsigned i) {
        {
          std::lock_guard lock(mutex);
          ++runs[i];
          threads.insert(std::this_thread::get_id());
        }
        // Every body is live at once: none returns before all started.
        arrived.fetch_add(1);
        EXPECT_TRUE(spin_until([&] { return arrived.load() == kRanks; }));
      },
      [] { FAIL() << "wake runs only for a throwing body"; });
  EXPECT_EQ(error, nullptr);
  EXPECT_EQ(runs, std::vector<int>(kRanks, 1));
  EXPECT_EQ(threads.size(), kRanks);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
}

TEST(LaunchRanks, FirstExceptionReturnsAfterEveryBodyAndWakesPerThrow) {
  // Body 1 throws first; body 3 throws only after body 1's wake ran; body
  // 0 returns only after both wakes ran. So a wake runs at once on its
  // throw (else body 0 would never return), and the launcher hands back
  // body 1's exception only after the late body 0 finished.
  std::atomic<int> wakes{0};
  std::atomic<bool> late_body_done{false};
  const std::exception_ptr error = launch_ranks(
      4,
      [&](unsigned i) {
        if (i == 1) {
          throw std::runtime_error("first");
        }
        if (i == 3) {
          EXPECT_TRUE(spin_until([&] { return wakes.load() >= 1; }));
          throw std::runtime_error("second");
        }
        if (i == 0) {
          EXPECT_TRUE(spin_until([&] { return wakes.load() == 2; }));
          std::this_thread::sleep_for(20ms);
          late_body_done = true;
        }
      },
      [&] { wakes.fetch_add(1); });
  EXPECT_TRUE(late_body_done.load());
  EXPECT_EQ(wakes.load(), 2);
  ASSERT_NE(error, nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "first");
  }
}

}  // namespace
}  // namespace cmpi::runtime
