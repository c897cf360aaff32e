#include "runtime/launch.hpp"

#include <algorithm>
#include <mutex>
#include <thread>

namespace cmpi::runtime {

std::exception_ptr launch_ranks(unsigned n,
                                const std::function<void(unsigned)>& body,
                                const std::function<void()>& wake) {
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // jthread: if starting a thread throws, the ones already running are
  // still joined before the state they share goes away.
  std::vector<std::jthread> threads;
  threads.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        body(i);
      } catch (...) {
        {
          std::lock_guard lock(error_mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
        wake();
      }
    });
  }
  threads.clear();  // joins
  return first_error;
}

ClockBarrier::ClockBarrier(unsigned n)
    : sync_(static_cast<std::ptrdiff_t>(n)), board_(n, 0) {}

void ClockBarrier::enter(unsigned rank, simtime::VClock& clock) {
  board_[rank] = clock.now();
  sync_.arrive_and_wait();
  const simtime::Ns horizon = *std::max_element(board_.begin(), board_.end());
  // Second phase: nobody overwrites the board before everyone has read it.
  sync_.arrive_and_wait();
  clock.observe(horizon);
}

}  // namespace cmpi::runtime
