// Host-side rank plumbing shared by every simulated universe.
//
// runtime::Universe, fabric::NetUniverse and fabric::PodCluster all start
// their ranks through launch_ranks, and simnet::SimEngine its processes,
// so one function owns how a rank thread starts, how its error is
// captured and how its blocked peers are woken.
// ClockBarrier is the virtual-time barrier of the universes whose ranks
// share no pool (the modeled network and the cross-pod tier).
#pragma once

#include <barrier>
#include <exception>
#include <functional>
#include <vector>

#include "simtime/vclock.hpp"

namespace cmpi::runtime {

/// Run `body(i)` for every i in [0, n), each on its own thread. When a body
/// throws, `wake` runs at once on that body's thread, so peers blocked on
/// the failed rank re-check their predicates instead of sleeping to a
/// recheck interval. Joins every thread, then returns the first exception
/// thrown (null when every body returned).
[[nodiscard]] std::exception_ptr launch_ranks(
    unsigned n, const std::function<void(unsigned)>& body,
    const std::function<void()>& wake);

/// Virtual-time barrier across `n` rank threads: functional sync plus the
/// max of the arriving clocks. Fault-free paths only: a crashed rank never
/// arrives.
class ClockBarrier {
 public:
  explicit ClockBarrier(unsigned n);

  /// Deposit `clock`, wait for every rank, then advance `clock` to the
  /// latest clock any rank brought.
  void enter(unsigned rank, simtime::VClock& clock);

 private:
  std::barrier<> sync_;
  std::vector<simtime::Ns> board_;
};

}  // namespace cmpi::runtime
