// Discrete-event simulator in the style of SimGrid (paper §4.1/§4.4).
//
// The paper's CXL platform connects at most four hosts, so its strong-
// scaling study (Fig. 10) feeds measured interconnect latency/bandwidth
// into SimGrid and replays application communication patterns at larger
// node counts. This engine reproduces that methodology: a sequential
// process-interaction DES with a global simulated clock.
//
//   * SimEngine  — event queue ordered by (time, sequence); deterministic.
//   * SimProcess — a simulated actor on its own OS thread, started by
//     runtime::launch_ranks. Exactly one process holds control at a time
//     (classic SimGrid-style cooperative execution; correct and
//     deterministic on any core count). There is no engine thread: a
//     process that parks or finishes pops the events itself and hands
//     control straight to the process they resume, through that
//     process's wake word.
//   * Link      — latency + FCFS bandwidth queueing (shared wire).
//   * Mailbox   — (dst, tag)-addressed message queues with delivery times.
//
// Processes use delay() for compute, send()/recv() for messages; the apps
// layer builds halo exchanges and collectives on top.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "simtime/vclock.hpp"

namespace cmpi::simnet {

class SimEngine;

/// A network link: propagation latency plus a shared bandwidth pipe with
/// FCFS queueing (reservations happen in causal order because the engine
/// is sequential).
class Link {
 public:
  Link(simtime::Ns latency, double bytes_per_ns)
      : latency_(latency), bytes_per_ns_(bytes_per_ns) {
    CMPI_EXPECTS(bytes_per_ns > 0);
  }

  /// Delivery time of `bytes` entering the link at `start`.
  simtime::Ns transit(simtime::Ns start, std::size_t bytes) {
    const simtime::Ns begin = std::max(start, busy_until_);
    busy_until_ = begin + static_cast<simtime::Ns>(bytes) / bytes_per_ns_;
    return busy_until_ + latency_;
  }

  [[nodiscard]] simtime::Ns latency() const noexcept { return latency_; }
  [[nodiscard]] double bytes_per_ns() const noexcept { return bytes_per_ns_; }

 private:
  simtime::Ns latency_;
  double bytes_per_ns_;
  simtime::Ns busy_until_ = 0;
};

/// Handle the process function receives; all simulation interaction goes
/// through it.
class SimProcess {
 public:
  /// Simulated id (dense, assigned at spawn).
  [[nodiscard]] int id() const noexcept { return id_; }
  /// Current simulated time.
  [[nodiscard]] simtime::Ns now() const noexcept;

  /// Consume `dt` simulated nanoseconds (compute).
  void delay(simtime::Ns dt);

  /// Asynchronously send `bytes` to process `dst` with `tag` over `link`
  /// (nullptr = zero-cost local delivery). `dst` must name a spawned
  /// process. The sender continues immediately; model sender-side CPU
  /// cost with delay() if needed.
  void send(int dst, int tag, std::size_t bytes, Link* link);

  /// Block until a message (src, tag) is delivered; returns its size.
  std::size_t recv(int src, int tag);

 private:
  friend class SimEngine;
  /// Hand control to the next process, then sleep until this one is
  /// resumed (at once when the next process is this one).
  void park();
  /// Sleep until this process holds control; throws when the run aborts.
  void wait_for_control();

  SimEngine* engine_ = nullptr;
  int id_ = 0;
  std::size_t pending_bytes_ = 0;  ///< size of the message recv matched
  /// (src, tag) of the recv this process is parked in. Mailbox `dst`'s
  /// only waiter is process `dst`, so a delivery checks just this.
  std::optional<std::pair<int, int>> recv_filter_;
  /// Wake word: nonzero while this process holds control (or once the run
  /// aborts). 32 bits, not bool: libstdc++ waits on a 32-bit atomic with
  /// a futex on the word itself, but on a bool through a shared proxy.
  std::atomic<std::uint32_t> runnable_{0};
  bool finished_ = false;
};

class SimEngine {
 public:
  SimEngine() = default;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Create a link owned by the engine.
  Link* make_link(simtime::Ns latency, double bytes_per_ns);

  /// Spawn a process; returns its id (dense from 0).
  int spawn(std::function<void(SimProcess&)> fn);

  /// Run the simulation until every process finishes. Returns the final
  /// simulated time. A process's exception comes back out of run() once
  /// every process thread has returned.
  simtime::Ns run();

  [[nodiscard]] simtime::Ns now() const noexcept { return now_; }

 private:
  friend class SimProcess;

  struct Msg {
    int src;
    int tag;
    std::size_t bytes;
    simtime::Ns delivered;
  };

  struct Event {
    simtime::Ns time;
    std::uint64_t seq;
    enum class Kind { kWake, kDelivery } kind;
    SimProcess* process;  // kWake: whom to resume
    int dst;              // kDelivery: mailbox owner

    bool operator>(const Event& other) const noexcept {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  void schedule_wake(SimProcess& process, simtime::Ns at);
  void schedule_delivery(int dst, simtime::Ns at);
  /// Pop events until one resumes a process and return it; nullptr once
  /// the queue is empty.
  SimProcess* next_ready();
  /// Called by `from`, which holds control and parks or has finished:
  /// give control to the next process.
  void resume_next(SimProcess& from);

  simtime::Ns now_ = 0;
  std::uint64_t seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<std::unique_ptr<SimProcess>> processes_;
  std::vector<std::function<void(SimProcess&)>> bodies_;
  std::vector<std::unique_ptr<Link>> links_;
  /// Mailboxes: (dst, src, tag) -> delivered messages.
  std::map<std::tuple<int, int, int>, std::deque<Msg>> mail_;
  bool started_ = false;
  /// Set when a process throws: every parked process unwinds.
  std::atomic<bool> aborting_{false};
};

}  // namespace cmpi::simnet
