#include "simnet/engine.hpp"

#include <exception>

#include "common/log.hpp"
#include "runtime/launch.hpp"

namespace cmpi::simnet {

namespace {
/// Thrown inside parked processes when another process's exception aborts
/// the run.
struct Aborted {};
}  // namespace

// ---------------- SimProcess ----------------

simtime::Ns SimProcess::now() const noexcept { return engine_->now_; }

void SimProcess::delay(simtime::Ns dt) {
  CMPI_EXPECTS(dt >= 0);
  engine_->schedule_wake(*this, engine_->now_ + dt);
  park();
}

void SimProcess::send(int dst, int tag, std::size_t bytes, Link* link) {
  CMPI_EXPECTS(dst >= 0 &&
               dst < static_cast<int>(engine_->processes_.size()));
  const simtime::Ns delivered =
      link != nullptr ? link->transit(engine_->now_, bytes) : engine_->now_;
  engine_->mail_[{dst, id_, tag}].push_back(
      SimEngine::Msg{id_, tag, bytes, delivered});
  engine_->schedule_delivery(dst, delivered);
}

std::size_t SimProcess::recv(int src, int tag) {
  auto& queue = engine_->mail_[{id_, src, tag}];
  if (!queue.empty()) {
    const SimEngine::Msg msg = queue.front();
    queue.pop_front();
    if (msg.delivered > engine_->now_) {
      // Arrived in the simulated future: wait for it.
      engine_->schedule_wake(*this, msg.delivered);
      park();
    }
    return msg.bytes;
  }
  // Nothing queued: park until a matching delivery.
  recv_filter_ = {src, tag};
  park();
  // The engine moved the matched message's size into pending_bytes_.
  return pending_bytes_;
}

void SimProcess::park() {
  engine_->resume_next(*this);
  wait_for_control();
}

void SimProcess::wait_for_control() {
  runnable_.wait(0, std::memory_order_acquire);
  if (engine_->aborting_.load(std::memory_order_relaxed)) {
    throw Aborted{};
  }
}

// ---------------- SimEngine ----------------

Link* SimEngine::make_link(simtime::Ns latency, double bytes_per_ns) {
  links_.push_back(std::make_unique<Link>(latency, bytes_per_ns));
  return links_.back().get();
}

int SimEngine::spawn(std::function<void(SimProcess&)> fn) {
  CMPI_EXPECTS(!started_);
  const int id = static_cast<int>(processes_.size());
  auto process = std::make_unique<SimProcess>();
  process->engine_ = this;
  process->id_ = id;
  processes_.push_back(std::move(process));
  bodies_.push_back(std::move(fn));
  return id;
}

void SimEngine::schedule_wake(SimProcess& process, simtime::Ns at) {
  events_.push(Event{at, seq_++, Event::Kind::kWake, &process, -1});
}

void SimEngine::schedule_delivery(int dst, simtime::Ns at) {
  events_.push(Event{at, seq_++, Event::Kind::kDelivery, nullptr, dst});
}

SimProcess* SimEngine::next_ready() {
  while (!events_.empty()) {
    const Event event = events_.top();
    events_.pop();
    now_ = event.time;
    if (event.kind == Event::Kind::kWake) {
      return event.process;
    }
    // Delivery: wake the dst's parked receiver if a matching message is
    // now available.
    SimProcess& process = *processes_[static_cast<std::size_t>(event.dst)];
    if (!process.recv_filter_) {
      continue;  // receiver not parked; recv() will find the message
    }
    const auto [src, tag] = *process.recv_filter_;
    auto& queue = mail_[{event.dst, src, tag}];
    if (queue.empty() || queue.front().delivered > now_) {
      continue;
    }
    process.pending_bytes_ = queue.front().bytes;
    queue.pop_front();
    process.recv_filter_.reset();
    return &process;
  }
  return nullptr;
}

void SimEngine::resume_next(SimProcess& from) {
  SimProcess* next = next_ready();
  if (next == nullptr) {
    // Every process must have run to completion; a parked leftover means
    // a mismatched send/recv pairing in the model — fail loudly, not
    // silently.
    for (const auto& process : processes_) {
      if (!process->finished_) {
        log_error("simnet: process %d deadlocked (unmatched recv)",
                  process->id_);
        CMPI_ASSERT(process->finished_);
      }
    }
    return;
  }
  if (next == &from) {
    return;  // keeps control without sleeping
  }
  from.runnable_.store(0, std::memory_order_relaxed);
  next->runnable_.store(1, std::memory_order_release);
  next->runnable_.notify_one();
}

simtime::Ns SimEngine::run() {
  CMPI_EXPECTS(!started_);
  started_ = true;
  for (const auto& process : processes_) {
    schedule_wake(*process, 0);
  }
  if (SimProcess* first = next_ready()) {
    first->runnable_.store(1, std::memory_order_relaxed);
  }
  const std::exception_ptr error = runtime::launch_ranks(
      static_cast<unsigned>(processes_.size()),
      [this](unsigned i) {
        SimProcess& process = *processes_[i];
        process.wait_for_control();
        bodies_[i](process);
        process.finished_ = true;
        resume_next(process);
      },
      [this] {
        aborting_.store(true, std::memory_order_relaxed);
        for (const auto& process : processes_) {
          process->runnable_.store(1, std::memory_order_release);
          process->runnable_.notify_one();
        }
      });
  if (error) {
    std::rethrow_exception(error);
  }
  return now_;
}

}  // namespace cmpi::simnet
