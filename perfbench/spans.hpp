// In-memory spans of the traced benchmark passes. Each span is one call
// from the driver into a library layer (or a driver-level phase that
// encloses such calls), stamped with the rank's virtual clock and the
// host clock. Spans live in a per-rank log, so recording takes no lock;
// the driver summarizes them and writes them out after the run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kSend, kRecv, kIsend, kIrecv, kWaitAll,
  kPut, kGet, kPost, kStart, kComplete, kWinWait, kReadLocal, kWriteLocal,
  kWinCreate,
  kAllreduce,
  kBarrier, kSessionCtor,
  kBenchPingPong, kBenchWindow, kBenchStream, kBenchPutEpoch, kBenchGetEpoch,
  kBenchStep,
  kCount,
};

/// Span names; the part before the first '.' is the layer.
inline constexpr std::array<std::string_view,
                            static_cast<std::size_t>(SpanKind::kCount)>
    kSpanNames{
        "p2p.send",        "p2p.recv",         "p2p.isend",
        "p2p.irecv",       "p2p.wait_all",     "rma.put",
        "rma.get",         "rma.post",         "rma.start",
        "rma.complete",    "rma.wait",         "rma.read_local",
        "rma.write_local", "rma.create",       "coll.allreduce",
        "runtime.barrier", "runtime.session_ctor",
        "bench.pingpong",  "bench.window",     "bench.stream",
        "bench.put_epoch", "bench.get_epoch",  "bench.step",
    };

/// Host steady-clock nanoseconds.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::string_view span_name(SpanKind kind) {
  return kSpanNames[static_cast<std::size_t>(kind)];
}

inline std::string_view span_layer(SpanKind kind) {
  const std::string_view name = span_name(kind);
  return name.substr(0, name.find('.'));
}

struct Span {
  SpanKind kind;
  std::int32_t parent;  // index in the same log, -1 for a root span
  std::uint32_t op;     // operation id: ping-pong, round or CG step
  double vt0, vt1;      // virtual ns
  std::int64_t h0, h1;  // host steady-clock ns
};

class SpanLog {
 public:
  std::int32_t open(SpanKind kind, std::uint32_t op, double vt) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    const std::int64_t h = host_ns();
    spans_.push_back(Span{kind, current_, op, vt, vt, h, h});
    current_ = index;
    return index;
  }

  void close(std::int32_t index, double vt) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.vt1 = vt;
    s.h1 = host_ns();
    current_ = s.parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// Records one span for its lifetime; does nothing when `log` is null (the
/// untraced passes), so the same workload code serves both.
template <typename Clock>
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanKind kind, std::uint32_t op, const Clock& clock)
      : log_(log), clock_(clock) {
    if (log_ != nullptr) {
      index_ = log_->open(kind, op, clock_.now());
    }
  }
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->close(index_, clock_.now());
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  const Clock& clock_;
  std::int32_t index_ = -1;
};

/// Virtual self time (ns) of every span: its duration minus the time its
/// direct children cover. Children of one rank run one after another, so
/// their durations add up without overlap.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] += spans[i].vt1 - spans[i].vt0;
    if (spans[i].parent >= 0) {
      out[static_cast<std::size_t>(spans[i].parent)] -=
          spans[i].vt1 - spans[i].vt0;
    }
  }
  return out;
}

}  // namespace perfbench
