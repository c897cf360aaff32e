// Repo benchmark driver: three seeded workloads run against the public API
// (cmpi::Session, rma::Window, coll), measured in virtual time.
//
//   perfbench --workload eager-2r|bulk-2r|cg-4r --seed N --seconds S
//             --trace 0|1 [--spans-out FILE]
//
// A run is a sequence of passes. Each pass builds a fresh Universe (its
// set-up is timed on the host clock), runs one batch of generated
// operations and verifies every payload and result. Pass p's inputs come
// from (seed, p) alone, so a pass is repeatable and the library only ever
// sees the generated inputs. Passes repeat until --seconds of host time
// have gone by.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced passes over the same inputs: the traced passes time every
// call into p2p, rma, coll and runtime as a span (spans.hpp) and read the
// library's counters, and their untraced twins give the tracing overhead
// and the virtual-time metrics the traced passes must reproduce.
//
// The last stdout line is one JSON object; perfbench/run.py checks it
// against BENCHMARK.json and prints the final result.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/cmpi.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

using namespace cmpi;
using perfbench::Ratio;
using perfbench::Report;
using perfbench::Span;
using perfbench::SpanKind;
using perfbench::SpanLog;
using Scope = perfbench::SpanScope<simtime::VClock>;

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------- inputs

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Key of one generated item: every payload and size derives from one.
std::uint64_t item_key(std::uint64_t seed, int pass, std::uint64_t stream,
                       std::uint64_t index) {
  return mix(mix(mix(seed) ^ static_cast<std::uint64_t>(pass)) ^
             (stream << 40) ^ index);
}

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = mix(state); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
};

/// Share of its stratum a stratified size may stray from the stratum's
/// middle.
constexpr double kStratumJitter = 0.25;

/// `n` sizes log-uniform over [lo, hi], one near the middle of each equal
/// stratum of log size, in shuffled order, rounded down to a multiple of
/// `align`. Every seed gets the same size mix up to a small jitter, so
/// the seed moves the figures (tail percentiles included) by little but
/// not by nothing.
std::vector<std::size_t> stratified_sizes(Rng& rng, std::size_t n,
                                          std::size_t lo, std::size_t hi,
                                          std::size_t align) {
  std::vector<std::size_t> out(n);
  const double span = std::log(static_cast<double>(hi) / lo);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5 +
                      kStratumJitter * (rng.uniform() - 0.5)) /
                     static_cast<double>(n);
    const auto s = static_cast<std::size_t>(lo * std::exp(u * span));
    out[i] = std::clamp(s / align * align, lo, hi);
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(out[i - 1], out[rng.next() % i]);
  }
  return out;
}

void fill_payload(std::span<std::byte> buf, std::uint64_t key) {
  std::size_t i = 0;
  for (; i + 8 <= buf.size(); i += 8) {
    const std::uint64_t w = mix(key + i);
    std::memcpy(buf.data() + i, &w, 8);
  }
  const std::uint64_t w = mix(key + i);
  std::memcpy(buf.data() + i, &w, buf.size() - i);
}

bool payload_ok(std::span<const std::byte> buf, std::uint64_t key) {
  std::size_t i = 0;
  for (; i + 8 <= buf.size(); i += 8) {
    const std::uint64_t w = mix(key + i);
    if (std::memcmp(buf.data() + i, &w, 8) != 0) {
      return false;
    }
  }
  const std::uint64_t w = mix(key + i);
  return std::memcmp(buf.data() + i, &w, buf.size() - i) == 0;
}

using perfbench::host_ns;

double host_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

// ---------------------------------------------------------------- passes

/// End-to-end samples of one pass, all virtual time, kept by rank 0.
struct E2e {
  double setup_s = 0;          // host: Universe ctor .. first timed op
  std::vector<double> lat_us;  // one sample per unit operation
  double msgs = 0, msg_ns = 0;
  double bytes = 0, bytes_ns = 0;
  // bulk-2r only: bytes and virtual ns per channel (kStream, kPut, kGet)
  std::array<double, 3> chan_bytes{}, chan_ns{};
  std::vector<double> series;  // every timed duration in order (digest)
};

/// Two-sided counters over the timed region (CommStats deltas), summed
/// over ranks.
struct P2pTotals {
  double sent = 0, received = 0, unexpected = 0, rendezvous = 0,
         fallbacks = 0, batches = 0, cells = 0, rings = 0, suppressed = 0,
         wait_ns = 0;

  void add_delta(const p2p::CommStats& a, const p2p::CommStats& b) {
    auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    sent += d(a.messages_sent, b.messages_sent);
    received += d(a.messages_received, b.messages_received);
    unexpected += d(a.unexpected_messages, b.unexpected_messages);
    rendezvous += d(a.rendezvous_sent, b.rendezvous_sent);
    fallbacks += d(a.rendezvous_fallbacks, b.rendezvous_fallbacks);
    batches += d(a.publish_batches, b.publish_batches);
    cells += d(a.cells_published, b.cells_published);
    rings += d(a.doorbell_rings, b.doorbell_rings);
    suppressed += d(a.doorbell_suppressed, b.doorbell_suppressed);
    wait_ns += b.wait_ns.load() - a.wait_ns.load();
  }

  P2pTotals& operator+=(const P2pTotals& o) {
    sent += o.sent;
    received += o.received;
    unexpected += o.unexpected;
    rendezvous += o.rendezvous;
    fallbacks += o.fallbacks;
    batches += o.batches;
    cells += o.cells;
    rings += o.rings;
    suppressed += o.suppressed;
    wait_ns += o.wait_ns;
    return *this;
  }
};

struct PassOut {
  E2e e2e;
  double universe_ctor_s = 0;
  double session_ctor_s = 0;  // rank 0
  double win_create_s = 0;    // rank 0, bulk-2r only
  double host_wall_s = 0;
  double host_cpu_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double timed_vt_ns = 0;  // summed over ranks
  P2pTotals p2p;
  cxlsim::CacheSim::Stats cache{};
  runtime::RecoveryStats recovery{};
  obs::MetricsSnapshot metrics;  // traced passes only
  std::vector<SpanLog> spans;    // per rank, traced passes only
};

/// What one rank thread works with. `rec` is rank 0's E2e once timing has
/// started and null otherwise, so warm-up and other ranks record nothing.
struct Rank {
  Session& mpi;
  SpanLog* log;  // null in untraced passes
  E2e* rec = nullptr;
  std::uint32_t op = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] int id() const { return mpi.rank(); }
  [[nodiscard]] double now() const { return mpi.now_ns(); }

  /// Run `f` inside a span of `kind` (a plain call when untraced).
  template <typename F>
  decltype(auto) call(SpanKind kind, F&& f) {
    Scope scope(log, kind, op, mpi.ctx().clock());
    return f();
  }

  void check(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  void check(const Status& s) { check(s.is_ok()); }
};

// ------------------------------------------------------------- eager-2r

constexpr int kTagPing = 1, kTagPong = 2, kTagReady = 3, kTagWin = 4,
              kTagAck = 5;
constexpr std::size_t kEagerPingPongs = 1536;
constexpr std::size_t kEagerWindowEvery = 16;  // ping-pongs per window
constexpr std::size_t kEagerWindow = 64;       // 8 B messages per window
constexpr std::size_t kEagerMin = 8, kEagerMax = 16 * 1024;
constexpr std::size_t kWarmup = 1'000'000;  // item index base of warm-up

/// One OSU-style message-rate window: rank 1 pre-posts 64 receives and
/// says so, rank 0 streams 64 x 8 B and waits for rank 1's ack.
void eager_window(Rank& r, std::uint64_t seed, int pass, std::size_t w) {
  std::array<std::uint64_t, kEagerWindow> words{};
  std::vector<RequestPtr> reqs;
  const int peer = 1 - r.id();
  std::byte token{};
  Scope scope(r.log, SpanKind::kBenchWindow, r.op, r.mpi.ctx().clock());
  if (r.id() == 1) {
    for (std::size_t j = 0; j < kEagerWindow; ++j) {
      reqs.push_back(r.call(SpanKind::kIrecv, [&] {
        return r.mpi.irecv(peer, kTagWin,
                           std::as_writable_bytes(std::span(&words[j], 1)));
      }));
    }
    r.check(r.call(SpanKind::kSend, [&] {
      return r.mpi.send(peer, kTagReady, std::span(&token, 0));
    }));
    r.check(r.call(SpanKind::kWaitAll, [&] { return r.mpi.wait_all(reqs); }));
    for (std::size_t j = 0; j < kEagerWindow; ++j) {
      r.check(words[j] == item_key(seed, pass, 2 + w, j));
    }
    r.check(r.call(SpanKind::kSend, [&] {
      return r.mpi.send(peer, kTagAck, std::span(&token, 1));
    }));
    return;
  }
  r.check(r.call(SpanKind::kRecv, [&] {
                 return r.mpi.recv(peer, kTagReady, std::span(&token, 1));
               }).is_ok());
  for (std::size_t j = 0; j < kEagerWindow; ++j) {
    words[j] = item_key(seed, pass, 2 + w, j);
  }
  const double t0 = r.now();
  for (std::size_t j = 0; j < kEagerWindow; ++j) {
    reqs.push_back(r.call(SpanKind::kIsend, [&] {
      return r.mpi.isend(peer, kTagWin,
                         std::as_bytes(std::span(&words[j], 1)));
    }));
  }
  r.check(r.call(SpanKind::kWaitAll, [&] { return r.mpi.wait_all(reqs); }));
  r.check(r.call(SpanKind::kRecv, [&] {
                 return r.mpi.recv(peer, kTagAck, std::span(&token, 1));
               }).is_ok());
  if (r.rec != nullptr) {
    const double dt = r.now() - t0;
    r.rec->msgs += kEagerWindow;
    r.rec->msg_ns += dt;
    r.rec->series.push_back(dt);
  }
}

/// Blocking ping-pong of `size` bytes; both directions carry seeded
/// payloads and are checked on arrival.
void eager_pingpong(Rank& r, std::uint64_t seed, int pass, std::size_t i,
                    std::size_t size, std::vector<std::byte>& sbuf,
                    std::vector<std::byte>& rbuf) {
  const int peer = 1 - r.id();
  const std::uint64_t ping_key = item_key(seed, pass, 1, 2 * i);
  const std::uint64_t pong_key = item_key(seed, pass, 1, 2 * i + 1);
  const std::span<std::byte> out(sbuf.data(), size);
  const std::span<std::byte> in(rbuf.data(), size);
  Scope scope(r.log, SpanKind::kBenchPingPong, r.op, r.mpi.ctx().clock());
  auto receive = [&](int tag, std::uint64_t key) {
    Result<RecvInfo> got = r.call(
        SpanKind::kRecv, [&] { return r.mpi.recv(peer, tag, in); });
    r.check(got.is_ok() && got.value().bytes == size && payload_ok(in, key));
  };
  if (r.id() == 1) {
    receive(kTagPing, ping_key);
    fill_payload(out, pong_key);
    r.check(r.call(SpanKind::kSend,
                   [&] { return r.mpi.send(peer, kTagPong, out); }));
    return;
  }
  fill_payload(out, ping_key);
  const double t0 = r.now();
  r.check(r.call(SpanKind::kSend,
                 [&] { return r.mpi.send(peer, kTagPing, out); }));
  receive(kTagPong, pong_key);
  if (r.rec != nullptr) {
    const double rtt = r.now() - t0;
    r.rec->lat_us.push_back(rtt / 2 / 1e3);
    r.rec->bytes += 2.0 * static_cast<double>(size);
    r.rec->bytes_ns += rtt;
    r.rec->series.push_back(rtt);
  }
}

void run_eager(Rank& r, std::uint64_t seed, int pass,
               const std::function<void()>& start_timing) {
  Rng rng{item_key(seed, pass, 0, 0)};
  const std::vector<std::size_t> sizes =
      stratified_sizes(rng, kEagerPingPongs, kEagerMin, kEagerMax, 1);
  std::vector<std::byte> sbuf(kEagerMax), rbuf(kEagerMax);
  for (std::size_t i = 0; i < 16; ++i) {
    eager_pingpong(r, seed, pass, kWarmup + i, sizes[i], sbuf, rbuf);
  }
  eager_window(r, seed, pass, kWarmup);
  start_timing();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    r.op = static_cast<std::uint32_t>(i);
    eager_pingpong(r, seed, pass, i, sizes[i], sbuf, rbuf);
    if ((i + 1) % kEagerWindowEvery == 0) {
      eager_window(r, seed, pass, i / kEagerWindowEvery);
    }
  }
}

// -------------------------------------------------------------- bulk-2r

constexpr int kTagBulk = 6;
constexpr std::size_t kBulkRounds = 24;
constexpr std::size_t kBulkStreamWindow = 4;  // messages per stream window
constexpr std::size_t kBulkMin = 256 * 1024, kBulkMax = 8 * 1024 * 1024;

struct BulkBuffers {
  std::vector<std::vector<std::byte>> stream{
      kBulkStreamWindow, std::vector<std::byte>(kBulkMax)};
  std::vector<std::byte> onesided = std::vector<std::byte>(kBulkMax);
};

enum Channel : std::size_t { kStream, kPut, kGet };

/// Records one timed bulk transfer: a lat sample in virtual us per MiB,
/// plus the bytes and time of the whole-run and per-channel bandwidths.
void record_bulk(Rank& r, Channel c, double dt, double bytes) {
  if (r.rec == nullptr) {
    return;
  }
  r.rec->lat_us.push_back(dt / 1e3 / (bytes / kMiB));
  r.rec->bytes += bytes;
  r.rec->bytes_ns += dt;
  r.rec->chan_bytes[c] += bytes;
  r.rec->chan_ns[c] += dt;
  r.rec->series.push_back(dt);
}

/// One round: a windowed two-sided stream (rendezvous path), a PSCW put
/// epoch and a PSCW get epoch, all of `size` bytes per transfer.
void bulk_round(Rank& r, rma::Window& win, std::uint64_t seed, int pass,
                std::size_t round, std::size_t size, BulkBuffers& buf) {
  const int peer = 1 - r.id();
  const std::array<int, 1> peers{peer};
  std::byte token{};
  auto key = [&](std::uint64_t what) {
    return item_key(seed, pass, 3, round * 16 + what);
  };

  {
    Scope scope(r.log, SpanKind::kBenchStream, r.op, r.mpi.ctx().clock());
    std::vector<RequestPtr> reqs;
    if (r.id() == 1) {
      for (std::size_t j = 0; j < kBulkStreamWindow; ++j) {
        reqs.push_back(r.call(SpanKind::kIrecv, [&] {
          return r.mpi.irecv(peer, kTagBulk,
                             std::span(buf.stream[j].data(), size));
        }));
      }
      r.check(r.call(SpanKind::kSend, [&] {
        return r.mpi.send(peer, kTagReady, std::span(&token, 0));
      }));
      r.check(
          r.call(SpanKind::kWaitAll, [&] { return r.mpi.wait_all(reqs); }));
      for (std::size_t j = 0; j < kBulkStreamWindow; ++j) {
        r.check(reqs[j]->info().bytes == size &&
                payload_ok(std::span(buf.stream[j].data(), size), key(j)));
      }
      r.check(r.call(SpanKind::kSend, [&] {
        return r.mpi.send(peer, kTagAck, std::span(&token, 1));
      }));
    } else {
      for (std::size_t j = 0; j < kBulkStreamWindow; ++j) {
        fill_payload(std::span(buf.stream[j].data(), size), key(j));
      }
      r.check(r.call(SpanKind::kRecv, [&] {
                     return r.mpi.recv(peer, kTagReady, std::span(&token, 1));
                   }).is_ok());
      const double t0 = r.now();
      for (std::size_t j = 0; j < kBulkStreamWindow; ++j) {
        reqs.push_back(r.call(SpanKind::kIsend, [&] {
          return r.mpi.isend(peer, kTagBulk,
                             std::span(buf.stream[j].data(), size));
        }));
      }
      r.check(
          r.call(SpanKind::kWaitAll, [&] { return r.mpi.wait_all(reqs); }));
      r.check(r.call(SpanKind::kRecv, [&] {
                     return r.mpi.recv(peer, kTagAck, std::span(&token, 1));
                   }).is_ok());
      const double dt = r.now() - t0;
      record_bulk(r, kStream, dt,
                  static_cast<double>(kBulkStreamWindow * size));
      if (r.rec != nullptr) {
        r.rec->msgs += kBulkStreamWindow;
        r.rec->msg_ns += dt;
      }
    }
  }

  // PSCW put epoch: rank 0 puts into rank 1's segment, rank 1 checks it
  // and then writes the payload rank 0 will get.
  const std::span<std::byte> data(buf.onesided.data(), size);
  if (r.id() == 0) {
    fill_payload(data, key(8));
  }
  r.call(SpanKind::kBarrier, [&] { r.mpi.barrier(); });
  {
    Scope scope(r.log, SpanKind::kBenchPutEpoch, r.op, r.mpi.ctx().clock());
    if (r.id() == 1) {
      r.call(SpanKind::kPost, [&] { win.post(peers); });
      r.call(SpanKind::kWinWait, [&] { win.wait(peers); });
    } else {
      const double t0 = r.now();
      r.call(SpanKind::kStart, [&] { win.start(peers); });
      r.call(SpanKind::kPut, [&] { win.put(peer, 0, data); });
      r.call(SpanKind::kComplete, [&] { win.complete(peers); });
      record_bulk(r, kPut, r.now() - t0, static_cast<double>(size));
    }
  }
  if (r.id() == 1) {
    r.call(SpanKind::kReadLocal, [&] { win.read_local(0, data); });
    r.check(payload_ok(data, key(8)));
    fill_payload(data, key(9));
    r.call(SpanKind::kWriteLocal, [&] { win.write_local(0, data); });
  }

  r.call(SpanKind::kBarrier, [&] { r.mpi.barrier(); });
  {
    Scope scope(r.log, SpanKind::kBenchGetEpoch, r.op, r.mpi.ctx().clock());
    if (r.id() == 1) {
      r.call(SpanKind::kPost, [&] { win.post(peers); });
      r.call(SpanKind::kWinWait, [&] { win.wait(peers); });
    } else {
      std::memset(data.data(), 0, size);
      const double t0 = r.now();
      r.call(SpanKind::kStart, [&] { win.start(peers); });
      r.call(SpanKind::kGet, [&] { win.get(peer, 0, data); });
      r.call(SpanKind::kComplete, [&] { win.complete(peers); });
      record_bulk(r, kGet, r.now() - t0, static_cast<double>(size));
      r.check(payload_ok(data, key(9)));
    }
  }
}

void run_bulk(Rank& r, std::uint64_t seed, int pass, double& win_create_s,
              BulkBuffers& buf, const std::function<void()>& start_timing) {
  Rng rng{item_key(seed, pass, 0, 1)};
  const std::vector<std::size_t> sizes =
      stratified_sizes(rng, kBulkRounds, kBulkMin, kBulkMax, 64);
  const std::int64_t h0 = host_ns();
  rma::Window win = r.call(SpanKind::kWinCreate, [&] {
    return r.mpi.create_window("perfbench", kBulkMax);
  });
  if (r.id() == 0) {
    win_create_s = static_cast<double>(host_ns() - h0) * 1e-9;
  }
  bulk_round(r, win, seed, pass, kWarmup, kBulkMin, buf);
  start_timing();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    r.op = static_cast<std::uint32_t>(i);
    bulk_round(r, win, seed, pass, i, sizes[i], buf);
  }
  win.free();
}

// ---------------------------------------------------------------- cg-4r

constexpr int kTagHalo = 7;
constexpr std::size_t kCgLocal = 256;  // rows per rank
constexpr std::size_t kCgSteps = 48;   // steps per timed solve
constexpr std::size_t kCgSolves = 8;   // timed solves per pass
/// Steps of the warm-up solve: enough to touch every ring and cache line
/// the timed solves use, short enough to keep set-up time small.
constexpr std::size_t kCgWarmupSteps = 4;
/// Distributed and serial CG differ only in the order of the dot-product
/// sums, so every rho and the final x must agree to 1e-9 relative.
constexpr double kCgTolerance = 1e-9;

/// Serial CG on the 1D Laplacian tridiag(-1, 2, -1): the reference rho
/// after every step and the final x, for one right-hand side. The
/// distributed solve runs as many steps as `rho` holds.
struct CgReference {
  std::vector<double> b;
  std::vector<double> rho;
  std::vector<double> x;
};

double dot(const double* u, const double* v, std::size_t n) {
  double s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s += u[i] * v[i];
  }
  return s;
}

CgReference cg_reference(std::vector<double> b, std::size_t steps) {
  const std::size_t n = b.size();
  CgReference ref;
  std::vector<double> x(n, 0.0), res = b, p = b, ap(n);
  double rho = dot(res.data(), res.data(), n);
  for (std::size_t k = 0; k < steps; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      ap[i] = 2 * p[i] - (i > 0 ? p[i - 1] : 0) - (i + 1 < n ? p[i + 1] : 0);
    }
    const double alpha = rho / dot(p.data(), ap.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      res[i] -= alpha * ap[i];
    }
    const double next = dot(res.data(), res.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = res[i] + next / rho * p[i];
    }
    rho = next;
    ref.rho.push_back(rho);
  }
  ref.b = std::move(b);
  ref.x = std::move(x);
  return ref;
}

std::vector<CgReference> cg_inputs(std::uint64_t seed, int pass,
                                   int nranks) {
  std::vector<CgReference> solves;
  Rng rng{item_key(seed, pass, 0, 2)};
  for (std::size_t s = 0; s <= kCgSolves; ++s) {  // solve 0 is warm-up
    std::vector<double> b(kCgLocal * static_cast<std::size_t>(nranks));
    for (double& v : b) {
      v = 2 * rng.uniform() - 1;
    }
    solves.push_back(
        cg_reference(std::move(b), s == 0 ? kCgWarmupSteps : kCgSteps));
  }
  return solves;
}

bool close_to(double got, double want) {
  return std::abs(got - want) <= kCgTolerance * std::abs(want);
}

double allreduce_sum(Rank& r, double v) {
  r.call(SpanKind::kAllreduce,
         [&] { r.mpi.allreduce(std::span(&v, 1), ReduceOp::kSum); });
  return v;
}

/// One distributed CG solve; every step is a halo exchange plus two 8 B
/// allreduces, timed by rank 0 and checked against the serial reference.
void cg_solve(Rank& r, const CgReference& ref) {
  const int rank = r.id();
  const int nranks = r.mpi.size();
  const std::size_t lo = kCgLocal * static_cast<std::size_t>(rank);
  std::vector<double> x(kCgLocal, 0.0), res(kCgLocal), ap(kCgLocal);
  std::vector<double> p(kCgLocal + 2, 0.0);  // with one ghost at each end
  for (std::size_t i = 0; i < kCgLocal; ++i) {
    res[i] = ref.b[lo + i];
    p[i + 1] = res[i];
  }
  double rho = allreduce_sum(r, dot(res.data(), res.data(), kCgLocal));
  for (std::size_t k = 0; k < ref.rho.size(); ++k) {
    r.op = static_cast<std::uint32_t>(k);
    Scope scope(r.log, SpanKind::kBenchStep, r.op, r.mpi.ctx().clock());
    const double t0 = r.now();
    std::vector<RequestPtr> reqs;
    for (const int nb : {rank - 1, rank + 1}) {
      if (nb < 0 || nb >= nranks) {
        continue;
      }
      double* ghost = nb < rank ? &p[0] : &p[kCgLocal + 1];
      const double* edge = nb < rank ? &p[1] : &p[kCgLocal];
      reqs.push_back(r.call(SpanKind::kIrecv, [&] {
        return r.mpi.irecv(nb, kTagHalo,
                           std::as_writable_bytes(std::span(ghost, 1)));
      }));
      reqs.push_back(r.call(SpanKind::kIsend, [&] {
        return r.mpi.isend(nb, kTagHalo, std::as_bytes(std::span(edge, 1)));
      }));
    }
    r.check(r.call(SpanKind::kWaitAll, [&] { return r.mpi.wait_all(reqs); }));
    for (std::size_t i = 0; i < kCgLocal; ++i) {
      ap[i] = 2 * p[i + 1] - p[i] - p[i + 2];
    }
    const double alpha =
        rho / allreduce_sum(r, dot(&p[1], ap.data(), kCgLocal));
    for (std::size_t i = 0; i < kCgLocal; ++i) {
      x[i] += alpha * p[i + 1];
      res[i] -= alpha * ap[i];
    }
    const double next =
        allreduce_sum(r, dot(res.data(), res.data(), kCgLocal));
    for (std::size_t i = 0; i < kCgLocal; ++i) {
      p[i + 1] = res[i] + next / rho * p[i + 1];
    }
    rho = next;
    r.check(close_to(rho, ref.rho[k]));
    if (r.rec != nullptr) {
      const double dt = r.now() - t0;
      r.rec->lat_us.push_back(dt / 1e3);
      r.rec->series.push_back(dt);
    }
  }
  double worst = 0, scale = 0;
  for (std::size_t i = 0; i < kCgLocal; ++i) {
    worst = std::max(worst, std::abs(x[i] - ref.x[lo + i]));
    scale = std::max(scale, std::abs(ref.x[lo + i]));
  }
  r.check(worst <= kCgTolerance * scale);
}

void run_cg(Rank& r, const std::vector<CgReference>& solves,
            const std::function<void()>& start_timing) {
  // Closed-form allreduce check: the ranks' (rank + 1) sum to n(n+1)/2.
  const std::int64_t n = r.mpi.size();
  std::int64_t sum = r.id() + 1;
  r.call(SpanKind::kAllreduce,
         [&] { r.mpi.allreduce(std::span(&sum, 1), ReduceOp::kSum); });
  r.check(sum == n * (n + 1) / 2);
  cg_solve(r, solves[0]);
  start_timing();
  const double t0 = r.now();
  const p2p::CommStats before = r.mpi.stats();
  for (std::size_t s = 1; s < solves.size(); ++s) {
    cg_solve(r, solves[s]);
  }
  if (r.rec != nullptr) {
    const p2p::CommStats after = r.mpi.stats();
    const double dt = r.now() - t0;
    r.rec->msgs += static_cast<double>(after.messages_received -
                                       before.messages_received);
    r.rec->msg_ns += dt;
    r.rec->bytes +=
        static_cast<double>(after.bytes_received - before.bytes_received);
    r.rec->bytes_ns += dt;
  }
}

// -------------------------------------------------------------- harness

struct Workload {
  const char* name;
  unsigned nodes;
  unsigned ranks_per_node;
  std::size_t pool_size;
};

constexpr std::array<Workload, 3> kWorkloads{{
    {"eager-2r", 2, 1, std::size_t{64} << 20},
    {"bulk-2r", 2, 1, std::size_t{256} << 20},
    {"cg-4r", 2, 2, std::size_t{64} << 20},
}};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

PassOut run_pass(const Options& opt, int pass, bool traced) {
  const Workload& wl = *opt.workload;
  const std::string name = wl.name;
  const int nranks = static_cast<int>(wl.nodes * wl.ranks_per_node);
  PassOut out;
  out.spans.resize(traced ? static_cast<std::size_t>(nranks) : 0);
  const std::vector<CgReference> cg =
      name == "cg-4r" ? cg_inputs(opt.seed, pass, nranks)
                      : std::vector<CgReference>{};

  // The library's counters are read only in traced passes.
  obs::Config oc;
  oc.metrics = traced;
  obs::configure(oc);
  obs::MetricsRegistry::instance().reset_for_test();

  runtime::UniverseConfig cfg;
  cfg.nodes = wl.nodes;
  cfg.ranks_per_node = wl.ranks_per_node;
  cfg.pool_size = wl.pool_size;
  cfg.coherence_check = runtime::CoherenceChecking::kDisabled;
  cfg.tune.mode = tune::Tuning::kDisabled;

  // bulk-2r's transfer buffers are the driver's own memory, so they are
  // allocated and zeroed before set-up timing starts.
  std::vector<BulkBuffers> bulk(
      name == "bulk-2r" ? static_cast<std::size_t>(nranks) : 0);

  const double cpu0 = host_cpu_s();
  const std::int64_t h0 = host_ns();
  runtime::Universe universe(cfg);
  out.universe_ctor_s = static_cast<double>(host_ns() - h0) * 1e-9;

  std::mutex mu;  // guards the per-rank merges into `out`
  universe.run([&](runtime::RankCtx& ctx) {
    SpanLog* log =
        traced ? &out.spans[static_cast<std::size_t>(ctx.rank())] : nullptr;
    // Every rank has attached the arena once it passes this barrier, so
    // no attach-time free-list check can overlap the objects Session and
    // Window creation allocate (the check is not safe against concurrent
    // allocation; ROADMAP item 1).
    ctx.barrier();
    const std::int64_t s0 = host_ns();
    std::optional<Session> session;
    {
      Scope scope(log, SpanKind::kSessionCtor, 0, ctx.clock());
      session.emplace(ctx);
    }
    Rank r{*session, log};
    if (r.id() == 0) {
      out.session_ctor_s = static_cast<double>(host_ns() - s0) * 1e-9;
    }
    double vt_begin = 0;
    p2p::CommStats stats_begin;
    auto start_timing = [&] {
      r.call(SpanKind::kBarrier, [&] { r.mpi.barrier(); });
      vt_begin = r.now();
      stats_begin = r.mpi.stats();
      if (r.id() == 0) {
        out.e2e.setup_s = static_cast<double>(host_ns() - h0) * 1e-9;
        r.rec = &out.e2e;
      }
    };
    if (name == "eager-2r") {
      run_eager(r, opt.seed, pass, start_timing);
    } else if (name == "bulk-2r") {
      run_bulk(r, opt.seed, pass, out.win_create_s,
               bulk[static_cast<std::size_t>(r.id())], start_timing);
    } else {
      run_cg(r, cg, start_timing);
    }
    const double vt_end = r.now();
    const p2p::CommStats stats_end = r.mpi.stats();
    r.call(SpanKind::kBarrier, [&] { r.mpi.barrier(); });

    std::lock_guard lock(mu);
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.timed_vt_ns += vt_end - vt_begin;
    out.p2p.add_delta(stats_begin, stats_end);
  });
  out.host_wall_s = static_cast<double>(host_ns() - h0) * 1e-9;
  out.host_cpu_s = host_cpu_s() - cpu0;
  for (unsigned n = 0; n < wl.nodes; ++n) {
    const cxlsim::CacheSim::Stats s =
        universe.node_cache(static_cast<int>(n)).stats();
    out.cache.hits += s.hits;
    out.cache.misses += s.misses;
    out.cache.evictions += s.evictions;
  }
  out.recovery = universe.recovery_stats();
  if (traced) {
    out.metrics = obs::MetricsRegistry::instance().snapshot();
  }
  return out;
}

// -------------------------------------------------------------- reports

/// End-to-end metrics over a set of passes. setup_s is the median of the
/// passes' set-up times; the rest pool the passes' virtual-time samples.
Report end_to_end(const std::vector<PassOut>& passes) {
  std::vector<double> setup, lat;
  E2e sum;
  for (const PassOut& p : passes) {
    setup.push_back(p.e2e.setup_s);
    lat.insert(lat.end(), p.e2e.lat_us.begin(), p.e2e.lat_us.end());
    sum.msgs += p.e2e.msgs;
    sum.msg_ns += p.e2e.msg_ns;
    sum.bytes += p.e2e.bytes;
    sum.bytes_ns += p.e2e.bytes_ns;
  }
  Report rep;
  rep.add("setup_s", perfbench::median(setup), "s");
  // An op is a one-way eager message, one MiB of a bulk transfer, or one
  // CG step.
  rep.add_percentile("lat_p50_us", lat, 50, "us/op");
  rep.add_percentile("lat_p99_us", lat, 99, "us/op");
  rep.add("msgrate_mps", sum.msg_ns > 0 ? sum.msgs / sum.msg_ns * 1e9 : 0,
          "1/s");
  rep.add("bw_MBps", sum.bytes_ns > 0 ? sum.bytes / sum.bytes_ns * 1e3 : 0,
          "MB/s");
  return rep;
}

/// Per-layer metrics from the traced passes (spans, CommStats deltas,
/// cache and recovery stats, obs counters), with the untraced twins for
/// the host-time diagnostics and the tracing overhead. Counts are per
/// pass, so the number of passes a host manages does not move them.
Report per_layer(const std::vector<PassOut>& traced,
                 const std::vector<PassOut>& untraced) {
  const double npass = static_cast<double>(traced.size());
  std::map<SpanKind, std::vector<double>> vt, host;
  std::map<std::string, double> layer_self;
  double self_total = 0, step_ns = 0, step_allreduce_ns = 0;
  P2pTotals p2p;
  double timed_vt = 0, hits = 0, misses = 0, evictions = 0;
  double retransmits = 0, crc_failures = 0;
  std::map<std::string, double> counters, hist_sum, hist_count;
  std::map<std::string, double> gauges;
  E2e chan;
  for (const PassOut& p : traced) {
    for (const SpanLog& log : p.spans) {
      const std::vector<Span>& spans = log.spans();
      const std::vector<double> self = perfbench::self_times(spans);
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        vt[s.kind].push_back(s.vt1 - s.vt0);
        host[s.kind].push_back(static_cast<double>(s.h1 - s.h0));
        layer_self[std::string(perfbench::span_layer(s.kind))] += self[i];
        self_total += self[i];
        if (s.kind == SpanKind::kBenchStep) {
          step_ns += s.vt1 - s.vt0;
        }
        if (s.kind == SpanKind::kAllreduce && s.parent >= 0 &&
            spans[static_cast<std::size_t>(s.parent)].kind ==
                SpanKind::kBenchStep) {
          step_allreduce_ns += s.vt1 - s.vt0;
        }
      }
    }
    p2p += p.p2p;
    timed_vt += p.timed_vt_ns;
    hits += static_cast<double>(p.cache.hits);
    misses += static_cast<double>(p.cache.misses);
    evictions += static_cast<double>(p.cache.evictions);
    retransmits += static_cast<double>(p.recovery.retransmits);
    crc_failures += static_cast<double>(p.recovery.crc_failures);
    for (const auto& [k, v] : p.metrics.counters) {
      counters[k] += static_cast<double>(v);
    }
    for (const auto& [k, v] : p.metrics.gauges) {
      gauges[k] = std::max(gauges[k], static_cast<double>(v));
    }
    for (const auto& [k, h] : p.metrics.histograms) {
      hist_sum[k] += h.sum;
      hist_count[k] += static_cast<double>(h.count);
    }
    for (std::size_t c = 0; c < chan.chan_bytes.size(); ++c) {
      chan.chan_bytes[c] += p.e2e.chan_bytes[c];
      chan.chan_ns[c] += p.e2e.chan_ns[c];
    }
  }
  auto per_pass = [&](double v) { return npass > 0 ? v / npass : 0; };
  auto mbps = [&](Channel c) {
    const double ns = chan.chan_ns[c];
    return ns > 0 ? chan.chan_bytes[c] / ns * 1e3 : 0;
  };
  auto scaled = [](std::vector<double> v, double k) {
    for (double& x : v) {
      x *= k;
    }
    return v;
  };

  Report rep;
  // p2p
  rep.add_percentile("p2p.send.vt_ns_p50", vt[SpanKind::kSend], 50, "ns");
  rep.add_percentile("p2p.recv.vt_ns_p50", vt[SpanKind::kRecv], 50, "ns");
  rep.add_percentile("p2p.wait_all.vt_ns_p50", vt[SpanKind::kWaitAll], 50,
                     "ns");
  rep.add_percentile("p2p.isend.host_ns_p50", host[SpanKind::kIsend], 50,
                     "ns");
  rep.add_ratio("p2p.unexpected_share", {p2p.unexpected, p2p.received},
                "count");
  rep.add_ratio("p2p.cells_per_publish", {p2p.cells, p2p.batches}, "count");
  rep.add_ratio("p2p.doorbell_coalesce",
                {p2p.suppressed, p2p.rings + p2p.suppressed}, "count");
  rep.add_ratio("p2p.cells_per_reap",
                {hist_sum["p2p.cells_per_reap"],
                 hist_count["p2p.cells_per_reap"]},
                "count");
  rep.add_ratio("p2p.rendezvous_share", {p2p.rendezvous, p2p.sent}, "count");
  rep.add("p2p.rendezvous_fallbacks", per_pass(p2p.fallbacks), "count/pass");
  rep.add_ratio("p2p.wait_share", {p2p.wait_ns, timed_vt}, "ns");
  rep.add("p2p.stream_MBps", mbps(kStream), "MB/s");
  // arena
  const double reuse = counters["p2p.rdvz_slot_reuse"];
  rep.add_ratio("arena.rdvz_slot_reuse_ratio",
                {reuse, reuse + counters["p2p.rdvz_slot_create"]}, "count");
  // queue
  rep.add("queue.enqueues", per_pass(counters["ring.enqueues"]),
          "count/pass");
  rep.add("queue.occupancy_hwm", gauges["ring.occupancy_hwm"], "cells");
  // cxlsim
  rep.add("cxlsim.flush_lines", per_pass(counters["cxl.flush_lines"]),
          "count/pass");
  rep.add("cxlsim.dev_write_wait_ns",
          per_pass(hist_sum["cxl.dev_write_wait_ns"]), "ns/pass");
  rep.add("cxlsim.dev_read_wait_ns",
          per_pass(hist_sum["cxl.dev_read_wait_ns"]), "ns/pass");
  rep.add("cxlsim.bulk_write_bytes",
          per_pass(counters["cxl.bulk_write_bytes"]), "B/pass");
  rep.add("cxlsim.bulk_read_bytes", per_pass(counters["cxl.bulk_read_bytes"]),
          "B/pass");
  rep.add_ratio("cxlsim.cache_hit_ratio", {hits, hits + misses}, "count");
  rep.add("cxlsim.evictions", per_pass(evictions), "count/pass");
  // rma
  rep.add_percentile("rma.put.vt_ns_p50", vt[SpanKind::kPut], 50, "ns");
  rep.add_percentile("rma.get.vt_ns_p50", vt[SpanKind::kGet], 50, "ns");
  rep.add_percentile("rma.complete.vt_ns_p50", vt[SpanKind::kComplete], 50,
                     "ns");
  rep.add_percentile("rma.wait.vt_ns_p50", vt[SpanKind::kWinWait], 50, "ns");
  rep.add("rma.put_MBps", mbps(kPut), "MB/s");
  rep.add("rma.get_MBps", mbps(kGet), "MB/s");
  // coll
  const std::vector<double> allreduce_us =
      scaled(vt[SpanKind::kAllreduce], 1e-3);
  rep.add_percentile("coll.allreduce.vt_us_p50", allreduce_us, 50, "us");
  rep.add_percentile("coll.allreduce.vt_us_p99", allreduce_us, 99, "us");
  rep.add_ratio("coll.allreduce.share", {step_allreduce_ns, step_ns}, "ns");
  // runtime: set-up parts over every pass, host diagnostics over the
  // untraced passes only (tracing inflates host time).
  std::vector<double> uctor, sctor, wcreate, wall, cpu;
  double wall_sum = 0, cpu_sum = 0;
  for (const auto* set : {&traced, &untraced}) {
    for (const PassOut& p : *set) {
      uctor.push_back(p.universe_ctor_s);
      sctor.push_back(p.session_ctor_s);
      wcreate.push_back(p.win_create_s);
    }
  }
  for (const PassOut& p : untraced) {
    wall.push_back(p.host_wall_s);
    cpu.push_back(p.host_cpu_s);
    wall_sum += p.host_wall_s;
    cpu_sum += p.host_cpu_s;
  }
  rep.add("runtime.universe_ctor_s", perfbench::median(uctor), "s");
  rep.add("runtime.session_ctor_s", perfbench::median(sctor), "s");
  rep.add("rma.create_s", perfbench::median(wcreate), "s");
  rep.add_percentile("runtime.barrier.vt_us_p50",
                     scaled(vt[SpanKind::kBarrier], 1e-3), 50, "us");
  rep.add("runtime.host_wall_s", perfbench::median(wall), "s");
  rep.add("runtime.host_cpu_s", perfbench::median(cpu), "s");
  rep.add_ratio("runtime.host_sleep_share",
                {std::max(0.0, wall_sum - cpu_sum), wall_sum}, "s");
  // recovery: wasted work, expected to stay 0
  rep.add("recovery.retransmits", per_pass(retransmits), "count/pass");
  rep.add("recovery.crc_failures", per_pass(crc_failures), "count/pass");
  // virtual self time by layer, over all spans
  for (const char* layer : {"p2p", "rma", "coll", "runtime", "bench"}) {
    rep.add_ratio(std::string("self.") + layer + ".vt_share",
                  {layer_self[layer], self_total}, "ns");
  }
  // tracing overhead: traced pass k against its untraced twin
  double traced_wall = 0, twin_wall = 0;
  for (std::size_t k = 0; k < traced.size() && k < untraced.size(); ++k) {
    traced_wall += traced[k].host_wall_s;
    twin_wall += untraced[k].host_wall_s;
  }
  rep.add_ratio("trace.overhead_share", {traced_wall - twin_wall, twin_wall},
                "s");
  return rep;
}

/// Per-kind span summary: count, total and self virtual time, host time.
void print_span_table(const std::vector<PassOut>& traced) {
  struct Row {
    double n = 0, vt = 0, self_vt = 0, host = 0;
  };
  std::map<SpanKind, Row> rows;
  for (const PassOut& p : traced) {
    for (const SpanLog& log : p.spans) {
      const std::vector<double> self = perfbench::self_times(log.spans());
      for (std::size_t i = 0; i < log.spans().size(); ++i) {
        const Span& s = log.spans()[i];
        Row& row = rows[s.kind];
        row.n += 1;
        row.vt += s.vt1 - s.vt0;
        row.self_vt += self[i];
        row.host += static_cast<double>(s.h1 - s.h0);
      }
    }
  }
  std::printf("spans over %zu traced passes (virtual ns, host ns)\n",
              traced.size());
  std::printf("  %-22s %10s %16s %16s %16s\n", "span", "count", "vt_total",
              "vt_self", "host_total");
  for (const auto& [kind, row] : rows) {
    std::printf("  %-22s %10.0f %16.0f %16.0f %16.0f\n",
                std::string(perfbench::span_name(kind)).c_str(), row.n,
                row.vt, row.self_vt, row.host);
  }
}

void write_spans(const std::string& path, const PassOut& pass) {
  std::ofstream os(path);
  os << "rank,span,parent,op,vt0_ns,vt1_ns,vt_self_ns,host0_ns,host1_ns\n";
  for (std::size_t rank = 0; rank < pass.spans.size(); ++rank) {
    const std::vector<Span>& spans = pass.spans[rank].spans();
    const std::vector<double> self = perfbench::self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << rank << ',' << perfbench::span_name(s.kind) << ',' << s.parent
         << ',' << s.op << ',' << s.vt0 << ',' << s.vt1 << ',' << self[i]
         << ',' << s.h0 << ',' << s.h1 << '\n';
    }
  }
}

/// Pin the whole process (and so every rank thread it starts) to the
/// first CPU it may run on. Unpinned rank threads let the host scheduler
/// reorder them, which moves multi-rank virtual time and host time alike.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return -1;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Untraced samples a run needs so that lat_p99_us is not refused.
constexpr std::size_t kMinE2eSamples = 100 * perfbench::kMinSamplesBeyond;
/// Measuring stops here even short of kMinE2eSamples (the run then
/// reports correct=false), keeping a run well inside three minutes.
constexpr std::int64_t kHardCapNs = std::int64_t{120} * 1'000'000'000;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "eager-2r|bulk-2r|cg-4r --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& wl : kWorkloads) {
        if (value == wl.name) {
          opt.workload = &wl;
        }
      }
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--spans-out") {
      opt.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload == nullptr || !(opt.seconds > 0)) {
    usage("missing or unknown --workload, or --seconds not positive");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const int cpu = pin_to_one_cpu();
  // Keep freed heap memory in the process and serve even multi-MiB
  // buffers from the heap, so each pass reuses the previous pass's pages
  // instead of faulting in fresh ones: set-up time then measures the
  // library's work, not the kernel zeroing pages.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d pinned_cpu=%d\n",
              opt.workload->name, static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, cpu);

  // Untraced mode: passes 0, 1, 2, ... Traced mode: untraced pass k, then
  // a traced pass over the same inputs. Stop once the time is up and at
  // least three untraced (or two traced) passes are done.
  // One discarded pass first, so process-wide lazy set-up (allocator
  // arenas, first page faults, thread stacks) lands in no measurement.
  run_pass(opt, 0, false);
  const std::int64_t start = host_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<PassOut> untraced, traced;
  std::size_t samples = 0;
  for (int k = 0;; ++k) {
    const bool tr = opt.trace && k % 2 == 1;
    const int input = opt.trace ? k / 2 : k;
    PassOut p = run_pass(opt, input, tr);
    std::printf("pass %d%s: setup %.4f s (universe %.4f s), host %.3f s, "
                "%zu samples, %llu/%llu checks failed\n",
                input, tr ? " traced" : "", p.e2e.setup_s, p.universe_ctor_s,
                p.host_wall_s,
                p.e2e.lat_us.size(),
                static_cast<unsigned long long>(p.failed),
                static_cast<unsigned long long>(p.attempted));
    samples += tr ? 0 : p.e2e.lat_us.size();
    (tr ? traced : untraced).push_back(std::move(p));
    // Untraced runs also go on until p99 has its ten samples beyond it,
    // unless a slow host would then overrun the hard cap.
    const bool enough = opt.trace ? tr && traced.size() >= 2
                                  : untraced.size() >= 3 &&
                                        (samples >= kMinE2eSamples ||
                                         host_ns() - start > kHardCapNs);
    if (enough && host_ns() >= deadline) {
      break;
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&untraced, &traced}) {
    for (const PassOut& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
    }
  }
  // The digest covers pass 0 only: its inputs are fixed by the seed, so
  // equal binaries and seeds should give equal digests.
  std::printf("vt_digest %s seed=%llu pass0=%s\n", opt.workload->name,
              static_cast<unsigned long long>(opt.seed),
              hex(perfbench::digest(untraced[0].e2e.series)).c_str());

  const Report e2e = end_to_end(untraced);
  e2e.print_lines("end-to-end (untraced passes)");
  std::string extra;
  const std::size_t refused = e2e.refused().size();
  Report shown = e2e;
  if (opt.trace) {
    const Report traced_e2e = end_to_end(traced);
    traced_e2e.print_lines("end-to-end (traced passes, same inputs)");
    std::printf("vt_digest_traced %s seed=%llu pass0=%s\n",
                opt.workload->name, static_cast<unsigned long long>(opt.seed),
                hex(perfbench::digest(traced[0].e2e.series)).c_str());
    print_span_table(traced);
    shown = per_layer(traced, untraced);
    shown.print_lines("per-layer (traced passes)");
    extra = ", \"untraced\": " + e2e.json() +
            ", \"traced\": " + traced_e2e.json() +
            ", \"untraced_refused\": " + e2e.refused_json() +
            ", \"traced_refused\": " + traced_e2e.refused_json();
    if (!opt.spans_out.empty()) {
      write_spans(opt.spans_out, traced.back());
    }
  }
  if (refused > 0) {
    std::printf("perfbench: %zu end-to-end percentile(s) refused: too few "
                "samples\n",
                refused);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s%s}\n",
              failed == 0 && (opt.trace || refused == 0) ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), shown.json().c_str(),
              extra.c_str());
  return 0;
}
