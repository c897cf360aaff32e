#include "osu/drivers.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <span>

#include "core/cmpi.hpp"
#include "queue/queue_matrix.hpp"

namespace cmpi::osu {
namespace {

constexpr int kBwTag = 11;
constexpr int kAckTag = 12;

std::vector<std::byte> make_payload(std::size_t size) {
  std::vector<std::byte> data(std::max<std::size_t>(size, 1));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i & 0xFF);
  }
  data.resize(size);
  return data;
}

/// Collects one value per sweep size from rank 0.
class ResultBoard {
 public:
  explicit ResultBoard(std::size_t n) : values_(n, 0.0) {}
  void set(std::size_t i, double v) {
    std::lock_guard lock(mutex_);
    values_[i] = v;
  }
  std::vector<double> take() { return values_; }

 private:
  std::mutex mutex_;
  std::vector<double> values_;
};

}  // namespace

int window_for(const SweepParams& params, std::size_t size) {
  const std::size_t w = params.window_bytes / std::max<std::size_t>(size, 1);
  return static_cast<int>(std::clamp<std::size_t>(w, 2, 32));
}

std::vector<std::size_t> osu_sizes(std::size_t max) {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1; s <= max; s *= 2) {
    sizes.push_back(s);
  }
  return sizes;
}

runtime::UniverseConfig bench_universe_config(const SweepParams& params) {
  runtime::UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = static_cast<unsigned>(params.procs) / 2;
  cfg.cell_payload = params.cell_payload;
  cfg.ring_cells = params.ring_cells;
  cfg.rendezvous_threshold = params.rendezvous_threshold;
  cfg.arena_params.levels = 4;
  cfg.arena_params.level1_buckets = 127;
  // Pool: ring matrix + windows + metadata, with generous slack. The memfd
  // is sparse, so an over-sized pool costs only touched pages.
  const std::size_t matrix = queue::QueueMatrix::footprint(
      params.procs, params.ring_cells, params.cell_payload);
  const std::size_t max_size =
      params.sizes.empty()
          ? 1
          : *std::max_element(params.sizes.begin(), params.sizes.end());
  cfg.pool_size =
      std::max<std::size_t>(256_MiB,
                            2 * matrix + 4 * static_cast<std::size_t>(
                                                 params.procs) *
                                             max_size +
                                64_MiB);
  return cfg;
}

// ---------------- cMPI over CXL ----------------

std::vector<double> cxl_twosided_bw_mbps(const SweepParams& params) {
  CMPI_EXPECTS(params.procs >= 2 && params.procs % 2 == 0);
  runtime::Universe universe(bench_universe_config(params));
  ResultBoard board(params.sizes.size());
  const int pairs = params.procs / 2;
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const bool is_sender = ctx.rank() < pairs;
    const int peer = is_sender ? ctx.rank() + pairs : ctx.rank() - pairs;
    for (std::size_t si = 0; si < params.sizes.size(); ++si) {
      const std::size_t size = params.sizes[si];
      const int window = window_for(params, size);
      const auto payload = make_payload(size);
      std::vector<std::byte> inbox(size);
      std::byte ack[4];
      ctx.barrier();
      double start = 0;
      for (int it = -params.warmup; it < params.iters; ++it) {
        if (it == 0) {
          ctx.barrier();
          start = ctx.clock().now();
        }
        if (is_sender) {
          std::vector<p2p::RequestPtr> reqs;
          reqs.reserve(static_cast<std::size_t>(window));
          for (int w = 0; w < window; ++w) {
            reqs.push_back(mpi.isend(peer, kBwTag, payload));
          }
          check_ok(mpi.wait_all(reqs));
          check_ok(mpi.recv(peer, kAckTag, ack).status());
        } else {
          std::vector<p2p::RequestPtr> reqs;
          reqs.reserve(static_cast<std::size_t>(window));
          for (int w = 0; w < window; ++w) {
            reqs.push_back(mpi.irecv(peer, kBwTag, inbox));
          }
          check_ok(mpi.wait_all(reqs));
          check_ok(mpi.send(peer, kAckTag, ack));
        }
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        const double elapsed = ctx.clock().now() - start;
        const double bytes = static_cast<double>(pairs) * params.iters *
                             window * static_cast<double>(size);
        board.set(si, bytes / elapsed * 1e3);  // MB/s
      }
    }
  });
  return board.take();
}

std::vector<double> cxl_twosided_latency_us(const SweepParams& params) {
  CMPI_EXPECTS(params.procs >= 2 && params.procs % 2 == 0);
  runtime::Universe universe(bench_universe_config(params));
  ResultBoard board(params.sizes.size());
  const int pairs = params.procs / 2;
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const bool is_sender = ctx.rank() < pairs;
    const int peer = is_sender ? ctx.rank() + pairs : ctx.rank() - pairs;
    for (std::size_t si = 0; si < params.sizes.size(); ++si) {
      const std::size_t size = params.sizes[si];
      const auto payload = make_payload(size);
      std::vector<std::byte> inbox(size);
      ctx.barrier();
      double start = 0;
      for (int it = -params.warmup; it < params.iters; ++it) {
        if (it == 0) {
          ctx.barrier();
          start = ctx.clock().now();
        }
        if (is_sender) {
          check_ok(mpi.send(peer, kBwTag, payload));
          check_ok(mpi.recv(peer, kBwTag, inbox).status());
        } else {
          check_ok(mpi.recv(peer, kBwTag, inbox).status());
          check_ok(mpi.send(peer, kBwTag, payload));
        }
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        const double elapsed = ctx.clock().now() - start;
        board.set(si, elapsed / params.iters / 2.0 / 1e3);  // one-way us
      }
    }
  });
  return board.take();
}

std::vector<double> cxl_onesided_bw_mbps(const SweepParams& params) {
  CMPI_EXPECTS(params.procs >= 2 && params.procs % 2 == 0);
  runtime::Universe universe(bench_universe_config(params));
  ResultBoard board(params.sizes.size());
  const int pairs = params.procs / 2;
  const std::size_t max_size =
      *std::max_element(params.sizes.begin(), params.sizes.end());
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    rma::Window win = mpi.create_window("osu_bw", max_size);
    const bool is_origin = ctx.rank() < pairs;
    const int peer = is_origin ? ctx.rank() + pairs : ctx.rank() - pairs;
    const std::array<int, 1> peer_group{peer};
    for (std::size_t si = 0; si < params.sizes.size(); ++si) {
      const std::size_t size = params.sizes[si];
      const int window = window_for(params, size);
      const auto payload = make_payload(size);
      ctx.barrier();
      double start = 0;
      for (int it = -params.warmup; it < params.iters; ++it) {
        if (it == 0) {
          ctx.barrier();
          start = ctx.clock().now();
        }
        if (is_origin) {
          win.start(peer_group);
          for (int w = 0; w < window; ++w) {
            win.put(peer, 0, payload);
          }
          win.complete(peer_group);
        } else {
          win.post(peer_group);
          win.wait(peer_group);
        }
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        const double elapsed = ctx.clock().now() - start;
        const double bytes = static_cast<double>(pairs) * params.iters *
                             window * static_cast<double>(size);
        board.set(si, bytes / elapsed * 1e3);
      }
    }
    win.free();
  });
  return board.take();
}

std::vector<double> cxl_onesided_latency_us(const SweepParams& params) {
  CMPI_EXPECTS(params.procs >= 2 && params.procs % 2 == 0);
  runtime::Universe universe(bench_universe_config(params));
  ResultBoard board(params.sizes.size());
  const int pairs = params.procs / 2;
  const std::size_t max_size =
      *std::max_element(params.sizes.begin(), params.sizes.end());
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    rma::Window win = mpi.create_window("osu_lat", max_size);
    const bool is_origin = ctx.rank() < pairs;
    const int peer = is_origin ? ctx.rank() + pairs : ctx.rank() - pairs;
    const std::array<int, 1> peer_group{peer};
    for (std::size_t si = 0; si < params.sizes.size(); ++si) {
      const std::size_t size = params.sizes[si];
      const auto payload = make_payload(size);
      ctx.barrier();
      double start = 0;
      for (int it = -params.warmup; it < params.iters; ++it) {
        if (it == 0) {
          ctx.barrier();
          start = ctx.clock().now();
        }
        if (is_origin) {
          win.start(peer_group);
          win.put(peer, 0, payload);
          win.complete(peer_group);
        } else {
          win.post(peer_group);
          win.wait(peer_group);
        }
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        const double elapsed = ctx.clock().now() - start;
        board.set(si, elapsed / params.iters / 1e3);  // per-op us
      }
    }
    win.free();
  });
  return board.take();
}

double cxl_msgrate_fanin(const MsgRateParams& params) {
  CMPI_EXPECTS(params.senders >= 1 && params.size >= 1);
  const int receiver = params.senders;  // last rank; one rank per node
  runtime::UniverseConfig cfg;
  cfg.nodes = static_cast<unsigned>(params.senders + 1);
  cfg.ranks_per_node = 1;
  // Small cells: at 8-byte payloads the per-cell protocol cost IS the
  // benchmark; a 64 KiB cell would only waste pool space.
  cfg.cell_payload = 4 * 1024;
  cfg.ring_cells = params.ring_cells;
  const std::size_t matrix = queue::QueueMatrix::footprint(
      params.senders + 1, cfg.ring_cells, cfg.cell_payload);
  cfg.pool_size = std::max<std::size_t>(64_MiB, 2 * matrix + 32_MiB);
  runtime::Universe universe(cfg);
  ResultBoard board(1);
  universe.run([&](runtime::RankCtx& ctx) {
    Session mpi(ctx);
    const bool is_receiver = ctx.rank() == receiver;
    const auto payload = make_payload(params.size);
    std::byte ack[4] = {};
    const std::size_t per_iter =
        static_cast<std::size_t>(params.senders) *
        static_cast<std::size_t>(params.window);
    ctx.barrier();
    double start = 0;
    for (int it = -params.warmup; it < params.iters; ++it) {
      if (it == 0) {
        ctx.barrier();
        start = ctx.clock().now();
      }
      if (is_receiver) {
        std::vector<std::byte> inboxes(per_iter * params.size);
        std::vector<p2p::RequestPtr> reqs;
        reqs.reserve(per_iter);
        for (int s = 0; s < params.senders; ++s) {
          for (int w = 0; w < params.window; ++w) {
            const std::size_t slot =
                static_cast<std::size_t>(s) *
                    static_cast<std::size_t>(params.window) +
                static_cast<std::size_t>(w);
            reqs.push_back(mpi.irecv(
                s, kBwTag,
                std::span<std::byte>(inboxes)
                    .subspan(slot * params.size, params.size)));
          }
        }
        check_ok(mpi.wait_all(reqs));
        for (int s = 0; s < params.senders; ++s) {
          check_ok(mpi.send(s, kAckTag, ack));
        }
      } else {
        std::vector<p2p::RequestPtr> reqs;
        reqs.reserve(static_cast<std::size_t>(params.window));
        for (int w = 0; w < params.window; ++w) {
          reqs.push_back(mpi.isend(receiver, kBwTag, payload));
        }
        check_ok(mpi.wait_all(reqs));
        check_ok(mpi.recv(receiver, kAckTag, ack).status());
      }
    }
    ctx.barrier();
    if (is_receiver) {
      const double elapsed_ns = ctx.clock().now() - start;
      const double msgs =
          static_cast<double>(per_iter) * static_cast<double>(params.iters);
      board.set(0, msgs / elapsed_ns * 1e9);  // messages/second
    }
  });
  return board.take()[0];
}

// ---------------- MPI over a modeled NIC ----------------

namespace {

fabric::NetConfig net_config(const fabric::NicProfile& profile,
                             const SweepParams& params) {
  fabric::NetConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = static_cast<unsigned>(params.procs) / 2;
  cfg.profile = profile;
  return cfg;
}

}  // namespace

std::vector<double> net_twosided_bw_mbps(const fabric::NicProfile& profile,
                                         const SweepParams& params) {
  CMPI_EXPECTS(params.procs >= 2 && params.procs % 2 == 0);
  fabric::NetUniverse universe(net_config(profile, params));
  ResultBoard board(params.sizes.size());
  const int pairs = params.procs / 2;
  universe.run([&](fabric::NetCtx& ctx) {
    const bool is_sender = ctx.rank() < pairs;
    const int peer = is_sender ? ctx.rank() + pairs : ctx.rank() - pairs;
    for (std::size_t si = 0; si < params.sizes.size(); ++si) {
      const std::size_t size = params.sizes[si];
      const int window = window_for(params, size);
      const auto payload = make_payload(size);
      std::vector<std::byte> inbox(size);
      std::byte ack[4];
      ctx.barrier();
      double start = 0;
      for (int it = -params.warmup; it < params.iters; ++it) {
        if (it == 0) {
          ctx.barrier();
          start = ctx.clock().now();
        }
        if (is_sender) {
          for (int w = 0; w < window; ++w) {
            ctx.send(peer, kBwTag, payload);
          }
          ctx.recv(peer, kAckTag, ack);
        } else {
          for (int w = 0; w < window; ++w) {
            ctx.recv(peer, kBwTag, inbox);
          }
          ctx.send(peer, kAckTag, ack);
        }
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        const double elapsed = ctx.clock().now() - start;
        const double bytes = static_cast<double>(pairs) * params.iters *
                             window * static_cast<double>(size);
        board.set(si, bytes / elapsed * 1e3);
      }
    }
  });
  return board.take();
}

std::vector<double> net_twosided_latency_us(const fabric::NicProfile& profile,
                                            const SweepParams& params) {
  CMPI_EXPECTS(params.procs >= 2 && params.procs % 2 == 0);
  fabric::NetUniverse universe(net_config(profile, params));
  ResultBoard board(params.sizes.size());
  const int pairs = params.procs / 2;
  universe.run([&](fabric::NetCtx& ctx) {
    const bool is_sender = ctx.rank() < pairs;
    const int peer = is_sender ? ctx.rank() + pairs : ctx.rank() - pairs;
    for (std::size_t si = 0; si < params.sizes.size(); ++si) {
      const std::size_t size = params.sizes[si];
      const auto payload = make_payload(size);
      std::vector<std::byte> inbox(size);
      ctx.barrier();
      double start = 0;
      for (int it = -params.warmup; it < params.iters; ++it) {
        if (it == 0) {
          ctx.barrier();
          start = ctx.clock().now();
        }
        if (is_sender) {
          ctx.send(peer, kBwTag, payload);
          ctx.recv(peer, kBwTag, inbox);
        } else {
          ctx.recv(peer, kBwTag, inbox);
          ctx.send(peer, kBwTag, payload);
        }
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        const double elapsed = ctx.clock().now() - start;
        board.set(si, elapsed / params.iters / 2.0 / 1e3);
      }
    }
  });
  return board.take();
}

std::vector<double> net_onesided_bw_mbps(const fabric::NicProfile& profile,
                                         const SweepParams& params) {
  CMPI_EXPECTS(params.procs >= 2 && params.procs % 2 == 0);
  fabric::NetUniverse universe(net_config(profile, params));
  ResultBoard board(params.sizes.size());
  const int pairs = params.procs / 2;
  const std::size_t max_size =
      *std::max_element(params.sizes.begin(), params.sizes.end());
  universe.run([&](fabric::NetCtx& ctx) {
    fabric::NetWindow win(ctx, "osu_bw", max_size);
    const bool is_origin = ctx.rank() < pairs;
    const int peer = is_origin ? ctx.rank() + pairs : ctx.rank() - pairs;
    const std::array<int, 1> peer_group{peer};
    for (std::size_t si = 0; si < params.sizes.size(); ++si) {
      const std::size_t size = params.sizes[si];
      const int window = window_for(params, size);
      const auto payload = make_payload(size);
      ctx.barrier();
      double start = 0;
      for (int it = -params.warmup; it < params.iters; ++it) {
        if (it == 0) {
          ctx.barrier();
          start = ctx.clock().now();
        }
        if (is_origin) {
          win.start(peer_group);
          for (int w = 0; w < window; ++w) {
            win.put(peer, 0, payload);
          }
          win.complete(peer_group);
        } else {
          win.post(peer_group);
          win.wait(peer_group);
        }
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        const double elapsed = ctx.clock().now() - start;
        const double bytes = static_cast<double>(pairs) * params.iters *
                             window * static_cast<double>(size);
        board.set(si, bytes / elapsed * 1e3);
      }
    }
  });
  return board.take();
}

std::vector<double> net_onesided_latency_us(const fabric::NicProfile& profile,
                                            const SweepParams& params) {
  CMPI_EXPECTS(params.procs >= 2 && params.procs % 2 == 0);
  fabric::NetUniverse universe(net_config(profile, params));
  ResultBoard board(params.sizes.size());
  const int pairs = params.procs / 2;
  const std::size_t max_size =
      *std::max_element(params.sizes.begin(), params.sizes.end());
  universe.run([&](fabric::NetCtx& ctx) {
    fabric::NetWindow win(ctx, "osu_lat", max_size);
    const bool is_origin = ctx.rank() < pairs;
    const int peer = is_origin ? ctx.rank() + pairs : ctx.rank() - pairs;
    const std::array<int, 1> peer_group{peer};
    for (std::size_t si = 0; si < params.sizes.size(); ++si) {
      const std::size_t size = params.sizes[si];
      const auto payload = make_payload(size);
      ctx.barrier();
      double start = 0;
      for (int it = -params.warmup; it < params.iters; ++it) {
        if (it == 0) {
          ctx.barrier();
          start = ctx.clock().now();
        }
        if (is_origin) {
          win.start(peer_group);
          win.put(peer, 0, payload);
          win.complete(peer_group);
        } else {
          win.post(peer_group);
          win.wait(peer_group);
        }
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        const double elapsed = ctx.clock().now() - start;
        board.set(si, elapsed / params.iters / 1e3);
      }
    }
  });
  return board.take();
}

}  // namespace cmpi::osu
