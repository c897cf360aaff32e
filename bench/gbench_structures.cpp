// Wall-clock microbenchmarks (google-benchmark) of the data structures on
// the cMPI hot paths: the multi-level hash, the SPSC ring's functional
// operations, the per-node cache simulator, and the slotted bandwidth
// server, plus the set-up every run pays: arena format and a whole
// Universe's construction. These measure real host CPU cost (the
// simulator's own speed), complementing the virtual-time figure benches.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "arena/arena.hpp"
#include "arena/multilevel_hash.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "cxlsim/accessor.hpp"
#include "queue/spsc_ring.hpp"
#include "runtime/universe.hpp"
#include "simtime/busy_resource.hpp"

namespace {

using namespace cmpi;

void BM_HashString(benchmark::State& state) {
  const std::string key = "cmpi_win_osu_bw_window_object";
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash_string(key, 7));
  }
}
BENCHMARK(BM_HashString);

void BM_MultilevelProbe(benchmark::State& state) {
  const auto index = check_ok(arena::MultilevelHash::create(10, 199999));
  const std::string key = "rma_window_object_42";
  for (auto _ : state) {
    for (std::size_t l = 0; l < index.levels(); ++l) {
      benchmark::DoNotOptimize(index.slot_of(key, l));
    }
  }
}
BENCHMARK(BM_MultilevelProbe);

void BM_RngNext(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

void BM_BusyResourceReserve(benchmark::State& state) {
  simtime::BusyResource device(9.9);
  simtime::Ns t = 0;
  for (auto _ : state) {
    t = device.reserve(t, 4096);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_BusyResourceReserve);

void BM_CacheSimReadHit(benchmark::State& state) {
  auto device = check_ok(cxlsim::DaxDevice::create(16_MiB));
  cxlsim::CacheSim cache(*device);
  std::byte buf[64];
  cache.read(4096, buf);  // warm the line
  for (auto _ : state) {
    cache.read(4096, buf);
  }
}
BENCHMARK(BM_CacheSimReadHit);

void BM_CacheSimWriteFlush(benchmark::State& state) {
  auto device = check_ok(cxlsim::DaxDevice::create(16_MiB));
  cxlsim::CacheSim cache(*device);
  const std::vector<std::byte> data(
      static_cast<std::size_t>(state.range(0)), std::byte{1});
  for (auto _ : state) {
    cache.write(4096, data);
    cache.clflush(4096, data.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CacheSimWriteFlush)->Arg(64)->Arg(4096)->Arg(65536);

void BM_SpscRingRoundTrip(benchmark::State& state) {
  auto device = check_ok(cxlsim::DaxDevice::create(16_MiB));
  cxlsim::CacheSim cache_a(*device);
  cxlsim::CacheSim cache_b(*device);
  simtime::VClock clock_a;
  simtime::VClock clock_b;
  cxlsim::Accessor producer_acc(*device, cache_a, clock_a);
  cxlsim::Accessor consumer_acc(*device, cache_b, clock_b);
  queue::SpscRing::format(producer_acc, 0, 8,
                          static_cast<std::size_t>(state.range(0)));
  auto producer = check_ok(queue::SpscRing::attach(producer_acc, 0));
  auto consumer = check_ok(queue::SpscRing::attach(consumer_acc, 0));
  const std::vector<std::byte> payload(
      static_cast<std::size_t>(state.range(0)), std::byte{1});
  std::vector<std::byte> out(payload.size());
  queue::CellHeader header{};
  header.total_bytes = payload.size();
  header.chunk_bytes = payload.size();
  header.flags = queue::kLastChunk;
  queue::CellHeader got{};
  for (auto _ : state) {
    producer.try_enqueue(producer_acc, header, payload);
    consumer.try_dequeue(consumer_acc, got, out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 1 KiB: the gather plus one line-fill wave read the chunk.
BENCHMARK(BM_SpscRingRoundTrip)->Arg(64)->Arg(1024)->Arg(4096)->Arg(65536);

/// Arena format at 10 levels: 1,009 level-1 buckets is the library's
/// default, 200,000 the paper's §3.7 production table (~244 MiB).
void BM_ArenaFormat(benchmark::State& state) {
  arena::Arena::Params params;
  params.level1_buckets = static_cast<std::size_t>(state.range(0));
  const std::uint64_t size = arena::Arena::metadata_footprint(params) + 1_MiB;
  auto device = check_ok(cxlsim::DaxDevice::create(size));
  cxlsim::CacheSim cache(*device);
  simtime::VClock clock;
  cxlsim::Accessor acc(*device, cache, clock);
  for (auto _ : state) {
    auto formatted = arena::Arena::format(acc, 0, size, 0, params);
    benchmark::DoNotOptimize(formatted);
  }
}
BENCHMARK(BM_ArenaFormat)->Arg(1009)->Arg(200000)->Unit(benchmark::kMillisecond);

/// A whole 2-node x 1-rank universe: construct, run an empty body, destroy.
void BM_UniverseConstruct(benchmark::State& state) {
  runtime::UniverseConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 1;
  for (auto _ : state) {
    runtime::Universe universe(cfg);
    universe.run([](runtime::RankCtx&) {});
  }
}
BENCHMARK(BM_UniverseConstruct)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
