#include "cxlsim/accessor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace cmpi::cxlsim {
namespace {

class AccessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = check_ok(DaxDevice::create(4 * kDaxAlignment));
    cache_a_ = std::make_unique<CacheSim>(*device_);
    cache_b_ = std::make_unique<CacheSim>(*device_);
    acc_a_ = std::make_unique<Accessor>(*device_, *cache_a_, clock_a_);
    acc_b_ = std::make_unique<Accessor>(*device_, *cache_b_, clock_b_);
  }

  static std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
    std::vector<std::byte> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::byte>((seed * 31 + i) & 0xFF);
    }
    return out;
  }

  simtime::VClock clock_a_;
  simtime::VClock clock_b_;
  std::unique_ptr<DaxDevice> device_;
  std::unique_ptr<CacheSim> cache_a_;
  std::unique_ptr<CacheSim> cache_b_;
  std::unique_ptr<Accessor> acc_a_;
  std::unique_ptr<Accessor> acc_b_;
};

TEST_F(AccessorTest, ColdLoadCharges790nsPerLine) {
  // Table 1: CXL memory sharing (with caching, no flushing) = 790 ns.
  std::byte out[8];
  acc_a_->load(0, out);
  EXPECT_DOUBLE_EQ(clock_a_.now(), device_->timing().params().line_fill_latency);
}

TEST_F(AccessorTest, CachedLoadIsCheap) {
  std::byte out[8];
  acc_a_->load(0, out);
  const simtime::Ns after_miss = clock_a_.now();
  acc_a_->load(0, out);
  EXPECT_LT(clock_a_.now() - after_miss, 20.0);
}

TEST_F(AccessorTest, CoherentWriteOf8BytesCostsAbout2200ns) {
  // Table 1: CXL memory sharing with cache flushing = 2.2 us for the small
  // access; the composite store+clflushopt+sfence must land near it.
  const auto data = pattern(8);
  acc_a_->coherent_write(64, data);
  EXPECT_GT(clock_a_.now(), 1600.0);
  EXPECT_LT(clock_a_.now(), 2800.0);
}

TEST_F(AccessorTest, CoherentWriteThenCoherentReadRoundTrips) {
  const auto data = pattern(200, 7);
  acc_a_->coherent_write(4096, data);
  std::vector<std::byte> got(200);
  acc_b_->coherent_read(4096, got);
  EXPECT_EQ(got, data);
}

TEST_F(AccessorTest, PlainStoreIsInvisibleToOtherNode) {
  const auto data = pattern(8, 3);
  acc_a_->store(8192, data);  // no flush
  std::vector<std::byte> got(8);
  acc_b_->coherent_read(8192, got);
  EXPECT_NE(got, data);  // still zeros
}

TEST_F(AccessorTest, SfenceAbsorbsWritebackCompletion) {
  const auto data = pattern(64);
  acc_a_->store(128, data);
  acc_a_->clflushopt(128, 64);
  const simtime::Ns before_fence = clock_a_.now();
  acc_a_->sfence();
  // The fence waits for the device write-back (line_write_latency floor).
  EXPECT_GT(clock_a_.now(),
            before_fence + device_->timing().params().fence_cost);
}

TEST_F(AccessorTest, ClflushoptCheaperThanClflushManyLines) {
  // Fig. 11: clflushopt outperforms clflush up to 4x beyond one line.
  const auto data = pattern(16_KiB);
  acc_a_->store(0, data);
  const simtime::Ns t0 = clock_a_.now();
  acc_a_->clflush(0, 16_KiB);
  const simtime::Ns serial = clock_a_.now() - t0;

  acc_b_->store(64_KiB, data);
  const simtime::Ns t1 = clock_b_.now();
  acc_b_->clflushopt(64_KiB, 16_KiB);
  const simtime::Ns parallel = clock_b_.now() - t1;
  EXPECT_NEAR(serial / parallel, 4.0, 1.0);
}

TEST_F(AccessorTest, FlushOfCleanRangeStillCostsIssueTime) {
  const simtime::Ns t0 = clock_a_.now();
  acc_a_->clflush(0, 64);
  EXPECT_GT(clock_a_.now(), t0);
}

TEST_F(AccessorTest, NtStoreVisibleToNtLoadImmediately) {
  const auto data = pattern(100, 5);
  acc_a_->nt_store(16384, data);
  std::vector<std::byte> got(100);
  acc_b_->nt_load(16384, got);
  EXPECT_EQ(got, data);
}

TEST_F(AccessorTest, NtU64RoundTripChargesDeviceLatency) {
  acc_a_->nt_store_u64(32768, 77);
  EXPECT_DOUBLE_EQ(clock_a_.now(), device_->timing().params().nt_store_latency);
  EXPECT_EQ(acc_b_->nt_load_u64(32768), 77u);
  EXPECT_DOUBLE_EQ(clock_b_.now(), device_->timing().params().nt_load_latency);
}

TEST_F(AccessorTest, BulkWriteReadRoundTrip) {
  const auto data = pattern(1_MiB, 9);
  acc_a_->bulk_write(1_MiB, data);
  acc_a_->sfence();
  std::vector<std::byte> got(1_MiB);
  acc_b_->bulk_read(1_MiB, got);
  EXPECT_EQ(got, data);
}

TEST_F(AccessorTest, BulkWriteChargesCpuAndDeviceTime) {
  const auto data = pattern(1_MiB);
  acc_a_->bulk_write(1_MiB, data);
  const auto& p = device_->timing().params();
  // At least the CPU copy cost.
  EXPECT_GE(clock_a_.now(), 1_MiB / p.cpu_copy_bytes_per_ns - 1);
  acc_a_->sfence();
  // The fence also covers the device streaming time.
  EXPECT_GE(clock_a_.now(), 1_MiB / p.device_bytes_per_ns);
}

TEST_F(AccessorTest, ConcurrentBulkWritesContendOnDevice) {
  // Use a device whose CPU copy path is far faster than the device link so
  // the shared-device queueing is what dominates completion times.
  CxlTimingParams params;
  params.cpu_copy_bytes_per_ns = 1e6;
  auto device = check_ok(DaxDevice::create(2 * kDaxAlignment, 4, params));
  CacheSim cache_a(*device);
  CacheSim cache_b(*device);
  simtime::VClock clock_a;
  simtime::VClock clock_b;
  Accessor a(*device, cache_a, clock_a);
  Accessor b(*device, cache_b, clock_b);

  const auto data = pattern(1_MiB);
  a.bulk_write(0, data);
  a.sfence();
  const simtime::Ns solo = clock_a.now();
  // Second stream starting at virtual time 0 queues behind the first on
  // the device: roughly twice the streaming time.
  b.bulk_write(1_MiB, data);
  b.sfence();
  EXPECT_GT(clock_b.now(), 1.8 * solo);
}

TEST_F(AccessorTest, BulkCopyContendsOnlyWithItsOwnNodesStreams) {
  // §4.2: a large copy slows down for every other copy in flight on its
  // own node (the ranks sharing one CacheSim), never for copies on another
  // node. A stream held open on node A stands in for a concurrent copy, so
  // no thread timing is involved.
  const auto& timing = device_->timing();
  const simtime::Ns setup = timing.params().flush_base;
  const simtime::Ns solo = setup + timing.cpu_copy_cost(1_MiB, 1);
  const simtime::Ns shared = setup + timing.cpu_copy_cost(1_MiB, 2);
  ASSERT_GT(shared, solo);
  const StreamGauge::Scope other_copy_on_a(cache_a_->copy_streams());
  const auto data = pattern(1_MiB);
  acc_a_->bulk_write(0, data);
  EXPECT_DOUBLE_EQ(clock_a_.now(), shared);
  acc_b_->bulk_write(1_MiB, data);
  EXPECT_DOUBLE_EQ(clock_b_.now(), solo);
  // Reads follow the same rule (the copy outlasts the device read here).
  std::vector<std::byte> got(1_MiB);
  const simtime::Ns a_before = clock_a_.now();
  acc_a_->bulk_read(1_MiB, got);
  EXPECT_NEAR(clock_a_.now() - a_before, shared, 1e-6);
  const simtime::Ns b_before = clock_b_.now();
  acc_b_->bulk_read(0, got);
  EXPECT_NEAR(clock_b_.now() - b_before, solo, 1e-6);
  EXPECT_EQ(cache_a_->copy_streams().active(), 1);
  EXPECT_EQ(cache_b_->copy_streams().active(), 0);
}

TEST_F(AccessorTest, UncachableRegionBypassesCache) {
  check_ok(device_->set_cacheability(64_KiB, 4096,
                                     Cacheability::kUncachable));
  const auto data = pattern(16, 2);
  acc_a_->store(64_KiB, data);
  // Visible in the pool immediately — no flush needed.
  std::vector<std::byte> got(16);
  acc_b_->nt_load(64_KiB, got);
  EXPECT_EQ(got, data);
}

TEST_F(AccessorTest, UncachableAccessIsDrasticallySlower) {
  check_ok(device_->set_cacheability(64_KiB, 64_KiB,
                                     Cacheability::kUncachable));
  acc_a_->memset(64_KiB, std::byte{1}, 8_KiB);
  // §4.5: latency reaches 4096 us beyond the MPS regime.
  EXPECT_GE(clock_a_.now(), 4096e3);
}

TEST_F(AccessorTest, MemsetOnWriteBackRegionIsCheapUntilFlush) {
  acc_a_->memset(0, std::byte{1}, 8_KiB);
  EXPECT_LT(clock_a_.now(), 10e3);
}

TEST_F(AccessorTest, FlagPublishCarriesTimestamp) {
  clock_a_.advance(5000);
  acc_a_->publish_flag(128_KiB, 42);
  const auto flag = acc_b_->peek_flag(128_KiB);
  EXPECT_EQ(flag.value, 42u);
  EXPECT_GE(flag.stamp, 5000.0);
  acc_b_->absorb_flag(flag);
  EXPECT_GE(clock_b_.now(), flag.stamp);
}

TEST_F(AccessorTest, FlagStampCoversPriorWrites) {
  // Release semantics: the stamp published with the flag must be >= the
  // completion of the bulk write before it.
  const auto data = pattern(1_MiB);
  acc_a_->bulk_write(0, data);
  acc_a_->publish_flag(128_KiB, 1);
  const auto flag = acc_b_->peek_flag(128_KiB);
  EXPECT_GE(flag.stamp, 1_MiB / device_->timing().params().device_bytes_per_ns);
}

TEST_F(AccessorTest, PeekFlagDoesNotAdvanceClock) {
  acc_a_->publish_flag(128_KiB, 7);
  const simtime::Ns before = clock_b_.now();
  (void)acc_b_->peek_flag(128_KiB);
  EXPECT_DOUBLE_EQ(clock_b_.now(), before);
}

// --- Gathered reads (nt_load_gather) ---

/// `count` ranges of `size` bytes, `stride` apart from `base`, each
/// reading into its own slice of `out`.
std::vector<Accessor::GatherRange> gather_ranges(std::uint64_t base,
                                                 std::size_t stride,
                                                 std::size_t size,
                                                 std::size_t count,
                                                 std::vector<std::byte>& out) {
  out.assign(size * count, std::byte{0});
  std::vector<Accessor::GatherRange> ranges(count);
  for (std::size_t i = 0; i < count; ++i) {
    ranges[i].offset = base + i * stride;
    ranges[i].dst = std::span(out).subspan(i * size, size);
  }
  return ranges;
}

TEST_F(AccessorTest, GatheredReadReturnsWhatPerRangeNtLoadsReturn) {
  // Eight 128-byte ranges, 320 bytes apart: one wave of 16 line fills.
  const auto data = pattern(8 * 320, 4);
  acc_a_->nt_store(192, data);
  std::vector<std::byte> gathered;
  auto ranges = gather_ranges(192, 320, 128, 8, gathered);
  acc_b_->nt_load_gather(ranges);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    std::vector<std::byte> single(128);
    acc_a_->nt_load(ranges[i].offset, single);
    EXPECT_TRUE(std::equal(single.begin(), single.end(),
                           ranges[i].dst.begin()))
        << "range " << i;
    EXPECT_FALSE(ranges[i].poison.has_value());
  }
}

TEST_F(AccessorTest, GatheredReadChargesOneNtLoadOfTheSummedBytes) {
  // One device read reservation and one line-fill latency for the wave,
  // exactly what a single nt_load of 8 x 128 bytes costs.
  std::vector<std::byte> gathered;
  auto ranges = gather_ranges(0, 320, 128, 8, gathered);
  acc_a_->nt_load_gather(ranges);
  // The reference load runs on a device of its own, so neither read
  // queues behind the other.
  auto device = check_ok(DaxDevice::create(kDaxAlignment));
  CacheSim cache(*device);
  simtime::VClock clock;
  Accessor reference(*device, cache, clock);
  std::vector<std::byte> whole(8 * 128);
  reference.nt_load(0, whole);
  EXPECT_DOUBLE_EQ(clock_a_.now(), clock.now());
  const auto& p = device_->timing().params();
  EXPECT_LT(clock_a_.now(), 2 * p.line_fill_latency);
}

TEST_F(AccessorTest, GatheredReadCountsOneAccessPerRange) {
  // Crash-at-Nth schedules count a gather of four ranges as four
  // accesses, performed in order: a crash scripted at the 3rd fires inside
  // the gather, and one scripted at the 6th fires at the access after it.
  FaultPlan plan;
  plan.crash_at_access = {{.rank = 0, .nth = 3}, {.rank = 1, .nth = 6}};
  FaultInjector& fi = device_->install_fault_plan(plan);
  std::vector<std::byte> gathered;
  auto ranges = gather_ranges(0, 320, 128, 4, gathered);
  FaultInjector::set_current_rank(0);
  EXPECT_THROW(acc_a_->nt_load_gather(ranges), RankCrashed);
  EXPECT_TRUE(fi.rank_crashed(0));
  FaultInjector::set_current_rank(1);
  acc_b_->nt_load_gather(ranges);
  EXPECT_FALSE(fi.rank_crashed(1));
  acc_b_->nt_load_u64(0);  // 5th access
  EXPECT_FALSE(fi.rank_crashed(1));
  EXPECT_THROW(acc_b_->nt_load_u64(0), RankCrashed);
  FaultInjector::set_current_rank(-1);
}

TEST_F(AccessorTest, GatheredReadParksPoisonPerRange) {
  // Poison in the third range lands on that range alone; poison pending
  // from an earlier read stays raised on the accessor.
  FaultInjector& fi = device_->install_fault_plan(FaultPlan{});
  fi.poison(2 * 320 + 64, 64);
  fi.poison(64_KiB, 64);
  std::byte earlier[64];
  acc_a_->nt_load(64_KiB, earlier);
  ASSERT_TRUE(acc_a_->poison_pending());
  std::vector<std::byte> gathered;
  auto ranges = gather_ranges(0, 320, 128, 4, gathered);
  acc_a_->nt_load_gather(ranges);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].poison.has_value(), i == 2) << "range " << i;
  }
  EXPECT_EQ(ranges[2].poison, std::optional<std::uint64_t>(2 * 320));
  const Status st = acc_a_->take_poison_status("test");
  EXPECT_EQ(st.code(), ErrorCode::kDataPoisoned);
  EXPECT_NE(st.message().find(std::to_string(64_KiB)), std::string::npos);
  acc_a_->nt_load_gather(ranges);
  EXPECT_FALSE(acc_a_->poison_pending());
}

TEST_F(AccessorTest, GatheredReadRefusesMoreThanOneWave) {
  // Nine 128-byte ranges are 18 line fills: past kLineFillBuffers.
  std::vector<std::byte> gathered;
  auto ranges = gather_ranges(0, 320, 128, 9, gathered);
  EXPECT_DEATH(acc_a_->nt_load_gather(ranges), "precondition");
  // One range that spans more than a wave of lines is refused too.
  std::vector<std::byte> wide((kLineFillBuffers + 1) * kCacheLineSize);
  Accessor::GatherRange one{.offset = 0, .dst = wide, .poison = {}};
  EXPECT_DEATH(acc_a_->nt_load_gather({&one, 1}), "precondition");
}

}  // namespace
}  // namespace cmpi::cxlsim
