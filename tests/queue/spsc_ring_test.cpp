#include "queue/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "cxlsim/coherence_checker.hpp"
#include "cxlsim/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace cmpi::queue {
namespace {

class SpscRingTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kCells = 4;
  static constexpr std::size_t kPayload = 256;

  void SetUp() override {
    device_ = check_ok(cxlsim::DaxDevice::create(8_MiB));
    producer_cache_ = std::make_unique<cxlsim::CacheSim>(*device_);
    consumer_cache_ = std::make_unique<cxlsim::CacheSim>(*device_);
    producer_acc_ = std::make_unique<cxlsim::Accessor>(
        *device_, *producer_cache_, producer_clock_);
    consumer_acc_ = std::make_unique<cxlsim::Accessor>(
        *device_, *consumer_cache_, consumer_clock_);
    SpscRing::format(*producer_acc_, 0, kCells, kPayload);
    producer_ = std::make_unique<SpscRing>(
        check_ok(SpscRing::attach(*producer_acc_, 0)));
    consumer_ = std::make_unique<SpscRing>(
        check_ok(SpscRing::attach(*consumer_acc_, 0)));
  }

  /// Re-format the ring as `cells` cells of `payload` bytes and re-attach
  /// both views.
  void reformat(std::size_t cells, std::size_t payload) {
    SpscRing::format(*producer_acc_, 0, cells, payload);
    producer_ = std::make_unique<SpscRing>(
        check_ok(SpscRing::attach(*producer_acc_, 0)));
    consumer_ = std::make_unique<SpscRing>(
        check_ok(SpscRing::attach(*consumer_acc_, 0)));
  }

  /// Publish `count` 8-byte messages tagged first_tag, first_tag + 1, ...
  void publish(int count, int first_tag = 0) {
    for (int i = 0; i < count; ++i) {
      const auto payload = pattern(8, first_tag + i);
      ASSERT_TRUE(producer_->try_stage(*producer_acc_,
                                       header_for(payload, first_tag + i),
                                       payload));
    }
    producer_->publish_staged(*producer_acc_);
  }

  /// Virtual time `reads` (called with an Accessor) takes a rank at
  /// `start` on an idle device of the fixture's geometry.
  template <typename Reads>
  static simtime::Ns twin_cost(simtime::Ns start, Reads reads) {
    auto device = check_ok(cxlsim::DaxDevice::create(8_MiB));
    cxlsim::CacheSim cache(*device);
    simtime::VClock clock;
    clock.advance(start);
    cxlsim::Accessor acc(*device, cache, clock);
    reads(acc);
    return clock.now() - start;
  }

  /// Virtual time one nt_load of `bytes` takes a rank at `start` on an idle
  /// device of the fixture's geometry.
  static simtime::Ns nt_load_cost(simtime::Ns start, std::size_t bytes) {
    return twin_cost(start, [bytes](cxlsim::Accessor& acc) {
      std::vector<std::byte> out(bytes);
      acc.nt_load(0, out);
    });
  }

  /// Enable obs metrics from a clean registry; the test turns them off.
  static void count_metrics() {
    obs::Config metrics_on;
    metrics_on.metrics = true;
    obs::configure(metrics_on);
    obs::MetricsRegistry::instance().reset_for_test();
  }
  static std::uint64_t counter(const std::string& name) {
    return obs::MetricsRegistry::instance().snapshot().counter(name);
  }

  struct TimedDequeue {
    simtime::Ns start = 0;     ///< consumer clock when the dequeue began
    simtime::Ns cost = 0;      ///< virtual time the dequeue took
    std::uint64_t sweeps = 0;  ///< cxl.bulk_sweeps it counted
    std::uint64_t waves = 0;   ///< ring.payload_waves it counted
  };
  /// Publish one `bytes`-byte message, then dequeue it, intact, on a
  /// consumer idle past its stamp with the head publish deferred. Call with
  /// metrics on (count_metrics).
  TimedDequeue timed_dequeue(std::size_t bytes) {
    const auto payload = pattern(bytes, static_cast<int>(bytes));
    EXPECT_TRUE(producer_->try_enqueue(*producer_acc_, header_for(payload),
                                       payload));
    consumer_clock_.advance(1e6);
    consumer_->defer_head_publish(true);
    const std::uint64_t sweeps = counter("cxl.bulk_sweeps");
    const std::uint64_t waves = counter("ring.payload_waves");
    TimedDequeue out;
    out.start = consumer_clock_.now();
    CellHeader header{};
    std::vector<std::byte> got(bytes);
    EXPECT_TRUE(consumer_->try_dequeue(*consumer_acc_, header, got));
    out.cost = consumer_clock_.now() - out.start;
    out.sweeps = counter("cxl.bulk_sweeps") - sweeps;
    out.waves = counter("ring.payload_waves") - waves;
    EXPECT_TRUE(consumer_->last_dequeue_intact());
    EXPECT_EQ(got, payload);
    consumer_->flush_head(*consumer_acc_);
    return out;
  }

  /// Virtual time a rank that bulk-writes `payload_bytes` into the first
  /// cell's payload at `start` then spends on one sfence plus one header
  /// store, on an idle device of the fixture's geometry. `staged_at` gets
  /// the time the bulk write returned.
  static simtime::Ns fence_and_header_cost(simtime::Ns start,
                                           std::size_t payload_bytes,
                                           simtime::Ns& staged_at) {
    auto device = check_ok(cxlsim::DaxDevice::create(8_MiB));
    cxlsim::CacheSim cache(*device);
    simtime::VClock clock;
    clock.advance(start);
    cxlsim::Accessor acc(*device, cache, clock);
    const std::vector<std::byte> payload(payload_bytes);
    acc.bulk_write(SpscRing::kCellsOffset + sizeof(CellHeader), payload);
    staged_at = clock.now();
    acc.sfence();
    const CellHeader header{};
    acc.nt_store(SpscRing::kCellsOffset,
                 {reinterpret_cast<const std::byte*>(&header),
                  sizeof(CellHeader)});
    return clock.now() - staged_at;
  }

  /// Stream `count` one-cell messages tagged first_tag, first_tag + 1, ...
  /// through the ring one at a time, checking before each publish that no
  /// cell validates early: the consumer sees nothing, and a producer view
  /// attached now (it scans every cell's generation from the published
  /// head) resumes exactly at the producer's tail.
  void expect_cells_validate_only_once_published(int count,
                                                 int first_tag = 0) {
    std::vector<std::byte> got(kPayload);
    for (int i = 0; i < count; ++i) {
      SCOPED_TRACE("message " + std::to_string(i));
      EXPECT_FALSE(consumer_->can_dequeue(*consumer_acc_));
      EXPECT_EQ(check_ok(SpscRing::attach(*producer_acc_, 0)).tail_index(),
                producer_->tail_index());
      publish(1, first_tag + i);
      CellHeader out{};
      ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
      EXPECT_EQ(out.tag, static_cast<std::uint32_t>(first_tag + i));
      EXPECT_TRUE(consumer_->last_dequeue_intact());
    }
  }

  static CellHeader header_for(std::span<const std::byte> payload,
                               int tag = 0, bool last = true) {
    CellHeader h{};
    h.src_rank = 1;
    h.tag = static_cast<std::uint64_t>(tag);
    h.total_bytes = payload.size();
    h.chunk_offset = 0;
    h.chunk_bytes = payload.size();
    h.flags = last ? kLastChunk : 0;
    return h;
  }

  static std::vector<std::byte> pattern(std::size_t n, int seed) {
    std::vector<std::byte> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::byte>((seed + 7 * i) & 0xFF);
    }
    return out;
  }

  simtime::VClock producer_clock_;
  simtime::VClock consumer_clock_;
  std::unique_ptr<cxlsim::DaxDevice> device_;
  std::unique_ptr<cxlsim::CacheSim> producer_cache_;
  std::unique_ptr<cxlsim::CacheSim> consumer_cache_;
  std::unique_ptr<cxlsim::Accessor> producer_acc_;
  std::unique_ptr<cxlsim::Accessor> consumer_acc_;
  std::unique_ptr<SpscRing> producer_;
  std::unique_ptr<SpscRing> consumer_;
};

TEST_F(SpscRingTest, AttachReadsGeometry) {
  EXPECT_EQ(producer_->capacity(), kCells);
  EXPECT_EQ(producer_->cell_payload(), kPayload);
}

TEST_F(SpscRingTest, EmptyRingHasNothingToDequeue) {
  EXPECT_FALSE(consumer_->can_dequeue(*consumer_acc_));
  CellHeader h{};
  EXPECT_FALSE(consumer_->try_dequeue(*consumer_acc_, h, {}));
  EXPECT_FALSE(consumer_->peek(*consumer_acc_).has_value());
}

TEST_F(SpscRingTest, SingleMessageRoundTrip) {
  const auto payload = pattern(100, 3);
  ASSERT_TRUE(producer_->try_enqueue(*producer_acc_, header_for(payload, 42),
                                     payload));
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_EQ(out.tag, 42u);
  EXPECT_EQ(out.chunk_bytes, 100u);
  EXPECT_EQ(out.src_rank, 1u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), got.begin()));
}

TEST_F(SpscRingTest, FifoOrderPreserved) {
  for (int i = 0; i < static_cast<int>(kCells); ++i) {
    const auto payload = pattern(64, i);
    ASSERT_TRUE(producer_->try_enqueue(*producer_acc_,
                                       header_for(payload, i), payload));
  }
  for (int i = 0; i < static_cast<int>(kCells); ++i) {
    CellHeader out{};
    std::vector<std::byte> got(kPayload);
    ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
    EXPECT_EQ(out.tag, static_cast<std::uint64_t>(i));
    const auto expected = pattern(64, i);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got.begin()));
  }
}

TEST_F(SpscRingTest, FullRingRejectsEnqueue) {
  const auto payload = pattern(16, 0);
  for (std::size_t i = 0; i < kCells; ++i) {
    ASSERT_TRUE(producer_->try_enqueue(*producer_acc_, header_for(payload),
                                       payload));
  }
  EXPECT_FALSE(producer_->can_enqueue(*producer_acc_));
  EXPECT_FALSE(
      producer_->try_enqueue(*producer_acc_, header_for(payload), payload));
  // Draining one cell frees space.
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_TRUE(producer_->can_enqueue(*producer_acc_));
}

TEST_F(SpscRingTest, WrapAroundManyTimes) {
  std::vector<std::byte> got(kPayload);
  for (int i = 0; i < 100; ++i) {
    const auto payload = pattern(32, i);
    ASSERT_TRUE(producer_->try_enqueue(*producer_acc_,
                                       header_for(payload, i), payload));
    CellHeader out{};
    ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
    EXPECT_EQ(out.tag, static_cast<std::uint64_t>(i));
    const auto expected = pattern(32, i);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got.begin()));
  }
}

TEST_F(SpscRingTest, ZeroBytePayload) {
  CellHeader h{};
  h.src_rank = 0;
  h.tag = 5;
  h.total_bytes = 0;
  h.chunk_bytes = 0;
  h.flags = kLastChunk;
  ASSERT_TRUE(producer_->try_enqueue(*producer_acc_, h, {}));
  CellHeader out{};
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, {}));
  EXPECT_EQ(out.tag, 5u);
  EXPECT_EQ(out.chunk_bytes, 0u);
}

TEST_F(SpscRingTest, PeekDoesNotConsume) {
  const auto payload = pattern(10, 1);
  ASSERT_TRUE(producer_->try_enqueue(*producer_acc_, header_for(payload, 9),
                                     payload));
  const auto peeked = consumer_->peek(*consumer_acc_);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(peeked->tag, 9u);
  // Still dequeueable.
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_EQ(out.tag, 9u);
}

TEST_F(SpscRingTest, RepeatedPeekOfSameCellIsTimeFree) {
  const auto payload = pattern(10, 1);
  ASSERT_TRUE(producer_->try_enqueue(*producer_acc_, header_for(payload, 9),
                                     payload));
  // First peek charges the header read (and absorbs the producer stamp).
  const auto first = consumer_->peek(*consumer_acc_);
  ASSERT_TRUE(first.has_value());
  const double after_first = consumer_clock_.now();
  EXPECT_GT(after_first, 0.0);
  // An iprobe/probe polling loop re-peeks the same unconsumed cell many
  // times; every re-peek must return the cached header and advance virtual
  // time by exactly zero.
  for (int i = 0; i < 100; ++i) {
    const auto again = consumer_->peek(*consumer_acc_);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->tag, first->tag);
    EXPECT_EQ(again->stamp, first->stamp);
  }
  EXPECT_EQ(consumer_clock_.now(), after_first);
  // Consuming the cell invalidates the cached header; the next message is
  // peeked (and charged) fresh.
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_FALSE(consumer_->peek(*consumer_acc_).has_value());
  const auto next = pattern(12, 2);
  ASSERT_TRUE(producer_->try_enqueue(*producer_acc_, header_for(next, 10),
                                     next));
  const auto fresh = consumer_->peek(*consumer_acc_);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->tag, 10u);
}

TEST_F(SpscRingTest, FirstPeekGathersEveryPublishedCellInOneRead) {
  // With k cells published and the consumer idle (its clock past every
  // stamp), the first peek reads all k in one wave: one nt_load of
  // k x 128 bytes (header + first payload line per cell). Later peeks and
  // the dequeues of the gathered cells charge no read.
  constexpr std::size_t kFused = sizeof(CellHeader) + kCacheLineSize;
  // A wave is 16 line fills, two per cell: a default 8-cell ring is read
  // in one go.
  static_assert(SpscRing::kGatherCells == 8);
  for (int k = 1; k <= 8; ++k) {
    SCOPED_TRACE("k = " + std::to_string(k));
    reformat(16, kCacheLineSize);
    publish(k);
    consumer_clock_.advance(1e6);
    consumer_->defer_head_publish(true);
    ASSERT_TRUE(consumer_->can_dequeue(*consumer_acc_));  // the poll
    const simtime::Ns start = consumer_clock_.now();
    ASSERT_TRUE(consumer_->peek(*consumer_acc_).has_value());
    const simtime::Ns gathered = consumer_clock_.now();
    EXPECT_DOUBLE_EQ(gathered - start,
                     nt_load_cost(start, static_cast<std::size_t>(k) * kFused));
    std::vector<std::byte> got(kCacheLineSize);
    for (int i = 0; i < k; ++i) {
      const auto peeked = consumer_->peek(*consumer_acc_);
      ASSERT_TRUE(peeked.has_value());
      EXPECT_EQ(peeked->tag, static_cast<std::uint32_t>(i));
      CellHeader out{};
      ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
      EXPECT_EQ(out.tag, static_cast<std::uint32_t>(i));
      EXPECT_TRUE(consumer_->last_dequeue_intact());
      const auto expected = pattern(8, i);
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got.begin()));
    }
    EXPECT_DOUBLE_EQ(consumer_clock_.now(), gathered);
    consumer_->flush_head(*consumer_acc_);
  }
}

TEST_F(SpscRingTest, NinthPublishedCellStartsANewWave) {
  // A wave covers kGatherCells cells; the next published cell past it is
  // read by a wave of its own when the consumer reaches it.
  constexpr std::size_t kFused = sizeof(CellHeader) + kCacheLineSize;
  reformat(16, kCacheLineSize);
  const int waves_worth = static_cast<int>(SpscRing::kGatherCells);
  publish(waves_worth + 1);
  consumer_clock_.advance(1e6);
  consumer_->defer_head_publish(true);
  std::vector<std::byte> got(kCacheLineSize);
  CellHeader out{};
  for (int i = 0; i < waves_worth; ++i) {
    ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  }
  const simtime::Ns start = consumer_clock_.now();
  const auto ninth = consumer_->peek(*consumer_acc_);
  ASSERT_TRUE(ninth.has_value());
  EXPECT_EQ(ninth->tag, static_cast<std::uint32_t>(waves_worth));
  EXPECT_DOUBLE_EQ(consumer_clock_.now() - start, nt_load_cost(start, kFused));
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_EQ(out.tag, static_cast<std::uint32_t>(waves_worth));
  EXPECT_FALSE(consumer_->peek(*consumer_acc_).has_value());
}

TEST_F(SpscRingTest, HeaderStorePublishesAStagedCell) {
  // A staged cell is invisible until publish_staged stores its header, and
  // visible right after. The producer pays one sfence plus the header's
  // issue (no second fence, no flag store); the consumer's first receive
  // pays exactly one gathered read (the generation polls are free).
  constexpr std::size_t kFused = sizeof(CellHeader) + kCacheLineSize;
  const auto payload = pattern(8, 5);
  const simtime::Ns start = producer_clock_.now();
  ASSERT_TRUE(producer_->try_stage(*producer_acc_, header_for(payload, 5),
                                   payload));
  const simtime::Ns staged = producer_clock_.now();
  EXPECT_FALSE(consumer_->can_dequeue(*consumer_acc_));
  EXPECT_FALSE(consumer_->peek(*consumer_acc_).has_value());
  simtime::Ns twin_staged = 0;
  const simtime::Ns publish_cost =
      fence_and_header_cost(start, payload.size(), twin_staged);
  EXPECT_DOUBLE_EQ(staged - start, twin_staged - start);
  producer_->publish_staged(*producer_acc_);
  EXPECT_DOUBLE_EQ(producer_clock_.now() - staged, publish_cost);
  EXPECT_EQ(producer_->staged_pending(), 0u);

  consumer_clock_.advance(1e6);  // idle, past the producer's stamp
  consumer_->defer_head_publish(true);
  const simtime::Ns recv_start = consumer_clock_.now();
  ASSERT_TRUE(consumer_->can_dequeue(*consumer_acc_));
  EXPECT_DOUBLE_EQ(consumer_clock_.now(), recv_start);
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_DOUBLE_EQ(consumer_clock_.now() - recv_start,
                   nt_load_cost(recv_start, kFused));
  EXPECT_EQ(out.tag, 5u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), got.begin()));
  consumer_->flush_head(*consumer_acc_);
}

TEST_F(SpscRingTest, ChunkRestWithinOneWaveIsReadInOneLineFillWave) {
  // A chunk longer than the payload line the gather fetched, whose rest
  // spans at most one wave of cxlsim::kLineFillBuffers lines, costs the
  // gather plus one wave of the rest's lines: one device read reservation
  // and one line fill, and no invalidate sweep. A 1-byte rest is a line's
  // wave like any other, not an 8-byte NT load.
  constexpr std::size_t kFused = sizeof(CellHeader) + kCacheLineSize;
  static_assert(SpscRing::kWaveChunkBytes == 1088);
  reformat(kCells, 2_KiB);
  count_metrics();
  for (const std::size_t bytes :
       {std::size_t{65}, std::size_t{512}, SpscRing::kWaveChunkBytes}) {
    SCOPED_TRACE(std::to_string(bytes) + " B");
    const TimedDequeue got = timed_dequeue(bytes);
    const std::size_t rest = align_up(bytes - kCacheLineSize, kCacheLineSize);
    EXPECT_DOUBLE_EQ(got.cost,
                     twin_cost(got.start, [&](cxlsim::Accessor& acc) {
                       std::vector<std::byte> lines(kFused + rest);
                       acc.nt_load(0, std::span(lines).first(kFused));
                       acc.nt_load(kFused, std::span(lines).subspan(kFused));
                     }));
    EXPECT_EQ(got.sweeps, 0u);
    EXPECT_EQ(got.waves, 1u);
  }
  obs::configure(obs::Config{});
}

TEST_F(SpscRingTest, ChunkPastOneWaveKeepsTheSweptBulkRead) {
  // One byte past a wave, the chunk is read as it always was: the gather,
  // then a bulk_read of the whole chunk that pays the invalidate sweep.
  constexpr std::size_t kFused = sizeof(CellHeader) + kCacheLineSize;
  constexpr std::size_t kBytes = SpscRing::kWaveChunkBytes + 1;
  reformat(kCells, 2_KiB);
  count_metrics();
  const TimedDequeue got = timed_dequeue(kBytes);
  EXPECT_DOUBLE_EQ(got.cost, twin_cost(got.start, [](cxlsim::Accessor& acc) {
                     std::vector<std::byte> fused(kFused);
                     acc.nt_load(0, fused);
                     std::vector<std::byte> chunk(kBytes);
                     acc.bulk_read(kFused, chunk);
                   }));
  EXPECT_EQ(got.sweeps, 1u);
  EXPECT_EQ(got.waves, 0u);
  obs::configure(obs::Config{});
}

TEST_F(SpscRingTest, ShortChunkLeavesTheBatchSweepToTheFirstLongCell) {
  // A deferred-head reap batch pays one invalidate sweep, on its first
  // bulk read: a short cell's wave before it pays none and leaves the
  // sweep unpaid.
  reformat(8, 4_KiB);
  const std::size_t sizes[] = {512, 4_KiB, 4_KiB};
  for (int i = 0; i < 3; ++i) {
    const auto payload = pattern(sizes[i], i);
    ASSERT_TRUE(producer_->try_stage(*producer_acc_, header_for(payload, i),
                                     payload));
  }
  producer_->publish_staged(*producer_acc_);
  count_metrics();  // the consumer's sweeps only
  consumer_clock_.advance(1e6);
  consumer_->defer_head_publish(true);
  std::vector<std::byte> got(4_KiB);
  const std::uint64_t sweeps_after[] = {0, 1, 1};
  for (int i = 0; i < 3; ++i) {
    CellHeader out{};
    ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
    EXPECT_TRUE(consumer_->last_dequeue_intact());
    EXPECT_EQ(counter("cxl.bulk_sweeps"), sweeps_after[i]) << "cell " << i;
  }
  consumer_->flush_head(*consumer_acc_);
  EXPECT_EQ(counter("ring.payload_waves"), 1u);
  obs::configure(obs::Config{});
}

TEST_F(SpscRingTest, NeverWrittenAndPreviousLapCellsDoNotValidate) {
  // The fixture's ring sits on never-written pool memory; three laps make
  // every slot hold a previous-lap cell before it is republished.
  expect_cells_validate_only_once_published(3 * static_cast<int>(kCells));
}

TEST_F(SpscRingTest, FormatLeavesAFreshRingsCellPagesUntouched) {
  // 16 KiB cells put every header on a page of its own. On pool pages
  // never written, format stamps cell 0 only (the others read as zeros,
  // which match no first-lap index), and no cell validates early.
  constexpr std::size_t kBigPayload = 16384;
  const std::uint64_t stride = sizeof(CellHeader) + kBigPayload;
  ASSERT_FALSE(device_->holds_data(SpscRing::kCellsOffset + stride,
                                   (kCells - 1) * stride));
  reformat(kCells, kBigPayload);
  EXPECT_FALSE(device_->holds_data(SpscRing::kCellsOffset + stride,
                                   (kCells - 1) * stride));
  expect_cells_validate_only_once_published(3 * static_cast<int>(kCells));
}

TEST_F(SpscRingTest, LeftoversOfAnEarlierRingDoNotValidate) {
  // An earlier ring of the same geometry left published, unconsumed cells
  // whose generations are exactly what the new ring's first lap expects.
  publish(static_cast<int>(kCells) - 1);
  reformat(kCells, kPayload);
  expect_cells_validate_only_once_published(2 * static_cast<int>(kCells));
  // Junk at every header position of a different geometry: headers that
  // claim indices 0..cells-1 wherever the new ring will put its cells.
  constexpr std::size_t kCellsB = 8;
  constexpr std::size_t kPayloadB = kCacheLineSize;
  for (std::size_t i = 0; i < kCellsB; ++i) {
    CellHeader junk{};
    junk.generation = static_cast<std::uint32_t>(i);
    junk.chunk_bytes = 8;
    producer_acc_->nt_store(
        SpscRing::kCellsOffset + i * (sizeof(CellHeader) + kPayloadB),
        {reinterpret_cast<const std::byte*>(&junk), sizeof junk});
  }
  reformat(kCellsB, kPayloadB);
  expect_cells_validate_only_once_published(2 * static_cast<int>(kCellsB));
}

TEST_F(SpscRingTest, CellsDoNotValidateEarlyAcrossTheGenerationWrap) {
  // The u32 generation wraps to 0 at index 2^32 while the u64 index runs
  // on: the slot of index 2^32 last held index 2^32 - cells.
  const std::uint64_t start = (std::uint64_t{1} << 32) - 2 * kCells;
  producer_->debug_rebase_counters(*producer_acc_, start);
  consumer_->debug_rebase_counters(*consumer_acc_, start);
  expect_cells_validate_only_once_published(4 * static_cast<int>(kCells));
}

TEST_F(SpscRingTest, CellsDoNotValidateEarlyAfterARebaseNearTheTop) {
  // Rebasing re-stamps every cell to the lap before the new count: none of
  // the cells traffic left behind validates at 2^64 - 3 or after the u64
  // index wraps.
  publish(static_cast<int>(kCells) - 1);
  const std::uint64_t start = std::uint64_t{0} - 3;
  producer_->debug_rebase_counters(*producer_acc_, start);
  consumer_->debug_rebase_counters(*consumer_acc_, start);
  expect_cells_validate_only_once_published(3 * static_cast<int>(kCells));
}

TEST_F(SpscRingTest, ReattachedProducerResumesAfterTheLastPublishedCell) {
  // The producer dies between a payload write and its header store: the
  // staged cell never publishes, and a producer view attached afterwards
  // resumes right after the last published cell, reusing the dead cell.
  publish(2, 10);
  const auto lost = pattern(8, 99);
  ASSERT_TRUE(producer_->try_stage(*producer_acc_, header_for(lost, 99),
                                   lost));
  producer_.reset();  // crash: the staged header is never stored
  producer_ = std::make_unique<SpscRing>(
      check_ok(SpscRing::attach(*producer_acc_, 0)));
  EXPECT_EQ(producer_->tail_index(), 2u);
  publish(1, 12);
  std::vector<std::byte> got(kPayload);
  for (int tag = 10; tag <= 12; ++tag) {
    CellHeader out{};
    ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
    EXPECT_EQ(out.tag, static_cast<std::uint32_t>(tag));
    EXPECT_TRUE(consumer_->last_dequeue_intact());
    const auto expected = pattern(8, tag);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got.begin()));
  }
  EXPECT_FALSE(consumer_->can_dequeue(*consumer_acc_));
}

TEST_F(SpscRingTest, PollOfAPoisonedHeaderParksThePoisonWithItsCell) {
  // The untimed generation poll raises no poison: the gather re-reads each
  // header the poll found published and parks its poison with that cell,
  // and an unpublished cell's poison waits for its own read.
  cxlsim::FaultInjector& fi =
      device_->install_fault_plan(cxlsim::FaultPlan{});
  const std::uint64_t stride = sizeof(CellHeader) + kPayload;
  fi.poison(SpscRing::kCellsOffset, sizeof(CellHeader));           // cell 0
  fi.poison(SpscRing::kCellsOffset + 2 * stride, sizeof(CellHeader));  // 2
  publish(2);
  ASSERT_TRUE(consumer_->can_dequeue(*consumer_acc_));  // polls cell 0
  EXPECT_FALSE(consumer_acc_->poison_pending());
  ASSERT_TRUE(consumer_->peek(*consumer_acc_).has_value());  // polls 1, 2
  EXPECT_FALSE(consumer_acc_->poison_pending());
  std::vector<std::byte> got(kPayload);
  CellHeader out{};
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_EQ(out.tag, 0u);
  EXPECT_TRUE(consumer_acc_->poison_pending());  // cell 0's own poison
  EXPECT_FALSE(consumer_acc_->take_poison_status("cell 0").is_ok());
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_EQ(out.tag, 1u);
  EXPECT_FALSE(consumer_acc_->poison_pending());  // clean cell 1
  EXPECT_FALSE(consumer_->can_dequeue(*consumer_acc_));  // polls cell 2
  EXPECT_FALSE(consumer_acc_->poison_pending());
  publish(1, 2);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_EQ(out.tag, 2u);
  EXPECT_TRUE(consumer_acc_->poison_pending());  // cell 2's own poison
}

TEST_F(SpscRingTest, ScavengeAndRebaseConsumeGatheredCellsInOrder) {
  // scavenge_producer drains the gathered cells first, then the rest, and
  // leaves the ring empty and reusable; a rebase forgets gathered cells.
  reformat(16, kCacheLineSize);
  publish(12);
  ASSERT_TRUE(consumer_->peek(*consumer_acc_).has_value());
  const SpscRing::ScavengeCounts counts =
      consumer_->scavenge_producer(*consumer_acc_);
  EXPECT_EQ(counts.drained, 12u);
  EXPECT_EQ(counts.torn, 0u);
  EXPECT_FALSE(consumer_->peek(*consumer_acc_).has_value());
  publish(1, 40);
  const auto next = consumer_->peek(*consumer_acc_);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->tag, 40u);
  producer_->debug_rebase_counters(*producer_acc_, 100);
  consumer_->debug_rebase_counters(*consumer_acc_, 100);
  EXPECT_FALSE(consumer_->peek(*consumer_acc_).has_value());
  publish(1, 41);
  const auto after = consumer_->peek(*consumer_acc_);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->tag, 41u);
}

TEST_F(SpscRingTest, IndexWraparoundAtUint64Max) {
  // Free-running u64 counters cross 2^64 mid-traffic. Rebase both views
  // near the top and stream enough messages to wrap several times around
  // both the ring and the counter space.
  const std::uint64_t start = std::uint64_t{0} - 3 * kCells - 1;
  producer_->debug_rebase_counters(*producer_acc_, start);
  consumer_->debug_rebase_counters(*consumer_acc_, start);
  std::vector<std::byte> got(kPayload);
  for (int i = 0; i < static_cast<int>(8 * kCells); ++i) {
    const auto payload = pattern(48, i);
    ASSERT_TRUE(producer_->try_enqueue(*producer_acc_,
                                       header_for(payload, i), payload))
        << "message " << i;
    CellHeader out{};
    ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got))
        << "message " << i;
    EXPECT_EQ(out.tag, static_cast<std::uint64_t>(i));
    const auto expected = pattern(48, i);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got.begin()))
        << "message " << i;
  }
}

TEST_F(SpscRingTest, IndexWraparoundWithFullRingBackpressure) {
  // Wrap the counters while exercising the full/empty arithmetic:
  // tail - head must stay correct across the discontinuity.
  const std::uint64_t start = std::uint64_t{0} - kCells + 1;
  producer_->debug_rebase_counters(*producer_acc_, start);
  consumer_->debug_rebase_counters(*consumer_acc_, start);
  const auto payload = pattern(16, 0);
  for (std::size_t i = 0; i < kCells; ++i) {
    ASSERT_TRUE(producer_->try_enqueue(*producer_acc_, header_for(payload),
                                       payload));
  }
  // Ring full exactly as tail_local_ wrapped past zero.
  EXPECT_FALSE(producer_->can_enqueue(*producer_acc_));
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_TRUE(producer_->can_enqueue(*producer_acc_));
  for (std::size_t i = 1; i < kCells; ++i) {
    ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  }
  EXPECT_FALSE(consumer_->can_dequeue(*consumer_acc_));
}

TEST_F(SpscRingTest, AttachRejectsCorruptGeometry) {
  // Corrupt the on-pool constants the way a buggy peer or reused arena
  // block would, and check attach() fails with a Status instead of
  // arithmetic on garbage.
  constexpr std::uint64_t kConstAt = 128;  // documented layout: +128
  // Non-power-of-two cell count.
  producer_acc_->nt_store_u64(kConstAt, 3);
  EXPECT_FALSE(SpscRing::attach(*consumer_acc_, 0).is_ok());
  // Zero / out-of-range cell count.
  producer_acc_->nt_store_u64(kConstAt, 0);
  EXPECT_FALSE(SpscRing::attach(*consumer_acc_, 0).is_ok());
  producer_acc_->nt_store_u64(kConstAt, SpscRing::kMaxCells * 2);
  EXPECT_FALSE(SpscRing::attach(*consumer_acc_, 0).is_ok());
  // Restore cells, corrupt payload: unaligned, then absurdly large.
  producer_acc_->nt_store_u64(kConstAt, kCells);
  producer_acc_->nt_store_u64(kConstAt + 8, 100);
  EXPECT_FALSE(SpscRing::attach(*consumer_acc_, 0).is_ok());
  producer_acc_->nt_store_u64(kConstAt + 8, SpscRing::kMaxCellPayload + 64);
  EXPECT_FALSE(SpscRing::attach(*consumer_acc_, 0).is_ok());
  // Geometry valid per-field but footprint exceeding the device.
  producer_acc_->nt_store_u64(kConstAt, 1 << 16);
  producer_acc_->nt_store_u64(kConstAt + 8, 1 << 20);
  EXPECT_FALSE(SpscRing::attach(*consumer_acc_, 0).is_ok());
  // Unaligned base is rejected before any pool read.
  EXPECT_FALSE(SpscRing::attach(*consumer_acc_, 8).is_ok());
  // Base beyond the device is rejected before reading the constants.
  EXPECT_FALSE(
      SpscRing::attach(*consumer_acc_, device_->size() - 64).is_ok());
  // Restoring the real geometry makes attach succeed again.
  producer_acc_->nt_store_u64(kConstAt, kCells);
  producer_acc_->nt_store_u64(kConstAt + 8, kPayload);
  EXPECT_TRUE(SpscRing::attach(*consumer_acc_, 0).is_ok());
}

TEST_F(SpscRingTest, TimestampPropagatesProducerTimeToConsumer) {
  producer_clock_.advance(500000);
  const auto payload = pattern(64, 2);
  ASSERT_TRUE(producer_->try_enqueue(*producer_acc_, header_for(payload),
                                     payload));
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  EXPECT_GE(consumer_clock_.now(), 500000.0);
}

TEST_F(SpscRingTest, BackpressurePropagatesConsumerTimeToProducer) {
  const auto payload = pattern(16, 0);
  for (std::size_t i = 0; i < kCells; ++i) {
    ASSERT_TRUE(producer_->try_enqueue(*producer_acc_, header_for(payload),
                                       payload));
  }
  // Consumer drains one cell late in virtual time.
  consumer_clock_.advance(2e6);
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  // Producer blocked on a full ring observes the consumer's progress time.
  ASSERT_TRUE(producer_->can_enqueue(*producer_acc_));
  EXPECT_GE(producer_clock_.now(), 2e6);
}

TEST_F(SpscRingTest, FullRingRefreshChargesOneWaveOnlyWhenTheHeadMoved) {
  // Once per lap the producer's cached head shows the ring full. Polling
  // a head that has not moved is waiting and charges nothing. A moved head
  // is reloaded together with the freed_stamp of the cell about to be
  // reused: both addresses are known, so the two 8-byte loads are one
  // wave, charged as one nt_load of 16 bytes. Later checks see room in
  // the refreshed view and charge nothing either.
  count_metrics();
  publish(kCells);
  producer_clock_.advance(1e6);  // past every stamp the consumer writes
  const simtime::Ns start = producer_clock_.now();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(producer_->can_enqueue(*producer_acc_));
  }
  EXPECT_EQ(producer_clock_.now(), start);
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(producer_->can_enqueue(*producer_acc_));
  }
  EXPECT_DOUBLE_EQ(producer_clock_.now() - start,
                   nt_load_cost(start, 2 * sizeof(std::uint64_t)));
  EXPECT_EQ(counter("ring.full_reloads"), 1u);
  obs::configure(obs::Config{});
}

TEST_F(SpscRingTest, FullRingReloadLandsOnTheReusedCellsFreedStamp) {
  // The reload absorbs the freed_stamp of the cell the producer reuses,
  // not the head flag's newer stamp. A producer 1 µs before that stamp
  // finishes its one-wave reload (a 790 ns line fill) first and lands
  // exactly on the stamp.
  publish(kCells);
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  consumer_clock_.advance(2e6);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  const auto freed = std::bit_cast<simtime::Ns>(producer_acc_->poll_word(
      SpscRing::kCellsOffset + offsetof(CellHeader, freed_stamp)));
  consumer_clock_.advance(1e6);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  producer_clock_.advance(freed - 1000 - producer_clock_.now());
  ASSERT_LT(nt_load_cost(producer_clock_.now(), 2 * sizeof(std::uint64_t)),
            1000);
  ASSERT_TRUE(producer_->can_enqueue(*producer_acc_));
  EXPECT_DOUBLE_EQ(producer_clock_.now(), freed);
}

TEST_F(SpscRingTest, PoisonedReloadWordsRaiseTheProducersPoison) {
  // Media poison on the freed_stamp word the reload absorbs, or on the
  // head word, raises the producer accessor's sticky poison. The gather
  // reads both words with nt_load_u64's atomic load, and the coherence
  // checker records nothing.
  cxlsim::CoherenceChecker& checker = device_->enable_coherence_checker();
  reformat(kCells, kPayload);
  cxlsim::FaultInjector& fi =
      device_->install_fault_plan(cxlsim::FaultPlan{});
  const std::uint64_t freed_word =
      SpscRing::kCellsOffset + offsetof(CellHeader, freed_stamp);
  fi.poison(freed_word, sizeof(std::uint64_t));
  publish(kCells);
  EXPECT_FALSE(producer_->can_enqueue(*producer_acc_));
  EXPECT_FALSE(producer_acc_->poison_pending());
  CellHeader out{};
  std::vector<std::byte> got(kPayload);
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  ASSERT_TRUE(producer_->can_enqueue(*producer_acc_));
  const Status stamp = producer_acc_->take_poison_status("reload");
  EXPECT_FALSE(stamp.is_ok());
  EXPECT_NE(stamp.message().find(std::to_string(freed_word)),
            std::string::npos)
      << stamp.message();
  ASSERT_TRUE(producer_->try_enqueue(*producer_acc_, header_for({}), {}));
  EXPECT_FALSE(producer_->can_enqueue(*producer_acc_));
  ASSERT_TRUE(consumer_->try_dequeue(*consumer_acc_, out, got));
  fi.poison(SpscRing::kHeadOffset, sizeof(std::uint64_t));
  ASSERT_TRUE(producer_->can_enqueue(*producer_acc_));
  const Status head = producer_acc_->take_poison_status("reload");
  EXPECT_NE(head.message().find(std::to_string(SpscRing::kHeadOffset)),
            std::string::npos)
      << head.message();
  EXPECT_EQ(checker.total_violations(), 0u);
}

TEST_F(SpscRingTest, ConcurrentProducerConsumerStress) {
  constexpr int kMessages = 500;
  std::thread producer_thread([&] {
    for (int i = 0; i < kMessages; ++i) {
      const auto payload = pattern(128, i);
      while (!producer_->try_enqueue(*producer_acc_, header_for(payload, i),
                                     payload)) {
        std::this_thread::yield();
      }
    }
  });
  std::thread consumer_thread([&] {
    std::vector<std::byte> got(kPayload);
    for (int i = 0; i < kMessages; ++i) {
      CellHeader out{};
      while (!consumer_->try_dequeue(*consumer_acc_, out, got)) {
        std::this_thread::yield();
      }
      ASSERT_EQ(out.tag, static_cast<std::uint64_t>(i));
      const auto expected = pattern(128, i);
      ASSERT_TRUE(std::equal(expected.begin(), expected.end(), got.begin()))
          << "message " << i;
    }
  });
  producer_thread.join();
  consumer_thread.join();
}

}  // namespace
}  // namespace cmpi::queue
