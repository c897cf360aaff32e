// Failure injection: what happens when a producer VIOLATES the §3.5
// software-coherence discipline. These tests manipulate the documented
// ring layout directly (head at +64, cells at +192, each published by its
// header's generation) to build broken producers, and show exactly the
// corruption the paper's protocol placement prevents — evidence that the
// discipline in SpscRing is load-bearing, not ceremonial.
#include <gtest/gtest.h>

#include <cstring>

#include "common/units.hpp"
#include "queue/spsc_ring.hpp"

namespace cmpi::queue {
namespace {

constexpr std::size_t kCells = 4;
constexpr std::size_t kPayload = 256;
constexpr std::uint64_t kCellsAt = 192;

class CoherenceViolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = check_ok(cxlsim::DaxDevice::create(8_MiB));
    producer_cache_ = std::make_unique<cxlsim::CacheSim>(*device_);
    consumer_cache_ = std::make_unique<cxlsim::CacheSim>(*device_);
    producer_ = std::make_unique<cxlsim::Accessor>(*device_,
                                                   *producer_cache_,
                                                   producer_clock_);
    consumer_ = std::make_unique<cxlsim::Accessor>(*device_,
                                                   *consumer_cache_,
                                                   consumer_clock_);
    SpscRing::format(*producer_, 0, kCells, kPayload);
    ring_ = std::make_unique<SpscRing>(check_ok(SpscRing::attach(*consumer_, 0)));
  }

  /// Header of the first message through the ring: generation 0 is what
  /// publishes cell 0.
  CellHeader header_for(std::size_t bytes) {
    CellHeader h{};
    h.src_rank = 1;
    h.total_bytes = bytes;
    h.chunk_bytes = bytes;
    h.flags = kLastChunk;
    h.generation = 0;
    return h;
  }

  simtime::VClock producer_clock_;
  simtime::VClock consumer_clock_;
  std::unique_ptr<cxlsim::DaxDevice> device_;
  std::unique_ptr<cxlsim::CacheSim> producer_cache_;
  std::unique_ptr<cxlsim::CacheSim> consumer_cache_;
  std::unique_ptr<cxlsim::Accessor> producer_;
  std::unique_ptr<cxlsim::Accessor> consumer_;
  std::unique_ptr<SpscRing> ring_;  // consumer view
};

TEST_F(CoherenceViolationTest, UnflushedPayloadIsStaleAtConsumer) {
  // Rogue producer: writes header and payload with plain CACHED stores
  // (no flush). The header never reaches the pool, so the cell does not
  // publish at all: the message is lost, not delivered.
  const std::vector<std::byte> payload(kPayload, std::byte{0xAB});
  const CellHeader h = header_for(kPayload);
  const std::span<const std::byte> header_bytes{
      reinterpret_cast<const std::byte*>(&h), sizeof h};
  producer_->store(kCellsAt, header_bytes);  // cached, never flushed
  producer_->store(kCellsAt + sizeof(CellHeader), payload);
  EXPECT_FALSE(ring_->can_dequeue(*consumer_));

  // It then publishes through the header (NT, pool-visible) but still
  // never flushes the payload. The consumer observes the generation and
  // reads the cell's pool bytes — which are still the old zeros because
  // the payload sits dirty in the producer's cache.
  producer_->nt_store(kCellsAt, header_bytes);
  CellHeader out{};
  std::vector<std::byte> got(kPayload, std::byte{0x55});
  // The ring believes a message is available...
  ASSERT_TRUE(ring_->try_dequeue(*consumer_, out, got));
  EXPECT_EQ(out.chunk_bytes, kPayload);
  // ...but the payload is stale zeros, not 0xAB: data corruption.
  EXPECT_NE(std::to_integer<int>(got[0]), 0xAB);
}

TEST_F(CoherenceViolationTest, FlushWithoutFenceOrderingHoleIsClosedByPublish) {
  // A correct producer fences before its header store publishes a cell;
  // this test shows the fence is what guarantees the payload reached the
  // pool before the header did. We emulate the correct path piecewise and check pool contents at
  // each step.
  const std::vector<std::byte> payload(kPayload, std::byte{0x7E});
  producer_->store(kCellsAt + sizeof(CellHeader), payload);
  // Not yet flushed: pool holds zeros.
  std::vector<std::byte> probe(kPayload);
  consumer_->nt_load(kCellsAt + sizeof(CellHeader), probe);
  EXPECT_EQ(std::to_integer<int>(probe[0]), 0);
  producer_->clflushopt(kCellsAt + sizeof(CellHeader), kPayload);
  producer_->sfence();
  // Flushed + fenced: pool holds the data, and only now may the header
  // go out.
  consumer_->nt_load(kCellsAt + sizeof(CellHeader), probe);
  EXPECT_EQ(std::to_integer<int>(probe[0]), 0x7E);
}

TEST_F(CoherenceViolationTest, ConsumerCachedReadsWouldGoStaleAcrossReuse) {
  // If the consumer read payloads with plain cached loads (instead of the
  // ring's pool-coherent bulk reads), the SECOND message through the same
  // cell would be served from its stale cache. Demonstrate with raw
  // accessors on a reused cell.
  const std::vector<std::byte> first(kPayload, std::byte{0x01});
  producer_->nt_store(kCellsAt + sizeof(CellHeader), first);
  std::vector<std::byte> got(kPayload);
  consumer_->load(kCellsAt + sizeof(CellHeader), got);  // caches the lines
  EXPECT_EQ(std::to_integer<int>(got[0]), 0x01);

  const std::vector<std::byte> second(kPayload, std::byte{0x02});
  producer_->nt_store(kCellsAt + sizeof(CellHeader), second);
  consumer_->load(kCellsAt + sizeof(CellHeader), got);  // stale hit!
  EXPECT_EQ(std::to_integer<int>(got[0]), 0x01);

  // The ring's actual read path (bulk/NT) sees the fresh bytes.
  consumer_->bulk_read(kCellsAt + sizeof(CellHeader), got);
  EXPECT_EQ(std::to_integer<int>(got[0]), 0x02);
}

TEST_F(CoherenceViolationTest, CorrectRingSurvivesCellReuseManyTimes) {
  // Control experiment: the real protocol re-uses every cell repeatedly
  // with no staleness (contrast with the violations above).
  auto producer_ring = check_ok(SpscRing::attach(*producer_, 0));
  std::vector<std::byte> out(kPayload);
  for (int i = 0; i < 40; ++i) {
    const std::vector<std::byte> payload(kPayload,
                                         static_cast<std::byte>(i + 1));
    ASSERT_TRUE(producer_ring.try_enqueue(*producer_, header_for(kPayload),
                                          payload));
    CellHeader h{};
    ASSERT_TRUE(ring_->try_dequeue(*consumer_, h, out));
    ASSERT_EQ(std::to_integer<int>(out[0]), i + 1);
    ASSERT_EQ(std::to_integer<int>(out[kPayload - 1]), i + 1);
  }
}

}  // namespace
}  // namespace cmpi::queue
