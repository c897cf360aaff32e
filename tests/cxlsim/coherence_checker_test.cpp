// CoherenceChecker: the §3.5 software-coherence discipline as a
// machine-checked property. Each negative test injects one specific
// protocol bug (missing flush, racing stores, publish over dirty payload,
// publish before fence) and asserts the checker reports that violation —
// with the right kind, rank, and pool address. The positive tests run the
// real protocol and assert silence.
#include "cxlsim/coherence_checker.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/units.hpp"
#include "cxlsim/accessor.hpp"
#include "cxlsim/dax_device.hpp"

namespace cmpi::cxlsim {
namespace {

constexpr int kProducerRank = 1;
constexpr int kConsumerRank = 0;
constexpr std::uint64_t kData = 4096;   // payload line under test
constexpr std::uint64_t kFlag = 8192;   // 16-byte timestamped flag

class CoherenceCheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = check_ok(DaxDevice::create(8_MiB));
    device_->enable_coherence_checker();
    producer_cache_ = std::make_unique<CacheSim>(*device_);
    consumer_cache_ = std::make_unique<CacheSim>(*device_);
    producer_ = std::make_unique<Accessor>(*device_, *producer_cache_,
                                           producer_clock_);
    consumer_ = std::make_unique<Accessor>(*device_, *consumer_cache_,
                                           consumer_clock_);
  }

  void TearDown() override {
    // Tests run on one thread; leave it untagged for the next test.
    CoherenceChecker::set_current_rank(-1);
  }

  CoherenceChecker& checker() { return *device_->checker(); }

  /// Both accessors live on the test thread, so rank attribution is set
  /// before acting as each side.
  static void as_producer() {
    CoherenceChecker::set_current_rank(kProducerRank);
  }
  static void as_consumer() {
    CoherenceChecker::set_current_rank(kConsumerRank);
  }

  /// First stored violation of `kind`, failing the test if absent.
  CoherenceChecker::Violation first_of(CoherenceChecker::Kind kind) {
    for (const auto& v : checker().violations()) {
      if (v.kind == kind) {
        return v;
      }
    }
    ADD_FAILURE() << "no violation of kind "
                  << CoherenceChecker::kind_name(kind);
    return {};
  }

  simtime::VClock producer_clock_;
  simtime::VClock consumer_clock_;
  std::unique_ptr<DaxDevice> device_;
  std::unique_ptr<CacheSim> producer_cache_;
  std::unique_ptr<CacheSim> consumer_cache_;
  std::unique_ptr<Accessor> producer_;
  std::unique_ptr<Accessor> consumer_;
};

TEST_F(CoherenceCheckerTest, CorrectPublishSubscribeIsSilent) {
  // The full discipline: coherent (flushed) writes, fenced publish,
  // pool-coherent reads. Nothing to report.
  const std::vector<std::byte> payload(256, std::byte{0x5A});
  as_producer();
  producer_->store(kData, payload);
  producer_->clflushopt(kData, payload.size());
  producer_->annotate_publish_range(kData, payload.size());
  producer_->publish_flag(kFlag, 1);

  as_consumer();
  const auto flag = consumer_->peek_flag(kFlag);
  EXPECT_EQ(flag.value, 1u);
  consumer_->absorb_flag(flag);
  std::vector<std::byte> got(payload.size());
  consumer_->bulk_read(kData, got);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(checker().summary().total(), 0u);
}

TEST_F(CoherenceCheckerTest, NtOnlyTrafficIsSilent) {
  as_producer();
  const std::vector<std::byte> payload(512, std::byte{0x11});
  producer_->bulk_write(kData, payload);
  producer_->annotate_publish_range(kData, payload.size());
  producer_->publish_flag(kFlag, 1);
  as_consumer();
  std::vector<std::byte> got(payload.size());
  consumer_->bulk_read(kData, got);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(checker().summary().total(), 0u);
}

TEST_F(CoherenceCheckerTest, MissingFlushBeforeConsumerReadIsStaleRead) {
  // Producer leaves the payload dirty in its cache; the consumer's
  // pool-coherent read can only observe the (older) pool bytes.
  as_producer();
  const std::vector<std::byte> payload(64, std::byte{0xAB});
  producer_->store(kData, payload);  // cached, never flushed

  as_consumer();
  std::vector<std::byte> got(64);
  consumer_->bulk_read(kData, got);

  EXPECT_GE(checker().summary().count(CoherenceChecker::Kind::kStaleRead),
            1u);
  const auto v = first_of(CoherenceChecker::Kind::kStaleRead);
  EXPECT_EQ(v.rank, kConsumerRank);  // the read observed stale data
  EXPECT_EQ(v.offset, kData);
}

TEST_F(CoherenceCheckerTest, CachedHitOvertakenByPoolIsStaleRead) {
  // Consumer caches a line, producer NT-overwrites it in the pool, the
  // consumer's next cached load hits the stale copy.
  as_producer();
  const std::vector<std::byte> first(64, std::byte{0x01});
  producer_->nt_store(kData, first);
  as_consumer();
  std::vector<std::byte> got(64);
  consumer_->load(kData, got);  // fills the consumer cache
  EXPECT_EQ(checker().summary().total(), 0u);

  as_producer();
  const std::vector<std::byte> second(64, std::byte{0x02});
  producer_->nt_store(kData, second);
  as_consumer();
  consumer_->load(kData, got);  // stale hit

  EXPECT_GE(checker().summary().count(CoherenceChecker::Kind::kStaleRead),
            1u);
  const auto v = first_of(CoherenceChecker::Kind::kStaleRead);
  EXPECT_EQ(v.rank, kConsumerRank);
  EXPECT_EQ(v.offset, kData);
}

TEST_F(CoherenceCheckerTest, ConcurrentDirtyStoresAreLostUpdate) {
  as_producer();
  const std::vector<std::byte> mine(64, std::byte{0x01});
  producer_->store(kData, mine);  // dirty in producer's cache
  as_consumer();
  const std::vector<std::byte> theirs(64, std::byte{0x02});
  consumer_->store(kData, theirs);  // racing store: one write must lose

  EXPECT_GE(checker().summary().count(CoherenceChecker::Kind::kLostUpdate),
            1u);
  const auto v = first_of(CoherenceChecker::Kind::kLostUpdate);
  EXPECT_EQ(v.rank, kConsumerRank);  // the second writer races the first
  EXPECT_EQ(v.offset, kData);
}

TEST_F(CoherenceCheckerTest, NtStoreOverForeignDirtyLineIsLostUpdate) {
  as_consumer();
  const std::vector<std::byte> theirs(64, std::byte{0x02});
  consumer_->store(kData, theirs);  // dirty in the consumer's cache
  as_producer();
  const std::vector<std::byte> mine(128, std::byte{0x01});
  producer_->nt_store(kData, mine);  // lands in the pool underneath it

  EXPECT_GE(checker().summary().count(CoherenceChecker::Kind::kLostUpdate),
            1u);
  const auto v = first_of(CoherenceChecker::Kind::kLostUpdate);
  EXPECT_EQ(v.rank, kProducerRank);
  EXPECT_EQ(v.offset, kData);
}

TEST_F(CoherenceCheckerTest, PublishOverDirtyPayloadIsTornPublish) {
  // The flag goes up while its covered payload is still dirty in the
  // publisher's cache: a reader that trusts the flag reads garbage.
  as_producer();
  const std::vector<std::byte> payload(64, std::byte{0xCD});
  producer_->store(kData, payload);  // dirty — flush forgotten
  producer_->annotate_publish_range(kData, payload.size());
  producer_->publish_flag(kFlag, 1);

  EXPECT_GE(checker().summary().count(CoherenceChecker::Kind::kTornPublish),
            1u);
  const auto v = first_of(CoherenceChecker::Kind::kTornPublish);
  EXPECT_EQ(v.rank, kProducerRank);
  EXPECT_EQ(v.offset, kData);
}

TEST_F(CoherenceCheckerTest, FlushedPayloadPublishIsNotTorn) {
  as_producer();
  const std::vector<std::byte> payload(64, std::byte{0xCD});
  producer_->store(kData, payload);
  producer_->clflushopt(kData, payload.size());
  producer_->annotate_publish_range(kData, payload.size());
  producer_->publish_flag(kFlag, 1);
  EXPECT_EQ(checker().summary().count(CoherenceChecker::Kind::kTornPublish),
            0u);
}

TEST_F(CoherenceCheckerTest, RawFlagStoreWithUnfencedWritesIsFenceOrder) {
  // publish_flag registers the flag word; a later raw nt_store_u64 to it
  // while NT writes are still undrained is a publish-before-sfence bug.
  as_producer();
  producer_->publish_flag(kFlag, 1);  // registers kFlag as a flag word
  const std::vector<std::byte> payload(256, std::byte{0x33});
  producer_->bulk_write(kData, payload);  // NT writes now outstanding
  producer_->nt_store_u64(kFlag, 2);      // no sfence in between!

  EXPECT_GE(checker().summary().count(CoherenceChecker::Kind::kFenceOrder),
            1u);
  const auto v = first_of(CoherenceChecker::Kind::kFenceOrder);
  EXPECT_EQ(v.rank, kProducerRank);
  EXPECT_EQ(v.offset, kFlag);
}

TEST_F(CoherenceCheckerTest, FencedFlagStoreIsSilent) {
  as_producer();
  producer_->publish_flag(kFlag, 1);
  const std::vector<std::byte> payload(256, std::byte{0x33});
  producer_->bulk_write(kData, payload);
  producer_->sfence();
  producer_->nt_store_u64(kFlag, 2);  // correctly ordered
  EXPECT_EQ(checker().summary().count(CoherenceChecker::Kind::kFenceOrder),
            0u);
}

TEST_F(CoherenceCheckerTest, ToleranceScopeSuppressesStaleReadOnly) {
  as_producer();
  const std::vector<std::byte> payload(64, std::byte{0xAB});
  producer_->store(kData, payload);  // dirty
  as_consumer();
  std::vector<std::byte> got(64);
  {
    CoherenceChecker::ToleranceScope tolerate;
    consumer_->bulk_read(kData, got);  // optimistic probe: suppressed
  }
  EXPECT_EQ(checker().summary().count(CoherenceChecker::Kind::kStaleRead),
            0u);
  consumer_->bulk_read(kData, got);  // outside the scope: reported
  EXPECT_GE(checker().summary().count(CoherenceChecker::Kind::kStaleRead),
            1u);
}

TEST_F(CoherenceCheckerTest, SummaryStringAndClear) {
  as_producer();
  const std::vector<std::byte> payload(64, std::byte{0x01});
  producer_->store(kData, payload);
  as_consumer();
  std::vector<std::byte> got(64);
  consumer_->bulk_read(kData, got);
  ASSERT_GE(checker().total_violations(), 1u);
  EXPECT_NE(checker().summary_string().find("stale-read"),
            std::string::npos);
  checker().clear();
  EXPECT_EQ(checker().total_violations(), 0u);
  EXPECT_TRUE(checker().violations().empty());
}

TEST_F(CoherenceCheckerTest, DestroyedCacheLeavesTheDomain) {
  // A node that goes away takes its cached copies with it: a dirty line it
  // never flushed must not turn a later store by another node into a lost
  // update.
  as_consumer();
  const std::vector<std::byte> theirs(64, std::byte{0x02});
  consumer_->store(kData, theirs);  // dirty in the consumer's cache
  consumer_.reset();
  consumer_cache_.reset();

  as_producer();
  const std::vector<std::byte> mine(64, std::byte{0x01});
  producer_->nt_store(kData, mine);
  EXPECT_EQ(checker().total_violations(), 0u);
}

TEST_F(CoherenceCheckerTest, DisabledCheckerCostsNothingAndReportsNothing) {
  device_->disable_coherence_checker();
  EXPECT_EQ(device_->checker(), nullptr);
  as_producer();
  const std::vector<std::byte> payload(64, std::byte{0xAB});
  producer_->store(kData, payload);  // would be a violation if enabled
  as_consumer();
  std::vector<std::byte> got(64);
  consumer_->bulk_read(kData, got);  // no checker, no report, no crash
}

}  // namespace
}  // namespace cmpi::cxlsim
