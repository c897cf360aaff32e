#include "cxlsim/timing.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"

namespace cmpi::cxlsim {
namespace {

TEST(CxlTiming, UncachedCostRegimes) {
  CxlTimingModel model{CxlTimingParams{}};
  const auto& p = model.params();
  // Below the MPS write-combining threshold: cheap per-line cost.
  EXPECT_DOUBLE_EQ(model.uncached_cost(64), p.uc_line_cost_small);
  EXPECT_DOUBLE_EQ(model.uncached_cost(2048), 32 * p.uc_line_cost_small);
  // Above: each line is a serialized TLP exchange.
  EXPECT_DOUBLE_EQ(model.uncached_cost(4096), 64 * p.uc_line_cost_large);
}

TEST(CxlTiming, UncachedSpikesPast4096UsBeyondMps) {
  // §4.5: uncacheable access exceeds 4096 us once the size passes the MPS
  // regime (Fig. 11's spike).
  CxlTimingModel model{CxlTimingParams{}};
  EXPECT_GE(model.uncached_cost(8 * 1024), 4096e3);
  EXPECT_LT(model.uncached_cost(2 * 1024), 100e3);
}

TEST(CxlTiming, UncachedZeroSizeStillCostsOneLine) {
  CxlTimingModel model{CxlTimingParams{}};
  EXPECT_GT(model.uncached_cost(0), 0.0);
}

TEST(CxlTiming, CpuCopyCostLinearBelowThreshold) {
  CxlTimingModel model{CxlTimingParams{}};
  const auto& p = model.params();
  EXPECT_DOUBLE_EQ(model.cpu_copy_cost(1024, /*streams=*/1),
                   1024 / p.cpu_copy_bytes_per_ns);
  EXPECT_DOUBLE_EQ(model.cpu_copy_cost(0, /*streams=*/1), 0.0);
}

TEST(CxlTiming, CpuCopySoloStreamNeverDegrades) {
  CxlTimingModel model{CxlTimingParams{}};
  const auto& p = model.params();
  EXPECT_DOUBLE_EQ(model.cpu_copy_cost(8_MiB, /*streams=*/1),
                   8_MiB / p.cpu_copy_bytes_per_ns);
}

TEST(CxlTiming, CpuCopyDegradesWithConcurrentStreamsForLargeMessages) {
  CxlTimingModel model{CxlTimingParams{}};
  const auto& p = model.params();
  // Small messages: contention-free even with 4 streams.
  EXPECT_DOUBLE_EQ(model.cpu_copy_cost(16_KiB, /*streams=*/4),
                   16_KiB / p.cpu_copy_bytes_per_ns);
  // Large messages: slower than the solo rate.
  EXPECT_GT(model.cpu_copy_cost(8_MiB, /*streams=*/4),
            1.5 * (8_MiB / p.cpu_copy_bytes_per_ns));
}

TEST(CxlTiming, StreamScopeGaugeNests) {
  StreamGauge gauge;
  EXPECT_EQ(gauge.active(), 0);
  {
    const StreamGauge::Scope a(gauge);
    EXPECT_EQ(gauge.active(), 1);
    {
      const StreamGauge::Scope b(gauge);
      EXPECT_EQ(gauge.active(), 2);
    }
    EXPECT_EQ(gauge.active(), 1);
  }
  EXPECT_EQ(gauge.active(), 0);
}

TEST(CxlTiming, DeviceReadsCheaperThanWrites) {
  CxlTimingModel model{CxlTimingParams{}};
  const simtime::Ns write_done =
      model.reserve_device(0, 1_MiB, /*is_read=*/false);
  model.reset();
  const simtime::Ns read_done =
      model.reserve_device(0, 1_MiB, /*is_read=*/true);
  EXPECT_LT(read_done, write_done);
  EXPECT_NEAR(read_done / write_done, model.params().read_cost_factor, 0.01);
}

TEST(CxlTiming, DeviceBandwidthIsShared) {
  CxlTimingModel model{CxlTimingParams{}};
  const simtime::Ns first = model.reserve_device(0, 1_MiB, false);
  const simtime::Ns second = model.reserve_device(0, 1_MiB, false);
  EXPECT_NEAR(second, 2 * first, 1.0);
}

}  // namespace
}  // namespace cmpi::cxlsim
