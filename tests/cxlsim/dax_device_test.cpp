#include "cxlsim/dax_device.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#include "common/align.hpp"

namespace cmpi::cxlsim {
namespace {

TEST(DaxDevice, CreateRoundsToDaxAlignment) {
  auto device = check_ok(DaxDevice::create(1));
  EXPECT_EQ(device->size(), kDaxAlignment);
  auto device2 = check_ok(DaxDevice::create(kDaxAlignment + 1));
  EXPECT_EQ(device2->size(), 2 * kDaxAlignment);
}

TEST(DaxDevice, RejectsZeroSize) {
  EXPECT_FALSE(DaxDevice::create(0).is_ok());
}

TEST(DaxDevice, RejectsZeroHeads) {
  EXPECT_FALSE(DaxDevice::create(1024, 0).is_ok());
}

TEST(DaxDevice, PoolIsZeroInitializedAndWritable) {
  auto device = check_ok(DaxDevice::create(4096));
  auto pool = device->pool();
  EXPECT_EQ(std::to_integer<int>(pool[0]), 0);
  EXPECT_EQ(std::to_integer<int>(pool[pool.size() - 1]), 0);
  pool[123] = std::byte{0xAB};
  EXPECT_EQ(std::to_integer<int>(device->pool()[123]), 0xAB);
}

TEST(DaxDevice, ExposesBackingFd) {
  auto device = check_ok(DaxDevice::create(4096));
  EXPECT_GE(device->fd(), 0);
}

TEST(DaxDevice, DefaultCacheabilityIsWriteBack) {
  auto device = check_ok(DaxDevice::create(4096));
  EXPECT_EQ(device->cacheability(0), Cacheability::kWriteBack);
  EXPECT_EQ(device->cacheability(device->size() - 1),
            Cacheability::kWriteBack);
}

TEST(DaxDevice, MtrrRangeMarksUncachable) {
  auto device = check_ok(DaxDevice::create(4096));
  check_ok(device->set_cacheability(4096, 8192, Cacheability::kUncachable));
  EXPECT_EQ(device->cacheability(4095), Cacheability::kWriteBack);
  EXPECT_EQ(device->cacheability(4096), Cacheability::kUncachable);
  EXPECT_EQ(device->cacheability(4096 + 8191), Cacheability::kUncachable);
  EXPECT_EQ(device->cacheability(4096 + 8192), Cacheability::kWriteBack);
}

TEST(DaxDevice, MtrrReprogramSameRangeReplaces) {
  auto device = check_ok(DaxDevice::create(4096));
  check_ok(device->set_cacheability(0, 4096, Cacheability::kUncachable));
  check_ok(device->set_cacheability(0, 4096, Cacheability::kWriteBack));
  EXPECT_EQ(device->cacheability(0), Cacheability::kWriteBack);
}

TEST(DaxDevice, MtrrRegisterFileIsBounded) {
  auto device = check_ok(DaxDevice::create(kDaxAlignment));
  for (std::size_t i = 0; i < MtrrTable::kMaxRanges; ++i) {
    check_ok(device->set_cacheability(i * 4096, 4096,
                                      Cacheability::kUncachable));
  }
  const Status overflow = device->set_cacheability(
      MtrrTable::kMaxRanges * 4096, 4096, Cacheability::kUncachable);
  EXPECT_EQ(overflow.code(), ErrorCode::kCapacityExceeded);
}

TEST(DaxDevice, MtrrRejectsOutOfRange) {
  auto device = check_ok(DaxDevice::create(4096));
  EXPECT_EQ(device
                ->set_cacheability(device->size() - 64, 128,
                                   Cacheability::kUncachable)
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(device->set_cacheability(0, 0, Cacheability::kUncachable).code(),
            ErrorCode::kInvalidArgument);
}

TEST(DaxDevice, HeadsAreReported) {
  auto device = check_ok(DaxDevice::create(4096, 2));
  EXPECT_EQ(device->heads(), 2u);
}

TEST(DaxDevice, DiscardZeroesExactlyItsRange) {
  auto device = check_ok(DaxDevice::create(4096));
  const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  const std::uint64_t span = 8 * page;
  // A second mapping of the pool, as a forked process would hold: a
  // punched hole must read as zeros through it too.
  void* other = mmap(nullptr, span, PROT_READ, MAP_SHARED, device->fd(), 0);
  ASSERT_NE(other, MAP_FAILED);
  const auto* remote = static_cast<const std::byte*>(other);
  struct Case {
    const char* what;
    std::uint64_t offset;
    std::uint64_t size;
  };
  const Case cases[] = {
      {"unaligned start and end", page + 100, 3 * page + 50},
      {"sub-page range", 2 * page + 10, 300},
      {"whole pages", 4 * page, 2 * page},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    auto pool = device->pool();
    std::memset(pool.data(), 0xEE, span);
    device->discard(c.offset, c.size);
    for (std::uint64_t i = 0; i < span; ++i) {
      const bool inside = i >= c.offset && i < c.offset + c.size;
      const std::byte want = inside ? std::byte{0} : std::byte{0xEE};
      ASSERT_EQ(pool[i], want) << "byte " << i;
      ASSERT_EQ(remote[i], want) << "byte " << i << " (second mapping)";
    }
  }
  munmap(other, span);
}

TEST(DaxDevice, HoldsDataTracksWrittenAndDiscardedPages) {
  auto device = check_ok(DaxDevice::create(std::size_t{8} << 20));
  const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  EXPECT_FALSE(device->holds_data(0, device->size()));
  device->pool()[3 * page + 5] = std::byte{1};
  EXPECT_TRUE(device->holds_data(3 * page + 100, 1));
  EXPECT_TRUE(device->holds_data(0, 4 * page));
  EXPECT_FALSE(device->holds_data(0, 3 * page));
  EXPECT_FALSE(device->holds_data(4 * page, device->size() - 4 * page));
  device->discard(3 * page, page);
  EXPECT_FALSE(device->holds_data(0, device->size()));
}

}  // namespace
}  // namespace cmpi::cxlsim
