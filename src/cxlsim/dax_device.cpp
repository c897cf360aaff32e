#include "cxlsim/dax_device.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/log.hpp"
#include "cxlsim/coherence_checker.hpp"
#include "cxlsim/fault_injector.hpp"

#if defined(__linux__)
#include <sys/syscall.h>
#endif

namespace cmpi::cxlsim {
namespace {

int make_memfd(const char* name, std::size_t size) {
#if defined(__linux__)
  const int fd = static_cast<int>(syscall(SYS_memfd_create, name, 0));
#else
  (void)name;
  const int fd = -1;
  errno = ENOSYS;
#endif
  if (fd < 0) {
    return -1;
  }
  if (ftruncate(fd, static_cast<off_t>(size)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Result<std::unique_ptr<DaxDevice>> DaxDevice::create(
    std::size_t size, unsigned heads, const CxlTimingParams& timing) {
  if (size == 0) {
    return status::invalid_argument("pool size must be nonzero");
  }
  if (heads == 0) {
    return status::invalid_argument("device needs at least one head");
  }
  const std::size_t pool_size = align_up(size, kDaxAlignment);

  const int pool_fd = make_memfd("cmpi-cxl-pool", pool_size);
  if (pool_fd < 0) {
    return status::internal(std::string("memfd_create(pool): ") +
                            std::strerror(errno));
  }
  void* pool_base = mmap(nullptr, pool_size, PROT_READ | PROT_WRITE,
                         MAP_SHARED, pool_fd, 0);
  if (pool_base == MAP_FAILED) {
    close(pool_fd);
    return status::internal(std::string("mmap(pool): ") +
                            std::strerror(errno));
  }

  const int ctrl_fd = make_memfd("cmpi-cxl-ctrl", sizeof(CtrlBlock));
  if (ctrl_fd < 0) {
    munmap(pool_base, pool_size);
    close(pool_fd);
    return status::internal(std::string("memfd_create(ctrl): ") +
                            std::strerror(errno));
  }
  void* ctrl_raw = mmap(nullptr, sizeof(CtrlBlock), PROT_READ | PROT_WRITE,
                        MAP_SHARED, ctrl_fd, 0);
  if (ctrl_raw == MAP_FAILED) {
    munmap(pool_base, pool_size);
    close(pool_fd);
    close(ctrl_fd);
    return status::internal(std::string("mmap(ctrl): ") +
                            std::strerror(errno));
  }

  auto* ctrl = new (ctrl_raw) CtrlBlock{};
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  pthread_mutex_init(&ctrl->pool_mutex, &attr);
  pthread_mutexattr_destroy(&attr);

  log_info("cxlsim: created pooled device: %zu MiB, %u heads",
           pool_size >> 20, heads);
  auto device = std::unique_ptr<DaxDevice>(
      new DaxDevice(pool_fd, static_cast<std::byte*>(pool_base), pool_size,
                    ctrl_fd, ctrl, heads, timing));
  if (const char* env = std::getenv("CMPI_COHERENCE_CHECK");
      env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
    device->enable_coherence_checker();
  }
  return device;
}

DaxDevice::DaxDevice(int pool_fd, std::byte* pool_base, std::size_t size,
                     int ctrl_fd, CtrlBlock* ctrl, unsigned heads,
                     const CxlTimingParams& timing)
    : pool_fd_(pool_fd),
      pool_base_(pool_base),
      size_(size),
      ctrl_fd_(ctrl_fd),
      ctrl_(ctrl),
      heads_(heads),
      timing_(timing) {}

DaxDevice::~DaxDevice() {
  if (ctrl_ != nullptr) {
    pthread_mutex_destroy(&ctrl_->pool_mutex);
    munmap(ctrl_, sizeof(CtrlBlock));
  }
  if (ctrl_fd_ >= 0) {
    close(ctrl_fd_);
  }
  if (pool_base_ != nullptr) {
    munmap(pool_base_, size_);
  }
  if (pool_fd_ >= 0) {
    close(pool_fd_);
  }
}

void DaxDevice::discard(std::uint64_t offset, std::uint64_t size) {
  CMPI_EXPECTS(offset <= size_ && size <= size_ - offset);
  static const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  const std::uint64_t end = offset + size;
  const std::uint64_t first = std::min(align_up(offset, page), end);
  const std::uint64_t last = std::max(align_down(end, page), first);
  PoolGuard guard(*this);
  std::memset(pool_base_ + offset, 0, first - offset);
  std::memset(pool_base_ + last, 0, end - last);
  if (first == last) {
    return;
  }
#if defined(__linux__)
  if (fallocate(pool_fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                static_cast<off_t>(first),
                static_cast<off_t>(last - first)) == 0) {
    return;
  }
#endif
  // No hole punching here: store the zeros instead.
  std::memset(pool_base_ + first, 0, last - first);
}

bool DaxDevice::holds_data(std::uint64_t offset, std::uint64_t size) const {
  CMPI_EXPECTS(offset <= size_ && size <= size_ - offset);
#if defined(__linux__)
  const off_t data = lseek(pool_fd_, static_cast<off_t>(offset), SEEK_DATA);
  if (data >= 0) {
    return static_cast<std::uint64_t>(data) < offset + size;
  }
  if (errno == ENXIO) {
    return false;  // no data at or past `offset`
  }
#endif
  return true;
}

Status DaxDevice::set_cacheability(std::uint64_t offset, std::uint64_t size,
                                   Cacheability type) {
  if (size == 0 || offset + size > size_) {
    return status::invalid_argument("MTRR range outside the pool");
  }
  MtrrTable& table = ctrl_->mtrr;
  // Reprogramming an existing range replaces it.
  for (std::uint32_t i = 0; i < table.count; ++i) {
    if (table.ranges[i].offset == offset && table.ranges[i].size == size) {
      table.ranges[i].type = type;
      return Status::ok();
    }
  }
  if (table.count == MtrrTable::kMaxRanges) {
    return status::capacity_exceeded("MTRR register file full");
  }
  table.ranges[table.count++] = {offset, size, type};
  return Status::ok();
}

CoherenceChecker& DaxDevice::enable_coherence_checker() {
  if (checker_ == nullptr) {
    checker_ = std::make_unique<CoherenceChecker>();
  }
  return *checker_;
}

void DaxDevice::disable_coherence_checker() { checker_.reset(); }

FaultInjector& DaxDevice::install_fault_plan(FaultPlan plan) {
  fault_injector_ = std::make_unique<FaultInjector>(std::move(plan));
  return *fault_injector_;
}

void DaxDevice::clear_fault_plan() { fault_injector_.reset(); }

Cacheability DaxDevice::cacheability(std::uint64_t offset) const noexcept {
  const MtrrTable& table = ctrl_->mtrr;
  for (std::uint32_t i = 0; i < table.count; ++i) {
    const auto& r = table.ranges[i];
    if (offset >= r.offset && offset < r.offset + r.size) {
      return r.type;
    }
  }
  return Cacheability::kWriteBack;
}

}  // namespace cmpi::cxlsim
