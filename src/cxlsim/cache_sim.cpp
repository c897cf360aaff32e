#include "cxlsim/cache_sim.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/hash.hpp"
#include "cxlsim/coherence_checker.hpp"

namespace cmpi::cxlsim {

CacheSim::CacheSim(DaxDevice& device, Geometry geometry)
    : device_(device), geometry_(geometry) {
  CMPI_EXPECTS(geometry.sets > 0 && geometry.ways > 0);
  lines_ = std::make_unique_for_overwrite<Line[]>(capacity());
  valid_ = std::make_unique<bool[]>(capacity());
  obs_registration_ = obs::ProviderRegistration([this] {
    const Stats s = stats();
    return std::vector<obs::Sample>{{"cache.hits", s.hits},
                                    {"cache.misses", s.misses},
                                    {"cache.evictions", s.evictions},
                                    {"cache.writebacks", s.writebacks}};
  });
}

CacheSim::~CacheSim() {
  // Leave the checker's coherence domain: forget this cache's copies.
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_cache_detached(this);
  }
}

std::size_t CacheSim::set_index(std::uint64_t line_offset) const noexcept {
  // Hash the line index so pathological strides still spread across sets.
  return static_cast<std::size_t>(hash_u64(line_offset / kCacheLineSize) %
                                  geometry_.sets);
}

void CacheSim::invalidate(Line& line) {
  valid(line) = false;
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_invalidate(this, line.tag);
  }
}

CacheSim::Line* CacheSim::find_line(std::uint64_t line_offset) {
  Line* base = &lines_[set_index(line_offset) * geometry_.ways];
  for (std::size_t w = 0; w < geometry_.ways; ++w) {
    if (valid(base[w]) && base[w].tag == line_offset) {
      base[w].lru = ++lru_clock_;
      return &base[w];
    }
  }
  return nullptr;
}

void CacheSim::pool_read(std::uint64_t offset, std::span<std::byte> dst) {
  DaxDevice::PoolGuard guard(device_);
  std::memcpy(dst.data(), device_.pool().data() + offset, dst.size());
}

void CacheSim::pool_write(std::uint64_t offset,
                          std::span<const std::byte> src) {
  DaxDevice::PoolGuard guard(device_);
  std::memcpy(device_.pool().data() + offset, src.data(), src.size());
}

void CacheSim::writeback_line(Line& line) {
  CMPI_ASSERT(valid(line));
  if (line.dirty) {
    pool_write(line.tag, {line.data, kCacheLineSize});
    line.dirty = false;
    ++stats_.writebacks;
    if (CoherenceChecker* chk = device_.checker()) {
      chk->on_writeback(this, line.tag);
    }
  }
}

CacheSim::Line& CacheSim::fill_line(std::uint64_t line_offset) {
  Line* base = &lines_[set_index(line_offset) * geometry_.ways];
  // Pick an invalid way, else the LRU victim.
  Line* victim = &base[0];
  for (std::size_t w = 0; w < geometry_.ways; ++w) {
    if (!valid(base[w])) {
      victim = &base[w];
      break;
    }
    if (base[w].lru < victim->lru) {
      victim = &base[w];
    }
  }
  if (valid(*victim)) {
    writeback_line(*victim);
    ++stats_.evictions;
    invalidate(*victim);
  }
  victim->tag = line_offset;
  valid(*victim) = true;
  victim->dirty = false;
  victim->lru = ++lru_clock_;
  pool_read(line_offset, {victim->data, kCacheLineSize});
  ++stats_.misses;
  return *victim;
}

void CacheSim::read(std::uint64_t offset, std::span<std::byte> dst) {
  CMPI_EXPECTS(offset + dst.size() <= device_.size());
  std::lock_guard lock(mutex_);
  std::size_t done = 0;
  while (done < dst.size()) {
    const std::uint64_t at = offset + done;
    const std::uint64_t line_offset = align_down(at, kCacheLineSize);
    const std::size_t in_line = at - line_offset;
    const std::size_t chunk =
        std::min(dst.size() - done, kCacheLineSize - in_line);
    Line* line = find_line(line_offset);
    const bool hit = line != nullptr;
    if (hit) {
      ++stats_.hits;
    } else {
      line = &fill_line(line_offset);
    }
    if (CoherenceChecker* chk = device_.checker()) {
      chk->on_cached_read(this, line_offset, hit);
    }
    std::memcpy(dst.data() + done, line->data + in_line, chunk);
    done += chunk;
  }
}

void CacheSim::write(std::uint64_t offset, std::span<const std::byte> src) {
  CMPI_EXPECTS(offset + src.size() <= device_.size());
  std::lock_guard lock(mutex_);
  std::size_t done = 0;
  while (done < src.size()) {
    const std::uint64_t at = offset + done;
    const std::uint64_t line_offset = align_down(at, kCacheLineSize);
    const std::size_t in_line = at - line_offset;
    const std::size_t chunk =
        std::min(src.size() - done, kCacheLineSize - in_line);
    Line* line = find_line(line_offset);
    if (line != nullptr) {
      ++stats_.hits;
    } else {
      // Write-allocate: fill first so partial-line writes merge with the
      // pool's current contents.
      line = &fill_line(line_offset);
    }
    std::memcpy(line->data + in_line, src.data() + done, chunk);
    line->dirty = true;
    if (CoherenceChecker* chk = device_.checker()) {
      chk->on_cached_write(this, line_offset);
    }
    done += chunk;
  }
}

void CacheSim::memset(std::uint64_t offset, std::byte value,
                      std::size_t size) {
  std::byte chunk[kCacheLineSize];
  std::memset(chunk, static_cast<int>(value), sizeof chunk);
  std::size_t done = 0;
  while (done < size) {
    const std::size_t n = std::min(size - done, kCacheLineSize);
    write(offset + done, {chunk, n});
    done += n;
  }
}

CacheSim::FlushResult CacheSim::clflush(std::uint64_t offset,
                                        std::size_t size) {
  CMPI_EXPECTS(offset + size <= device_.size());
  std::lock_guard lock(mutex_);
  FlushResult result{};
  if (size == 0) {
    return result;
  }
  const std::uint64_t first = align_down(offset, kCacheLineSize);
  const std::uint64_t last = align_down(offset + size - 1, kCacheLineSize);
  for (std::uint64_t at = first; at <= last; at += kCacheLineSize) {
    ++result.lines_touched;
    if (Line* line = find_line(at); line != nullptr) {
      if (line->dirty) {
        writeback_line(*line);
        ++result.lines_written_back;
      }
      invalidate(*line);
    }
  }
  return result;
}

CacheSim::FlushResult CacheSim::clwb(std::uint64_t offset, std::size_t size) {
  CMPI_EXPECTS(offset + size <= device_.size());
  std::lock_guard lock(mutex_);
  FlushResult result{};
  if (size == 0) {
    return result;
  }
  const std::uint64_t first = align_down(offset, kCacheLineSize);
  const std::uint64_t last = align_down(offset + size - 1, kCacheLineSize);
  for (std::uint64_t at = first; at <= last; at += kCacheLineSize) {
    ++result.lines_touched;
    if (Line* line = find_line(at); line != nullptr && line->dirty) {
      writeback_line(*line);
      ++result.lines_written_back;
    }
  }
  return result;
}

void CacheSim::nt_store(std::uint64_t offset, std::span<const std::byte> src) {
  CMPI_EXPECTS(offset + src.size() <= device_.size());
  std::lock_guard lock(mutex_);
  if (!src.empty()) {
    // Evict any cached copies so the cache never shadows the NT data.
    const std::uint64_t first = align_down(offset, kCacheLineSize);
    const std::uint64_t last =
        align_down(offset + src.size() - 1, kCacheLineSize);
    for (std::uint64_t at = first; at <= last; at += kCacheLineSize) {
      if (Line* line = find_line(at); line != nullptr) {
        writeback_line(*line);
        invalidate(*line);
      }
    }
  }
  pool_write(offset, src);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_pool_write(this, offset, src.size());
  }
}

void CacheSim::nt_load(std::uint64_t offset, std::span<std::byte> dst) {
  CMPI_EXPECTS(offset + dst.size() <= device_.size());
  std::lock_guard lock(mutex_);
  pool_read(offset, dst);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_pool_read(this, offset, dst.size());
  }
  if (dst.empty()) {
    return;
  }
  // The node's own coherent domain satisfies loads of locally dirty lines.
  const std::uint64_t first = align_down(offset, kCacheLineSize);
  const std::uint64_t last =
      align_down(offset + dst.size() - 1, kCacheLineSize);
  for (std::uint64_t at = first; at <= last; at += kCacheLineSize) {
    Line* line = find_line(at);
    if (line == nullptr || !line->dirty) {
      continue;
    }
    const std::uint64_t lo = std::max<std::uint64_t>(at, offset);
    const std::uint64_t hi =
        std::min<std::uint64_t>(at + kCacheLineSize, offset + dst.size());
    std::memcpy(dst.data() + (lo - offset), line->data + (lo - at), hi - lo);
  }
}

std::uint64_t CacheSim::nt_load_u64(std::uint64_t offset) {
  CMPI_EXPECTS(is_aligned(offset, sizeof(std::uint64_t)));
  CMPI_EXPECTS(offset + sizeof(std::uint64_t) <= device_.size());
  const auto* cell = reinterpret_cast<const std::atomic<std::uint64_t>*>(
      device_.pool().data() + offset);
  const std::uint64_t value = cell->load(std::memory_order_acquire);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_pool_read_u64(this, offset);
  }
  return value;
}

void CacheSim::nt_store_u64(std::uint64_t offset, std::uint64_t value) {
  CMPI_EXPECTS(is_aligned(offset, sizeof(std::uint64_t)));
  CMPI_EXPECTS(offset + sizeof(std::uint64_t) <= device_.size());
  auto* cell = reinterpret_cast<std::atomic<std::uint64_t>*>(
      device_.pool().data() + offset);
  cell->store(value, std::memory_order_release);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_pool_write_u64(this, offset);
  }
}

void CacheSim::writeback_all() {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < capacity(); ++i) {
    if (valid_[i]) {
      writeback_line(lines_[i]);
      invalidate(lines_[i]);
    }
  }
}

void CacheSim::drop_all() {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < capacity(); ++i) {
    if (valid_[i]) {
      invalidate(lines_[i]);
    }
  }
}

void CacheSim::discard(std::uint64_t offset, std::size_t size) {
  CMPI_EXPECTS(is_aligned(offset, kCacheLineSize) &&
               is_aligned(size, kCacheLineSize));
  CMPI_EXPECTS(offset + size <= device_.size());
  std::lock_guard lock(mutex_);
  // Walk the cache, not the range: a slot table spans more lines than
  // the whole cache holds.
  for (std::size_t i = 0; i < capacity(); ++i) {
    if (valid_[i] && lines_[i].tag >= offset &&
        lines_[i].tag < offset + size) {
      invalidate(lines_[i]);
    }
  }
  device_.discard(offset, size);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_pool_write(this, offset, size);
  }
}

CacheSim::Stats CacheSim::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace cmpi::cxlsim
