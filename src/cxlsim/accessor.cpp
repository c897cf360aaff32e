#include "cxlsim/accessor.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "common/align.hpp"
#include "cxlsim/coherence_checker.hpp"
#include "obs/obs.hpp"

namespace cmpi::cxlsim {

namespace {

/// Number of whole cache lines an access spans.
std::size_t lines_of(std::uint64_t offset, std::size_t size) noexcept {
  return cache_lines_spanned(offset, size);
}

}  // namespace

void Accessor::store(std::uint64_t offset, std::span<const std::byte> src) {
  fault_access(offset, src.size(), /*is_read=*/false);
  const auto& p = device_.timing().params();
  if (is_uncachable(offset)) {
    cache_.nt_store(offset, src);
    clock_.advance(device_.timing().uncached_cost(src.size()));
    return;
  }
  cache_.write(offset, src);
  // Stores retire through the write buffer; per-line cost is a cache hit.
  clock_.advance(static_cast<simtime::Ns>(lines_of(offset, src.size())) *
                 p.cache_hit_latency);
}

void Accessor::load(std::uint64_t offset, std::span<std::byte> dst) {
  fault_access(offset, dst.size(), /*is_read=*/true);
  const auto& p = device_.timing().params();
  if (is_uncachable(offset)) {
    cache_.nt_load(offset, dst);
    clock_.advance(device_.timing().uncached_cost(dst.size()));
    return;
  }
  const auto before = cache_.stats();
  cache_.read(offset, dst);
  const auto after = cache_.stats();
  const auto misses = after.misses - before.misses;
  const auto hits = after.hits - before.hits;
  // A degraded link (fault injection) stretches the fill, not the hit.
  clock_.advance(static_cast<simtime::Ns>(misses) *
                     (p.line_fill_latency * fault_latency_multiplier()) +
                 static_cast<simtime::Ns>(hits) * p.cache_hit_latency);
}

void Accessor::memset(std::uint64_t offset, std::byte value,
                      std::size_t size) {
  fault_access(offset, size, /*is_read=*/false);
  const auto& p = device_.timing().params();
  if (is_uncachable(offset)) {
    // One UC op for the whole range: the regime (write-combining vs TLP
    // splitting) depends on the total size, Fig. 11.
    std::byte chunk[kCacheLineSize];
    std::fill(std::begin(chunk), std::end(chunk), value);
    std::size_t done = 0;
    while (done < size) {
      const std::size_t n = std::min(size - done, sizeof chunk);
      cache_.nt_store(offset + done, {chunk, n});
      done += n;
    }
    clock_.advance(device_.timing().uncached_cost(size));
    return;
  }
  cache_.memset(offset, value, size);
  clock_.advance(static_cast<simtime::Ns>(lines_of(offset, size)) *
                 p.cache_hit_latency);
}

void Accessor::charge_flush(const CacheSim::FlushResult& result,
                            simtime::Ns per_line_cost) {
  const auto& p = device_.timing().params();
  if (result.lines_touched == 0) {
    return;
  }
  // A degraded link (fault injection) stretches the write-back drain.
  const double link = fault_latency_multiplier();
  CMPI_OBS_COUNT("cxl.flush_lines", result.lines_touched);
  clock_.advance(p.flush_base +
                 static_cast<simtime::Ns>(result.lines_touched) *
                     per_line_cost * link);
  if (result.lines_written_back > 0) {
    CMPI_OBS_COUNT("cxl.flush_writebacks", result.lines_written_back);
    const simtime::Ns start = clock_.now();
    const simtime::Ns done = device_.timing().reserve_device(
        start, result.lines_written_back * kCacheLineSize,
        /*is_read=*/false, wfq_class_);
    CMPI_OBS_HIST("cxl.dev_write_wait_ns", done - start);
    pending_drain_ =
        std::max(pending_drain_, done + p.line_write_latency * link);
    writes_since_fence_ = true;
  }
}

void Accessor::clflush(std::uint64_t offset, std::size_t size) {
  charge_flush(cache_.clflush(offset, size),
               device_.timing().params().clflush_per_line);
}

void Accessor::clflushopt(std::uint64_t offset, std::size_t size) {
  charge_flush(cache_.clflush(offset, size),
               device_.timing().params().clflushopt_per_line);
}

void Accessor::clwb(std::uint64_t offset, std::size_t size) {
  charge_flush(cache_.clwb(offset, size),
               device_.timing().params().clflushopt_per_line);
}

void Accessor::sfence() {
  clock_.advance(device_.timing().params().fence_cost);
  clock_.observe(pending_drain_);
  writes_since_fence_ = false;
}

void Accessor::lfence() {
  clock_.advance(device_.timing().params().fence_cost);
}

void Accessor::coherent_write(std::uint64_t offset,
                              std::span<const std::byte> src) {
  store(offset, src);
  clflushopt(offset, src.size());
  sfence();
}

void Accessor::coherent_read(std::uint64_t offset, std::span<std::byte> dst) {
  lfence();
  // Invalidate any stale node-cached copy (write-back of locally dirty
  // lines is the defined clflush behaviour; the coherence discipline says
  // reader and writer ranges don't overlap concurrently).
  clflush(offset, dst.size());
  sfence();
  load(offset, dst);
}

void Accessor::charge_nt_write(std::uint64_t offset, std::size_t size) {
  const auto& p = device_.timing().params();
  const simtime::Ns done = device_.timing().reserve_device(
      clock_.now(), size, /*is_read=*/false, wfq_class_);
  pending_drain_ = std::max(pending_drain_, done + p.line_write_latency);
  writes_since_fence_ = true;
  clock_.advance(static_cast<simtime::Ns>(lines_of(offset, size)) *
                 p.cache_hit_latency);
}

void Accessor::nt_store(std::uint64_t offset, std::span<const std::byte> src) {
  fault_access(offset, src.size(), /*is_read=*/false);
  cache_.nt_store(offset, src);
  if (src.size() <= sizeof(std::uint64_t)) {
    clock_.advance(device_.timing().params().nt_store_latency);
  } else {
    charge_nt_write(offset, src.size());
  }
}

void Accessor::discard(std::uint64_t offset, std::size_t size) {
  if (size == 0) {
    return;
  }
  fault_access(offset, size, /*is_read=*/false);
  cache_.discard(offset, size);
  charge_nt_write(offset, size);
}

void Accessor::charge_nt_read(std::size_t size) {
  const auto& p = device_.timing().params();
  if (size <= sizeof(std::uint64_t)) {
    clock_.advance(p.nt_load_latency);
  } else {
    const simtime::Ns done = device_.timing().reserve_device(
        clock_.now(), size, /*is_read=*/true, wfq_class_);
    clock_.observe(done + p.line_fill_latency);
  }
}

void Accessor::nt_load(std::uint64_t offset, std::span<std::byte> dst) {
  fault_access(offset, dst.size(), /*is_read=*/true);
  cache_.nt_load(offset, dst);
  charge_nt_read(dst.size());
}

void Accessor::nt_load_gather(std::span<GatherRange> ranges) {
  std::size_t bytes = 0;
  std::size_t lines = 0;
  for (const GatherRange& range : ranges) {
    bytes += range.dst.size();
    lines += lines_of(range.offset, range.dst.size());
  }
  CMPI_EXPECTS(lines <= kLineFillBuffers);
  const std::optional<std::uint64_t> earlier = exchange_poison({});
  for (GatherRange& range : ranges) {
    fault_access(range.offset, range.dst.size(), /*is_read=*/true);
    if (range.dst.size() == sizeof(std::uint64_t) &&
        is_aligned(range.offset, sizeof(std::uint64_t))) {
      // A flag word's writer stores it lock-free, outside the pool mutex
      // nt_load takes: read it with nt_load_u64's atomic load.
      const std::uint64_t word = cache_.nt_load_u64(range.offset);
      std::memcpy(range.dst.data(), &word, sizeof word);
    } else {
      cache_.nt_load(range.offset, range.dst);
    }
    range.poison = exchange_poison({});
  }
  exchange_poison(earlier);
  charge_nt_read(bytes);
}

std::uint64_t Accessor::nt_load_u64(std::uint64_t offset) {
  fault_access(offset, sizeof(std::uint64_t), /*is_read=*/true);
  clock_.advance(device_.timing().params().nt_load_latency);
  return cache_.nt_load_u64(offset);
}

void Accessor::nt_store_u64(std::uint64_t offset, std::uint64_t value) {
  fault_access(offset, sizeof(std::uint64_t), /*is_read=*/false);
  clock_.advance(device_.timing().params().nt_store_latency);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_flag_store(&cache_, offset, /*fenced=*/!writes_since_fence_);
  }
  cache_.nt_store_u64(offset, value);
}

void Accessor::hint_store_u64(std::uint64_t offset, std::uint64_t value) {
  fault_access(offset, sizeof(std::uint64_t), /*is_read=*/false);
  if (CoherenceChecker* chk = device_.checker()) {
    // A hint word covers no payload, so it needs no fence: report it as
    // fenced so the checker doesn't flag the (by-design) missing sfence.
    chk->on_flag_store(&cache_, offset, /*fenced=*/true);
  }
  clock_.advance(device_.timing().params().cache_hit_latency);
  cache_.nt_store_u64(offset, value);
}

std::uint64_t Accessor::peek_u64(std::uint64_t offset) {
  CMPI_EXPECTS(is_aligned(offset, sizeof(std::uint64_t)));
  fault_poll_read(offset, sizeof(std::uint64_t));
  return cache_.nt_load_u64(offset);
}

std::uint64_t Accessor::poll_word(std::uint64_t offset) {
  domain_check(offset, sizeof(std::uint64_t), /*is_read=*/true);
  return cache_.nt_load_u64(offset);
}

void Accessor::bulk_write(std::uint64_t offset, std::span<const std::byte> src,
                          BulkCharge charge) {
  if (src.empty()) {
    return;
  }
  fault_access(offset, src.size(), /*is_read=*/false);
  if (is_uncachable(offset)) {
    // UC region: no streaming, no write-combining past the MPS (§4.5).
    cache_.nt_store(offset, src);
    clock_.advance(device_.timing().uncached_cost(src.size()));
    return;
  }
  const auto& p = device_.timing().params();
  const StreamGauge::Scope stream(cache_.copy_streams());
  const simtime::Ns start = clock_.now();
  // §3.5 discipline: every bulk write ends with a flush round (the
  // clflushopt sweep's setup cost; the per-line flush work is what limits
  // the flushed streaming rate and is folded into the device reservation).
  // Batched ops share their batch's single sweep, so only the first op of
  // the batch pays the setup.
  const simtime::Ns setup = charge == BulkCharge::kFull ? p.flush_base : 0;
  clock_.advance(setup + device_.timing().cpu_copy_cost(
                             src.size(), cache_.copy_streams().active()));
  const simtime::Ns done =
      device_.timing().reserve_device(start, src.size(), /*is_read=*/false,
                                     wfq_class_);
  CMPI_OBS_COUNT("cxl.bulk_sweeps", charge == BulkCharge::kFull ? 1 : 0);
  CMPI_OBS_COUNT("cxl.bulk_write_bytes", src.size());
  CMPI_OBS_HIST("cxl.dev_write_wait_ns", done - start);
  pending_drain_ = std::max(pending_drain_, done + p.line_write_latency);
  writes_since_fence_ = true;
  cache_.nt_store(offset, src);
}

void Accessor::bulk_read(std::uint64_t offset, std::span<std::byte> dst,
                         BulkCharge charge) {
  if (dst.empty()) {
    return;
  }
  fault_access(offset, dst.size(), /*is_read=*/true);
  if (is_uncachable(offset)) {
    cache_.nt_load(offset, dst);
    clock_.advance(device_.timing().uncached_cost(dst.size()));
    return;
  }
  const auto& p = device_.timing().params();
  const StreamGauge::Scope stream(cache_.copy_streams());
  const simtime::Ns start = clock_.now();
  // §3.5 discipline: invalidate (flush) before the read so no stale lines
  // satisfy it; batched ops share the batch's single invalidate sweep.
  const simtime::Ns setup = charge == BulkCharge::kFull ? p.flush_base : 0;
  clock_.advance(setup + device_.timing().cpu_copy_cost(
                             dst.size(), cache_.copy_streams().active()));
  const simtime::Ns done =
      device_.timing().reserve_device(start, dst.size(), /*is_read=*/true,
                                     wfq_class_);
  CMPI_OBS_COUNT("cxl.bulk_sweeps", charge == BulkCharge::kFull ? 1 : 0);
  CMPI_OBS_COUNT("cxl.bulk_read_bytes", dst.size());
  CMPI_OBS_HIST("cxl.dev_read_wait_ns", done - start);
  clock_.observe(done + p.line_fill_latency);
  cache_.nt_load(offset, dst);
}

void Accessor::annotate_publish_range(std::uint64_t offset,
                                      std::size_t size) {
  if (device_.checker() != nullptr && size > 0) {
    publish_ranges_.emplace_back(offset, size);
  }
}

void Accessor::publish_store(std::uint64_t offset,
                             std::span<const std::byte> src,
                             std::size_t word) {
  CMPI_EXPECTS(is_aligned(offset + word, sizeof(std::uint64_t)));
  CMPI_EXPECTS(word + sizeof(std::uint64_t) <= src.size());
  fault_access(offset, src.size(), /*is_read=*/false);
  if (CoherenceChecker* chk = device_.checker()) {
    chk->on_record_publish(&cache_, offset, publish_ranges_);
  }
  publish_ranges_.clear();
  cache_.nt_store(offset, src.first(word));
  cache_.nt_store(offset + word + sizeof(std::uint64_t),
                  src.subspan(word + sizeof(std::uint64_t)));
  std::uint64_t value = 0;
  std::memcpy(&value, src.data() + word, sizeof value);
  cache_.nt_store_u64(offset + word, value);
  charge_nt_write(offset, src.size());
}

void Accessor::publish_flag(std::uint64_t offset, std::uint64_t value) {
  CMPI_EXPECTS(is_aligned(offset, sizeof(std::uint64_t)));
  fault_access(offset, kFlagBytes, /*is_read=*/false);
  if (CoherenceChecker* chk = device_.checker()) {
    // Check the annotated payload BEFORE the internal sfence: a dirty
    // payload line here means the publish would race its own data.
    chk->on_publish(&cache_, offset, publish_ranges_);
  }
  publish_ranges_.clear();
  sfence();  // release: all prior writes are covered by the stamp
  // Stamp first, value second: a reader that sees the new value (acquire)
  // is guaranteed to see at least this stamp.
  cache_.nt_store_u64(offset + sizeof(std::uint64_t),
                      std::bit_cast<std::uint64_t>(clock_.now()));
  clock_.advance(device_.timing().params().nt_store_latency);
  cache_.nt_store_u64(offset, value);
}

Accessor::FlagValue Accessor::peek_flag(std::uint64_t offset) {
  CMPI_EXPECTS(is_aligned(offset, sizeof(std::uint64_t)));
  // Poll read: poison still surfaces, but polling is not counted toward
  // crash-at-Nth schedules (iteration counts are wall-clock dependent).
  fault_poll_read(offset, kFlagBytes);
  FlagValue out;
  out.value = cache_.nt_load_u64(offset);
  out.stamp = std::bit_cast<simtime::Ns>(
      cache_.nt_load_u64(offset + sizeof(std::uint64_t)));
  return out;
}

void Accessor::absorb_flag(const FlagValue& flag) {
  clock_.advance(device_.timing().params().nt_load_latency);
  clock_.observe(flag.stamp);
}

Status Accessor::take_poison_status(std::string_view context) {
  if (!poison_seen_) {
    return Status::ok();
  }
  poison_seen_ = false;
  return status::data_poisoned(
      std::string(context) + ": read touched poisoned pool offset " +
      std::to_string(poison_offset_));
}

std::optional<std::uint64_t> Accessor::exchange_poison(
    std::optional<std::uint64_t> next) noexcept {
  const std::optional<std::uint64_t> prev =
      poison_seen_ ? std::optional(poison_offset_) : std::nullopt;
  poison_seen_ = next.has_value();
  poison_offset_ = next.value_or(0);
  return prev;
}

}  // namespace cmpi::cxlsim
