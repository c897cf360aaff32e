#include "queue/spsc_ring.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.hpp"
#include "obs/obs.hpp"

namespace cmpi::queue {

void SpscRing::format(cxlsim::Accessor& acc, std::uint64_t base,
                      std::size_t cells, std::size_t cell_payload) {
  CMPI_EXPECTS(is_aligned(base, kCacheLineSize));
  CMPI_EXPECTS(cells >= 2 && cells <= kMaxCells);
  CMPI_EXPECTS(std::has_single_bit(cells));
  CMPI_EXPECTS(cell_payload >= kCacheLineSize &&
               cell_payload <= kMaxCellPayload);
  CMPI_EXPECTS(is_aligned(cell_payload, kCacheLineSize));
  // Every cell starts free: its generation matches no index the consumer
  // polls for before the producer first publishes there. A header on a
  // pool page never written reads as zeros, and generation 0 matches no
  // first-lap index but 0, so on fresh pages only cell 0 needs its stamp:
  // the other cells' pages stay untouched (on the host, unallocated) until
  // traffic reaches them. Anything already there is stamped over.
  const SpscRing ring(base, cells, cell_payload);
  if (acc.device().holds_data(ring.cell_base(1),
                              (cells - 1) * (sizeof(CellHeader) +
                                             cell_payload))) {
    ring.stamp_lap_before(acc, 0);
  } else {
    ring.stamp_free(acc, 0 - cells);
  }
  acc.publish_flag(base + kHeadOffset, 0);
  acc.nt_store_u64(base + kConstOffset, cells);
  acc.nt_store_u64(base + kConstOffset + 8, cell_payload);
}

void SpscRing::stamp_free(cxlsim::Accessor& acc, std::uint64_t index) const {
  CellHeader free_cell{};
  free_cell.generation = static_cast<std::uint32_t>(index);
  acc.nt_store(cell_base(index),
               {reinterpret_cast<const std::byte*>(&free_cell),
                sizeof(CellHeader)});
}

void SpscRing::stamp_lap_before(cxlsim::Accessor& acc,
                                std::uint64_t count) const {
  for (std::uint64_t index = count - cells_; index != count; ++index) {
    stamp_free(acc, index);
  }
}

std::uint64_t SpscRing::published_run_end(cxlsim::Accessor& acc,
                                          std::uint64_t index,
                                          std::uint64_t max) const {
  for (const std::uint64_t end = index + max; index != end; ++index) {
    const std::uint64_t word = acc.poll_word(cell_base(index) + kPublishWord);
    if (static_cast<std::uint32_t>(word >> 32) !=
        static_cast<std::uint32_t>(index)) {
      break;
    }
  }
  return index;
}

Result<SpscRing> SpscRing::attach(cxlsim::Accessor& acc, std::uint64_t base) {
  if (!is_aligned(base, kCacheLineSize)) {
    return status::invalid_argument("ring base is not cacheline-aligned");
  }
  if (base + kCellsOffset > acc.device().size()) {
    return status::invalid_argument("ring base outside the pool");
  }
  const std::uint64_t cells = acc.nt_load_u64(base + kConstOffset);
  const std::uint64_t cell_payload = acc.nt_load_u64(base + kConstOffset + 8);
  if (cells < 2 || cells > kMaxCells ||
      !std::has_single_bit(cells)) {
    return status::invalid_argument(
        "ring constants corrupt: cells=" + std::to_string(cells) +
        " (want a power of two in [2, " + std::to_string(kMaxCells) + "])");
  }
  if (cell_payload < kCacheLineSize || cell_payload > kMaxCellPayload ||
      !is_aligned(cell_payload, kCacheLineSize)) {
    return status::invalid_argument(
        "ring constants corrupt: cell_payload=" + std::to_string(cell_payload) +
        " (want a cacheline multiple in [64, " +
        std::to_string(kMaxCellPayload) + "])");
  }
  if (base + footprint(cells, cell_payload) > acc.device().size()) {
    return status::invalid_argument(
        "ring footprint exceeds the pool: base=" + std::to_string(base) +
        " cells=" + std::to_string(cells) +
        " cell_payload=" + std::to_string(cell_payload));
  }
  SpscRing ring(base, cells, cell_payload);
  // Resume from the published state: a freshly formatted ring has its head
  // at zero and no published cell, a re-attach (respawn / second run
  // epoch) picks up exactly where the last published state left the FIFO.
  // Cells the consumer dequeued past its published head keep their
  // generations until the producer sees that head, so the run of
  // published cells from the published head ends at the producer's last
  // published cell.
  const std::uint64_t head = acc.peek_flag(base + kHeadOffset).value;
  const std::uint64_t tail = ring.published_run_end(acc, head, cells);
  ring.tail_local_ = tail;
  ring.head_local_ = head;
  ring.peer_head_ = head;
  ring.visible_ = tail;
  ring.head_published_ = head;
  return ring;
}

bool SpscRing::can_enqueue(cxlsim::Accessor& acc) {
  if (tail_local_ - peer_head_ < cells_) {
    return true;
  }
  // Polling a head that has not moved is waiting: no charge. The poll
  // raises the head word's poison.
  if (acc.peek_flag(base_ + kHeadOffset).value == peer_head_) {
    return false;
  }
  // The head moved. Both addresses are known before either load issues,
  // so the head word and the reused cell's freed_stamp load in one wave;
  // the head is read first, so a head that shows the cell freed orders
  // the stamp's read after the consumer's store of it.
  std::uint64_t head = 0;
  std::uint64_t freed = 0;
  std::array<cxlsim::Accessor::GatherRange, 2> ranges;
  ranges[0].offset = base_ + kHeadOffset;
  ranges[0].dst = std::as_writable_bytes(std::span(&head, 1));
  ranges[1].offset = cell_base(tail_local_) + offsetof(CellHeader, freed_stamp);
  ranges[1].dst = std::as_writable_bytes(std::span(&freed, 1));
  acc.nt_load_gather(ranges);
  CMPI_OBS_COUNT("ring.full_reloads", 1);
  peer_head_ = head;
  if (tail_local_ - peer_head_ >= cells_) {
    return false;
  }
  // The producer was blocked on this specific cell being freed: absorb the
  // consumer's per-cell release stamp, and the stamp word's poison with it.
  if (!acc.poison_pending()) {
    acc.exchange_poison(ranges[1].poison);
  }
  acc.clock().observe(std::bit_cast<simtime::Ns>(freed));
  return true;
}

bool SpscRing::try_enqueue(cxlsim::Accessor& acc, const CellHeader& header,
                           std::span<const std::byte> payload,
                           cxlsim::Accessor::BulkCharge charge) {
  if (!try_stage(acc, header, payload, /*prehashed=*/false, charge)) {
    return false;
  }
  publish_staged(acc);
  return true;
}

bool SpscRing::try_stage(cxlsim::Accessor& acc, const CellHeader& header,
                         std::span<const std::byte> payload,
                         bool prehashed, cxlsim::Accessor::BulkCharge charge) {
  CMPI_EXPECTS(payload.size() <= cell_payload_);
  CMPI_EXPECTS(header.chunk_bytes == payload.size());
  if (!can_enqueue(acc)) {
    return false;
  }
  const std::uint64_t cell = cell_base(tail_local_);
  // Payload now; header (and its durability stamp) at publish time, after
  // the batch fence, so the stamp covers the payload. The second and later
  // cells of a batch share the first one's flush sweep.
  if (!payload.empty()) {
    acc.bulk_write(cell + sizeof(CellHeader), payload,
                   staged_.empty() ? charge
                                   : cxlsim::Accessor::BulkCharge::kBatched);
  }
  Staged staged;
  staged.header = header;
  staged.header.generation = static_cast<std::uint32_t>(tail_local_);
  if (!prehashed) {
    staged.header.payload_crc = crc32c(payload);
  }
  staged.payload_bytes = static_cast<std::uint32_t>(payload.size());
  staged_.push_back(staged);
  ++tail_local_;
  CMPI_OBS_COUNT("ring.enqueues", 1);
  CMPI_OBS_GAUGE_MAX("ring.occupancy_hwm", tail_local_ - peer_head_);
  if ((header.flags & kRetransmit) != 0) {
    CMPI_OBS_COUNT("ring.retransmit_cells", 1);
  }
  return true;
}

void SpscRing::publish_staged(cxlsim::Accessor& acc) {
  if (staged_.empty()) {
    return;
  }
  // One drain for the whole batch: every header stamp below covers every
  // staged payload. Each header store then publishes its cell; nothing
  // else is stored, and the header writes drain at the next fence.
  acc.sfence();
  std::uint64_t index = tail_local_ - staged_.size();
  for (Staged& staged : staged_) {
    const std::uint64_t cell = cell_base(index);
    staged.header.stamp = std::bit_cast<std::uint64_t>(acc.clock().now());
    // Coherence-checker hint: the header store covers this cell's payload;
    // the consumer reads it after observing the generation.
    acc.annotate_publish_range(cell + sizeof(CellHeader),
                               staged.payload_bytes);
    acc.publish_store(cell,
                      {reinterpret_cast<const std::byte*>(&staged.header),
                       sizeof(CellHeader)},
                      kPublishWord);
    ++index;
  }
  CMPI_OBS_HIST("ring.cells_per_publish",
                static_cast<std::int64_t>(staged_.size()));
  staged_.clear();
}

bool SpscRing::can_dequeue(cxlsim::Accessor& acc) {
  if (visible_ == head_local_) {
    visible_ = published_run_end(acc, head_local_, 1);
  }
  return visible_ != head_local_;
}

std::optional<CellHeader> SpscRing::peek(cxlsim::Accessor& acc) {
  if (!has_peeked()) {
    if (!can_dequeue(acc)) {
      return std::nullopt;
    }
    gather(acc);
  }
  // A gathered cell cannot change until we consume it: re-peeks are
  // time-free.
  return peeked_[peeked_next_].header();
}

CellHeader SpscRing::PeekedCell::header() const noexcept {
  CellHeader out{};
  std::memcpy(&out, lines.data(), sizeof(CellHeader));
  return out;
}

void SpscRing::gather(cxlsim::Accessor& acc) {
  // Every published cell past head_local_ is final until we consume it,
  // and its address is known: the loads are independent, one wave. Each
  // reads the header line and the first payload line (every cell has one:
  // cell_payload >= 64), so a small-message dequeue needs no payload read.
  const std::uint64_t known = visible_ - head_local_;
  if (known < kGatherCells) {
    visible_ = published_run_end(acc, visible_, kGatherCells - known);
  }
  const auto cells = static_cast<std::size_t>(
      std::min<std::uint64_t>(visible_ - head_local_, kGatherCells));
  if (peeked_.capacity() == 0) {
    peeked_.reserve(kGatherCells);
  }
  peeked_.resize(cells);
  peeked_next_ = 0;
  std::array<cxlsim::Accessor::GatherRange, kGatherCells> ranges;
  for (std::size_t i = 0; i < cells; ++i) {
    ranges[i].offset = cell_base(head_local_ + i);
    ranges[i].dst = peeked_[i].lines;
  }
  acc.nt_load_gather(std::span(ranges).first(cells));
  for (std::size_t i = 0; i < cells; ++i) {
    peeked_[i].poison = ranges[i].poison;
  }
  CMPI_OBS_HIST("ring.cells_per_gather", static_cast<std::int64_t>(cells));
}

bool SpscRing::try_dequeue(cxlsim::Accessor& acc, CellHeader& header_out,
                           std::span<std::byte> payload_out,
                           bool absorb_stamp) {
  // The gather already charged this cell's read and fetched its first
  // payload line alongside the header; its poison surfaces now.
  if (!peek(acc).has_value()) {
    return false;
  }
  const PeekedCell& peeked = peeked_[peeked_next_++];
  header_out = peeked.header();
  if (!acc.poison_pending()) {
    acc.exchange_poison(peeked.poison);
  }
  if (absorb_stamp) {
    acc.clock().observe(std::bit_cast<simtime::Ns>(header_out.stamp));
  }
  const std::uint64_t cell = cell_base(head_local_);
  CMPI_ASSERT(header_out.chunk_bytes <= cell_payload_);
  last_intact_ = true;
  if (!payload_out.empty()) {
    CMPI_EXPECTS(payload_out.size() >= header_out.chunk_bytes);
    const auto chunk = payload_out.subspan(0, header_out.chunk_bytes);
    if (header_out.chunk_bytes <= kCacheLineSize) {
      // The whole chunk rode in with the fused read: host-side copy only,
      // no second pool read, no invalidate sweep.
      std::memcpy(chunk.data(), peeked.first_line(), header_out.chunk_bytes);
    } else if (header_out.chunk_bytes <= kWaveChunkBytes) {
      // The rest of the chunk is at most one wave of line fills whose
      // addresses the header gave: one gathered NT read of its whole
      // lines, no invalidate sweep (NT loads bypass the cache), so the
      // batch's sweep stays unpaid for a later long cell.
      std::memcpy(chunk.data(), peeked.first_line(), kCacheLineSize);
      const auto rest = chunk.subspan(kCacheLineSize);
      std::array<std::byte, kWaveChunkBytes - kCacheLineSize> lines{};
      cxlsim::Accessor::GatherRange wave;
      wave.offset = cell + sizeof(CellHeader) + kCacheLineSize;
      wave.dst = std::span(lines).first(align_up(rest.size(), kCacheLineSize));
      acc.nt_load_gather({&wave, 1});
      if (!acc.poison_pending()) {
        acc.exchange_poison(wave.poison);
      }
      std::memcpy(rest.data(), lines.data(), rest.size());
      CMPI_OBS_COUNT("ring.payload_waves", 1);
    } else {
      // In a deferred-head reap batch, the first bulk read pays the
      // batch's single invalidate sweep and later ones share it.
      acc.bulk_read(cell + sizeof(CellHeader), chunk,
                    head_defer_ && read_setup_charged_
                        ? cxlsim::Accessor::BulkCharge::kBatched
                        : cxlsim::Accessor::BulkCharge::kFull);
      read_setup_charged_ = true;
    }
    // End-to-end integrity: the CRC is over what we actually copied out,
    // so corruption anywhere between the producer's staging copy and this
    // read is caught here. Host-side work only — no virtual time charged.
    last_intact_ = crc32c(chunk) == header_out.payload_crc;
  }
  // Release stamp for a producer blocked on this very cell.
  acc.node_cache().nt_store_u64(
      cell + offsetof(CellHeader, freed_stamp),
      std::bit_cast<std::uint64_t>(acc.clock().now()));
  ++head_local_;
  CMPI_OBS_COUNT("ring.dequeues", 1);
  if (head_defer_) {
    // Batched reaping: the caller publishes via flush_head() at the end of
    // the reap batch (and always before concluding the ring is empty).
    return true;
  }
  // The head publish covers no cached payload (the freed stamp above is an
  // NT store), so no annotate_publish_range is needed here.
  acc.publish_flag(base_ + kHeadOffset, head_local_);
  head_published_ = head_local_;
  return true;
}

void SpscRing::flush_head(cxlsim::Accessor& acc) {
  read_setup_charged_ = false;
  if (head_published_ == head_local_) {
    return;
  }
  acc.publish_flag(base_ + kHeadOffset, head_local_);
  head_published_ = head_local_;
}

SpscRing::ScavengeCounts SpscRing::scavenge_producer(cxlsim::Accessor& acc) {
  ScavengeCounts counts;
  std::vector<std::byte> scratch(cell_payload_);
  while (can_dequeue(acc)) {
    const std::uint64_t cell = cell_base(head_local_);
    CellHeader header{};
    if (has_peeked()) {
      // Gathered cells first, in FIFO order; their poison is discarded
      // with them.
      header = peeked_[peeked_next_++].header();
    } else {
      acc.nt_load(cell, {reinterpret_cast<std::byte*>(&header),
                         sizeof(CellHeader)});
    }
    acc.clock().observe(std::bit_cast<simtime::Ns>(header.stamp));
    // Do not trust the header: a torn cell's chunk_bytes could index out
    // of the cell (the generation poll matched it to its slot, nothing
    // more). Clamp the payload walk.
    bool intact = header.chunk_bytes <= cell_payload_;
    if (intact && header.chunk_bytes > 0) {
      const auto chunk = std::span<std::byte>(scratch)
                             .subspan(0, header.chunk_bytes);
      acc.bulk_read(cell + sizeof(CellHeader), chunk);
      intact = crc32c(chunk) == header.payload_crc;
    }
    counts.drained += 1;
    counts.torn += intact ? 0 : 1;
    acc.node_cache().nt_store_u64(
        cell + offsetof(CellHeader, freed_stamp),
        std::bit_cast<std::uint64_t>(acc.clock().now()));
    ++head_local_;
  }
  last_intact_ = true;
  if (counts.drained > 0 || head_published_ != head_local_) {
    acc.publish_flag(base_ + kHeadOffset, head_local_);
    head_published_ = head_local_;
  }
  if (acc.poison_pending()) {
    // Poison encountered while draining a dead producer's cells is part of
    // what scavenge discards — it must not leak into the next receive.
    (void)acc.take_poison_status("ring scavenge");
  }
  return counts;
}

void SpscRing::debug_rebase_counters(cxlsim::Accessor& acc,
                                     std::uint64_t count) {
  stamp_lap_before(acc, count);
  acc.publish_flag(base_ + kHeadOffset, count);
  tail_local_ = count;
  head_local_ = count;
  peer_head_ = count;
  visible_ = count;
  head_published_ = count;
  staged_.clear();
  read_setup_charged_ = false;
  peeked_.clear();
  peeked_next_ = 0;
}

}  // namespace cmpi::queue
