// Single-Producer Single-Consumer message ring in CXL SHM (paper §3.3).
//
// MPICH's shared-memory channel uses MPSC/MPMC receive queues whose
// lock-free implementations need atomic RMW — which the pooled CXL device
// cannot provide across heads. cMPI's answer is a matrix of SPSC rings,
// one per (sender, receiver) pair: with exactly one producer and one
// consumer, the head word and each header's publish fields have a single
// writer, and plain NT stores/loads (plus flushes for payload) suffice.
//
// Ring layout in CXL SHM (every section cacheline-separated so the
// producer-written and consumer-written lines never false-share):
//
//   +0    unused
//   +64   head flag  (consumer publishes: count of cells ever dequeued)
//   +128  u64 capacity, u64 cell_payload  (constants, set at format)
//   +192  cells: capacity * (64-byte header + cell_payload)
//
// Cell header (64 B):
//   u32 src_rank, u32 src_incarnation, u32 tag, u32 payload_crc,
//   u64 total_bytes, u64 chunk_offset, u32 chunk_bytes,
//   u32 flags (bit0: last chunk), u32 msg_seq, u32 generation,
//   u64 stamp, u64 freed_stamp
//
// A cell is published by its header store: `generation` is the low half
// of the free-running enqueue index, so a cell is published exactly when
// the generation it carries is that of the index the consumer expects at
// its slot. Every other value is a free cell's: format gives every cell
// the lap before's generation (on pool pages never written, every cell
// but cell 0 already reads as zeros, which match no first-lap index), so
// no never-written cell or leftover of an earlier ring at the same offset
// validates; and the producer overwrites a cell only after the consumer
// has freed it. The consumer polls the generation of the cell at its
// head; the producer resumes after the run of published cells that
// starts at the head. The other recovery fields: `payload_crc` (CRC32C,
// stamped by the ring at enqueue, verified at dequeue) catches payload
// corruption end to end; `src_incarnation` lets the consumer fence out
// messages published by a dead incarnation of the producer after a
// respawn (see runtime::PoolRecovery).
//
// `stamp` is the producer's virtual time when THIS cell's payload was
// durable in the pool; `freed_stamp` is the consumer's time when it
// finished with the cell. Each side absorbs the *per-cell* stamp of the
// cell it consumes, never the head flag's stamp: the flag only carries
// the newest publish time, and absorbing that would serialize an in-flight
// pipeline into batch-lockstep and halve streaming throughput. The
// consumer absorbs at dequeue, not at peek (see peek()).
//
// A message larger than cell_payload is split into consecutive cells
// (§4.3); the SPSC FIFO guarantees chunks arrive in order and contiguously.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/align.hpp"
#include "common/status.hpp"
#include "cxlsim/accessor.hpp"

namespace cmpi::queue {

/// On-pool cell header.
struct CellHeader {
  std::uint32_t src_rank;
  std::uint32_t src_incarnation;  ///< producer's incarnation at enqueue
  std::uint32_t tag;
  std::uint32_t payload_crc;   ///< CRC32C of the chunk payload (ring-stamped)
  std::uint64_t total_bytes;   ///< size of the whole message
  std::uint64_t chunk_offset;  ///< offset of this chunk within the message
  std::uint32_t chunk_bytes;   ///< payload bytes in this cell
  std::uint32_t flags;         ///< kLastChunk | kSyncSend | kRetransmit
  std::uint32_t msg_seq;       ///< per-(src,dst) message sequence number
  std::uint32_t generation;   ///< low half of the enqueue index (ring-stamped)
  std::uint64_t stamp;        ///< producer vtime bits (set by the ring)
  std::uint64_t freed_stamp;  ///< consumer vtime bits when the cell freed
};
static_assert(sizeof(CellHeader) == kCacheLineSize);

inline constexpr std::uint32_t kLastChunk = 1;
/// The message is a synchronous send: the receiver acknowledges the match
/// (MPI_Ssend semantics, implemented in the p2p layer).
inline constexpr std::uint32_t kSyncSend = 2;
/// The message is a retransmission of an earlier sequence number (the
/// receiver NAKed a corrupt payload; see p2p::Endpoint).
inline constexpr std::uint32_t kRetransmit = 4;
/// The cell is a large message's envelope, with no payload: the message
/// body follows in the sender's bulk ring toward this receiver, a second
/// ring found by name (see p2p::Endpoint). `total_bytes` carries the real
/// message size for matching and probing.
inline constexpr std::uint32_t kRendezvous = 8;

class SpscRing {
 public:
  /// Bytes one ring occupies.
  static constexpr std::size_t footprint(std::size_t cells,
                                         std::size_t cell_payload) noexcept {
    return kCellsOffset + cells * (sizeof(CellHeader) + cell_payload);
  }

  /// Geometry limits. `cells` must be a power of two: the ring indices are
  /// free-running u64 counters and `index % cells` stays contiguous across
  /// the 2^64 wraparound only when cells divides 2^64.
  static constexpr std::size_t kMaxCells = std::size_t{1} << 20;
  static constexpr std::size_t kMaxCellPayload = std::size_t{1} << 30;

  /// One-time initialization (bootstrap rank).
  static void format(cxlsim::Accessor& acc, std::uint64_t base,
                     std::size_t cells, std::size_t cell_payload);

  /// Attach a view (producer or consumer side). Validates the on-pool
  /// geometry constants (range, alignment, device bounds) and fails with a
  /// Status for a corrupted or mis-formatted ring — cell_base arithmetic
  /// on garbage constants would index out of bounds. The view's local
  /// counters are restored from the published head and the run of
  /// published cells after it (an untimed scan of their generations), so
  /// a re-attach (respawned rank, second Universe::run epoch) resumes
  /// exactly at the published state: cells a crashed producer staged but
  /// never published are simply lost, as a real crash would lose them.
  /// A nonzero `piece` caps the bytes of one bulk copy: a longer cell
  /// payload is written and read in pieces that share one flush sweep
  /// (see try_stage and try_dequeue). 0 copies a payload whole.
  static Result<SpscRing> attach(cxlsim::Accessor& acc, std::uint64_t base,
                                 std::size_t piece = 0);

  [[nodiscard]] std::size_t capacity() const noexcept { return cells_; }
  [[nodiscard]] std::size_t cell_payload() const noexcept {
    return cell_payload_;
  }

  // ---- Producer side ----
  /// True if a cell is free. Once per lap the cached head shows the ring
  /// full; the head is then polled time-free, and only a moved head is
  /// reloaded: the head word and the reused cell's freed_stamp in one
  /// gathered wave (Accessor::nt_load_gather), after which that cell's
  /// freed_stamp, never the head flag's stamp, is absorbed.
  [[nodiscard]] bool can_enqueue(cxlsim::Accessor& acc);

  /// Enqueue one chunk. Returns false (and does nothing) if the ring is
  /// full. `payload.size()` must be <= cell_payload. Publishes any
  /// previously staged cells along with this one (FIFO order preserved).
  bool try_enqueue(cxlsim::Accessor& acc, const CellHeader& header,
                   std::span<const std::byte> payload);

  // ---- Producer side: staged batches ----
  // The message-rate path amortizes the per-cell publish cost: stage K
  // cells (payload copies only), then publish_staged() makes them visible
  // under ONE fence, each through its own header store. Headers are
  // written at publish time so every cell's stamp still covers its
  // durable payload. Staged-but-unpublished cells are lost on a crash,
  // exactly like a real producer dying between memcpy and store-release.

  /// Stage one chunk without publishing it. Same contract as try_enqueue
  /// (false when the ring is full), but the consumer cannot see the cell
  /// until publish_staged(). With `prehashed`, `header.payload_crc` is
  /// trusted as supplied instead of computing CRC32C over `payload` here:
  /// the p2p eager path computes the checksum while building its staging
  /// copy (one fused pass over the payload), so the ring does not traverse
  /// the bytes a second time. A batch's first payload write pays the
  /// flush sweep; later cells of the batch share it.
  bool try_stage(cxlsim::Accessor& acc, const CellHeader& header,
                 std::span<const std::byte> payload, bool prehashed = false);
  /// Cells staged but not yet published.
  [[nodiscard]] std::size_t staged_pending() const noexcept {
    return staged_.size();
  }
  /// Publish all staged cells: one fence, then per-cell header stores,
  /// each of which publishes its cell (no second fence: the header writes
  /// drain at the producer's next fence). Nothing staged: no-op.
  void publish_staged(cxlsim::Accessor& acc);

  // ---- Consumer side ----
  /// True if a cell is available to dequeue. Polls the generation of the
  /// cell at the head without charging time: a failed poll is waiting,
  /// not work, and a successful one is paid for by the gathered read that
  /// fetches the cell (peek()).
  [[nodiscard]] bool can_dequeue(cxlsim::Accessor& acc);

  /// Peek the header of the next cell without consuming it. Returns
  /// nullopt when empty. The cell's stamp is not absorbed here: looking at
  /// a cell is not consuming it, and a consumer that peeks ahead (or at a
  /// cell it will park as unexpected) must not jump to a time no receive
  /// has asked for yet. try_dequeue absorbs it.
  ///
  /// Reads are fused and gathered. When the next cell has not been read
  /// yet, the peek polls (untimed) how many cells from the head on are
  /// published, up to kGatherCells, and reads them all in one wave
  /// (Accessor::nt_load_gather): for each, the header line and the first
  /// payload line. Their addresses are known and the loads independent,
  /// so the wave costs one line-fill latency however many cells it covers
  /// (a wave is cxlsim::kLineFillBuffers line fills at most, which makes
  /// kGatherCells = 8; one visible cell is a wave of one). That wave is the
  /// only read a receive pays before its payload copy. Later peeks charge
  /// no read, so iprobe/probe polling loops advance virtual time by zero,
  /// and a dequeue whose chunk fits the prefetched line charges none
  /// either (see try_dequeue for longer chunks). This is the dominant
  /// per-message receiver cost at small sizes.
  ///
  /// Media poison a gathered read touches belongs to its own cell, not to
  /// whatever the caller reads next: it is parked with the cell and
  /// re-raised when that cell is dequeued, so a consumer that reads ahead
  /// (the rest of a wave, or one cell past a reap batch) never charges it
  /// to another message. The generation polls raise none: the gather
  /// re-reads every header they found published and parks its poison.
  std::optional<CellHeader> peek(cxlsim::Accessor& acc);

  /// Dequeue the next cell into `payload_out` (must be >= chunk_bytes of
  /// the peeked header; pass empty to discard). Returns false when empty.
  /// Reads the cell through peek() if no peek has read it yet; its CRC
  /// and poison are checked per cell.
  /// The payload read depends on the chunk's length. A chunk that fits the
  /// line the gather fetched is copied host-side. Up to kWaveChunkBytes,
  /// the rest of the chunk is one gathered wave of its lines: one device
  /// read reservation plus one line fill, no invalidate sweep, and its
  /// poison raised on the accessor. A longer chunk is one bulk_read per
  /// piece (see attach); the first pays the sweep's setup unless an
  /// earlier bulk read of the same deferred-head reap batch paid it.
  /// The cell's stamp is absorbed before the payload read unless
  /// `absorb_stamp` is false: then the caller keeps `header_out.stamp`,
  /// plus the time this call took, and absorbs it when it consumes what
  /// the cell carries (the p2p layer does so for cells that park as
  /// unexpected messages).
  bool try_dequeue(cxlsim::Accessor& acc, CellHeader& header_out,
                   std::span<std::byte> payload_out, bool absorb_stamp = true);

  // ---- Consumer side: batched reaping ----
  /// When deferred, try_dequeue skips the per-cell head publish (and
  /// amortizes the invalidate sweep across the batch); the consumer must
  /// call flush_head() at the end of each reap batch, or a producer
  /// waiting on a full ring never sees the cells freed.
  void defer_head_publish(bool on) noexcept { head_defer_ = on; }
  /// Publish the head if any dequeues are pending publication.
  void flush_head(cxlsim::Accessor& acc);

  /// True when the payload copied out by the last try_dequeue matched the
  /// header's CRC32C (the generation poll already matched the cell to its
  /// slot). A false reading means the payload was torn or corrupted in the
  /// pool; the p2p layer turns this into a NAK + retransmission.
  [[nodiscard]] bool last_dequeue_intact() const noexcept {
    return last_intact_;
  }

  /// Free-running enqueue index of the producer view (the generation the
  /// next enqueued cell will carry).
  [[nodiscard]] std::uint64_t tail_index() const noexcept {
    return tail_local_;
  }
  /// Free-running dequeue index of the consumer view.
  [[nodiscard]] std::uint64_t head_index() const noexcept {
    return head_local_;
  }

  /// Consumer-side tally from scavenge_producer().
  struct ScavengeCounts {
    std::uint64_t drained = 0;  ///< published cells consumed and discarded
    std::uint64_t torn = 0;     ///< cells failing the bounds/CRC scan
  };

  /// Survivor-side fsck of a dead producer's ring: consume every published
  /// cell (the run of matching generations from the head), validating
  /// bounds + CRC without trusting the header (a torn header cannot index
  /// out of bounds here), and publish the advanced head so the ring is
  /// empty and reusable by the producer's next incarnation. The consumer
  /// view stays coherent for subsequent traffic.
  ScavengeCounts scavenge_producer(cxlsim::Accessor& acc);

  /// Test hook: re-base the head flag, every cell's generation (to the lap
  /// before `count`) and this view's local counters, as if `count` cells
  /// had already flowed through the ring. Call on an idle ring, on every
  /// attached view, with the same value (used to exercise the 2^64 index
  /// wraparound).
  void debug_rebase_counters(cxlsim::Accessor& acc, std::uint64_t count);

  // On-pool layout (public: recovery tooling and fault-injection tests
  // compute cell addresses from these).
  static constexpr std::uint64_t kHeadOffset = kCacheLineSize;
  static constexpr std::uint64_t kConstOffset = 2 * kCacheLineSize;
  static constexpr std::uint64_t kCellsOffset = 3 * kCacheLineSize;

  /// Cells one gathered peek reads: each takes two line fills (header and
  /// first payload line), and a wave is cxlsim::kLineFillBuffers fills.
  static constexpr std::size_t kGatherCells = cxlsim::kLineFillBuffers / 2;
  /// Longest chunk try_dequeue reads without a bulk read: the payload line
  /// the gather fetched plus one wave of line fills for the rest (1,088 B).
  static constexpr std::size_t kWaveChunkBytes =
      (1 + cxlsim::kLineFillBuffers) * kCacheLineSize;

 private:
  SpscRing(std::uint64_t base, std::size_t cells, std::size_t cell_payload)
      : base_(base), cells_(cells), cell_payload_(cell_payload) {}

  /// A staged-but-unpublished cell: the payload is already in the pool,
  /// the header (with its durability stamp) is written at publish time,
  /// and that store publishes the cell.
  struct Staged {
    CellHeader header;
    std::uint32_t payload_bytes;
  };

  [[nodiscard]] std::uint64_t cell_base(std::uint64_t index) const noexcept {
    return base_ + kCellsOffset +
           (index % cells_) * (sizeof(CellHeader) + cell_payload_);
  }
  /// The header's publish word, stored last and atomically by
  /// publish_staged and polled lock-free by the consumer: msg_seq in its
  /// low half, the generation in its high half.
  static constexpr std::size_t kPublishWord = offsetof(CellHeader, msg_seq);
  static_assert(kPublishWord % sizeof(std::uint64_t) == 0);
  static_assert(offsetof(CellHeader, generation) == kPublishWord + 4 &&
                std::endian::native == std::endian::little);

  /// One past the run of published cells that starts at `index`, looking
  /// at `max` cells at most: a cell is published when its generation is
  /// that of the index it is polled for (untimed poll_word reads).
  [[nodiscard]] std::uint64_t published_run_end(cxlsim::Accessor& acc,
                                                std::uint64_t index,
                                                std::uint64_t max) const;
  /// Store into the cell of `index` a free header carrying that index's
  /// generation: no consumer poll matches it until the producer publishes
  /// there one lap later.
  void stamp_free(cxlsim::Accessor& acc, std::uint64_t index) const;
  /// stamp_free every cell for the lap before `count`.
  void stamp_lap_before(cxlsim::Accessor& acc, std::uint64_t count) const;

  std::uint64_t base_;
  std::size_t cells_;
  std::size_t cell_payload_;
  /// Longest single bulk copy of a payload (see attach).
  std::size_t piece_ = 0;
  // Producer- and consumer-local cached counters. Each side only trusts its
  // own counter plus what the peer published.
  std::uint64_t tail_local_ = 0;  // producer: cells enqueued
  std::uint64_t head_local_ = 0;  // consumer: cells dequeued
  std::uint64_t peer_head_ = 0;   // producer's last view of head
  std::uint64_t visible_ = 0;     // consumer: end of the polled published run
  /// A published, unconsumed cell as peek()'s gather read it.
  struct PeekedCell {
    /// The header line and the first payload line.
    std::array<std::byte, sizeof(CellHeader) + kCacheLineSize> lines;
    /// Poisoned pool offset the read touched, re-raised on the accessor at
    /// this cell's dequeue.
    std::optional<std::uint64_t> poison;
    [[nodiscard]] CellHeader header() const noexcept;
    [[nodiscard]] const std::byte* first_line() const noexcept {
      return lines.data() + sizeof(CellHeader);
    }
  };
  /// Consumer-side: the cells of the last gather; peeked_[peeked_next_] is
  /// the cell at head_local_ while peeked_next_ < peeked_.size(). Reserved
  /// for kGatherCells at the first gather, so a view allocates it once and
  /// a ring view that never consumes carries no storage.
  std::vector<PeekedCell> peeked_;
  std::size_t peeked_next_ = 0;
  [[nodiscard]] bool has_peeked() const noexcept {
    return peeked_next_ < peeked_.size();
  }
  /// Poll how many cells from head_local_ on are published, up to
  /// kGatherCells, and read them into peeked_ (one gathered wave). Call
  /// with none peeked and at least one visible.
  void gather(cxlsim::Accessor& acc);
  /// Consumer-side: generation/CRC verdict of the last dequeued cell.
  bool last_intact_ = true;
  /// Producer-side: cells staged ahead of the last published cell.
  std::vector<Staged> staged_;
  /// Consumer-side: value the head flag currently holds in the pool.
  std::uint64_t head_published_ = 0;
  /// Consumer-side: head publishes are batched (see defer_head_publish).
  bool head_defer_ = false;
  /// Consumer-side: the current reap batch has already paid the invalidate
  /// sweep's setup cost (reset by flush_head).
  bool read_setup_charged_ = false;
};

}  // namespace cmpi::queue
