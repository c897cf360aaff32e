// Two-sided MPI communication over CXL SHM (paper §3.3).
//
// An Endpoint is one rank's view of the pairwise SPSC ring matrix plus the
// MPI-level machinery MPICH layers on top of its shared-memory channel:
//
//   * tag matching with MPI_ANY_SOURCE / MPI_ANY_TAG wildcards,
//   * posted-receive queue and unexpected-message queue,
//   * blocking send/recv and nonblocking isend/irecv + test/wait,
//   * a progress engine that drains incoming rings (into posted buffers
//     when matched, into unexpected buffers otherwise) and pushes pending
//     outbound chunks when rings have space,
//   * chunking: a message larger than one cell's payload travels as
//     consecutive cells (§4.3) — FIFO per ring keeps chunks contiguous.
//
// MPI semantics notes: a send completes when its buffer has been fully
// copied into cells (local completion, like MPICH eager); message order is
// preserved per (sender, receiver, tag-match) pair; receive buffers must
// stay valid until wait/test reports completion.
//
// End-to-end payload integrity (recovery layer): every chunk carries a
// CRC32C and a per-pair sequence number. A receiver that observes a
// corrupt payload (CRC mismatch or a poisoned-line read) does not complete
// the receive — it sends a NAK control message carrying the sequence
// number, and the sender retransmits the message from a bounded staging
// copy it kept after local completion (kRetransmit flag, same sequence
// number, same tag). Retries are bounded (kMaxRetransmits); when the
// sender's staging copy has been evicted it answers with a REJECT and the
// receive surfaces kDataPoisoned. The protocol is NAK-only — no positive
// acknowledgements — so a clean run pays nothing on the wire.
// Retransmission may reorder a message relative to other same-tag traffic
// from the same sender (as with any NAK protocol without resequencing).
//
// Incarnation fencing: chunks also carry the sender's incarnation number.
// A message published by a previous incarnation of a since-respawned rank
// is consumed and discarded whole at the match path (never delivered, never
// acked) — late writes of the dead incarnation cannot leak into the new
// epoch's traffic.
//
// Message-rate engine (doorbell-aggregated progress): the progress loop
// does not scan every peer ring. Each sender bumps its slot in the
// receiver's pool-resident AggDoorbell row on the ring's empty→non-empty
// edge (detected at publish from the consumer's published head);
// the receiver polls its one cacheline-packed row with time-free peeks
// and visits only peers whose slot moved, reaping up to kReapBatchCells
// cells per visit with ONE head publish and one invalidate-sweep setup
// per batch, each small cell read with one fused header+payload-line
// load. Senders batch cell publication the same way (one fence per
// staged batch, then each cell's header store publishes it), and a burst
// of nonblocking sends parks
// its final partial batch across calls — flushed at every
// progress/test/wait entry and in the destructor — so an isend storm
// coalesces into few publishes. This is the only data path: fault-
// injected runs publish and read exactly as production runs do, so a
// crash mid-batch loses the unpublished cells as a real one would.
// Matching walks two ordered queues, posted receives in post order and
// unexpected messages in arrival order (see tag_match.hpp). A rotating
// scan start plus the per-visit reap bound round-robins saturating
// senders fairly. A periodic full scan (every kFullScanInterval calls)
// plus the flush-head-before-concluding-empty discipline bound the
// staleness of the unfenced doorbell hint.
//
// Large-message fast path (one-copy rendezvous): a message larger than
// rendezvous_threshold() (UniverseConfig::rendezvous_threshold, default
// one cell payload) skips cell chunking entirely. The sender parks the
// payload in a per-message arena slab and announces it through the ring
// with small RTS descriptor cells (kRendezvous flag), one per segment of
// at most kRendezvousSegmentBytes, so the receiver pulls segment k while
// the sender writes k+1. The receiver reads each segment straight from
// the pool into the user buffer — one copy end to end instead of the
// eager path's copy-in/copy-out — and FINishes the message with a control
// cell so the sender can recycle the slab (a small per-destination slot
// cache amortizes arena allocation). Integrity is per-segment CRC32C with
// bounded re-reads in place of NAK retransmissions (the slab IS the
// staging copy); a dead sender's slabs are reclaimed by pool scavenge
// (arena::kRendezvousNamePrefix), a dead receiver's un-FINished slots by
// scavenge_peer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "arena/arena.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "p2p/tag_match.hpp"
#include "queue/queue_matrix.hpp"
#include "runtime/universe.hpp"

namespace cmpi::p2p {

/// Completion information of a receive (MPI_Status equivalent).
struct RecvInfo {
  int source = -1;
  int tag = -1;
  std::size_t bytes = 0;
};

/// Per-endpoint communication statistics (user traffic; internal
/// synchronous-send acks are excluded). Times are virtual nanoseconds.
///
/// Fields are atomics so teardown paths (Universe summary, metrics
/// snapshots, monitoring threads) can read them while the owning rank is
/// still progressing. The copy operations take a relaxed field-by-field
/// snapshot, so `CommStats s = ep.stats();` keeps working.
struct CommStats {
  std::atomic<std::uint64_t> messages_sent{0};
  std::atomic<std::uint64_t> messages_received{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  /// Messages that arrived before a matching receive was posted.
  std::atomic<std::uint64_t> unexpected_messages{0};
  /// Messages sent through the large-message rendezvous path.
  std::atomic<std::uint64_t> rendezvous_sent{0};
  /// Payload bytes of those rendezvous messages (bytes_sent minus this is
  /// the eager-path byte volume).
  std::atomic<std::uint64_t> rendezvous_bytes{0};
  /// User messages staged through the eager (cell-chunked) path, and
  /// their payload bytes. eager + rendezvous covers every user send, so
  /// the per-path split is visible without subtraction.
  std::atomic<std::uint64_t> eager_messages{0};
  std::atomic<std::uint64_t> eager_bytes{0};
  /// Rendezvous-eligible messages delivered eagerly instead (arena slot
  /// unavailable, or the arena lock deadline expired behind a corpse).
  std::atomic<std::uint64_t> rendezvous_fallbacks{0};
  /// Producer-side publish flushes (each one fence covering a whole
  /// staged batch, then its cells' header stores; per-cell publishes
  /// count as batches of one).
  std::atomic<std::uint64_t> publish_batches{0};
  /// Cells covered by those flushes. cells_published / publish_batches is
  /// the producer batching rate — 1.0 means batching never engaged.
  std::atomic<std::uint64_t> cells_published{0};
  /// Aggregated-doorbell slots this rank rang (cell publishes that hit the
  /// ring's empty→non-empty edge, so the receiver had to be woken).
  std::atomic<std::uint64_t> doorbell_rings{0};
  /// Cell publishes into an already non-empty ring: no doorbell needed.
  /// suppressed / (rings + suppressed) is the doorbell coalesce rate.
  std::atomic<std::uint64_t> doorbell_suppressed{0};
  /// Virtual time spent inside wait()/wait_all().
  std::atomic<double> wait_ns{0};

  CommStats() = default;
  CommStats(const CommStats& other) { *this = other; }
  CommStats& operator=(const CommStats& other) {
    messages_sent = other.messages_sent.load(std::memory_order_relaxed);
    messages_received =
        other.messages_received.load(std::memory_order_relaxed);
    bytes_sent = other.bytes_sent.load(std::memory_order_relaxed);
    bytes_received = other.bytes_received.load(std::memory_order_relaxed);
    unexpected_messages =
        other.unexpected_messages.load(std::memory_order_relaxed);
    rendezvous_sent = other.rendezvous_sent.load(std::memory_order_relaxed);
    rendezvous_bytes = other.rendezvous_bytes.load(std::memory_order_relaxed);
    eager_messages = other.eager_messages.load(std::memory_order_relaxed);
    eager_bytes = other.eager_bytes.load(std::memory_order_relaxed);
    rendezvous_fallbacks =
        other.rendezvous_fallbacks.load(std::memory_order_relaxed);
    publish_batches = other.publish_batches.load(std::memory_order_relaxed);
    cells_published = other.cells_published.load(std::memory_order_relaxed);
    doorbell_rings = other.doorbell_rings.load(std::memory_order_relaxed);
    doorbell_suppressed =
        other.doorbell_suppressed.load(std::memory_order_relaxed);
    wait_ns = other.wait_ns.load(std::memory_order_relaxed);
    return *this;
  }
};

/// Nonblocking operation handle. Created by isend/irecv; completed by the
/// progress engine; interrogated with test/wait.
class Request {
 public:
  [[nodiscard]] bool complete() const noexcept { return complete_; }
  [[nodiscard]] const Status& result() const noexcept { return result_; }
  [[nodiscard]] const RecvInfo& info() const noexcept { return info_; }

 private:
  friend class Endpoint;
  enum class Kind { kSend, kRecv };

  Kind kind = Kind::kSend;
  // send fields
  int peer = kAnySource;  // send: dst; recv: src filter
  int tag = kAnyTag;
  std::span<const std::byte> send_data{};
  std::size_t bytes_pushed = 0;
  bool staged = false;               // all chunks enqueued into cells
  bool synchronous = false;          // Ssend: wait for the receiver's ack
  std::shared_ptr<Request> ack;      // internal ack receive (Ssend only)
  std::uint32_t seq = 0;             // per-(src,dst) message sequence
  std::uint32_t force_flags = 0;     // extra CellHeader flags (retransmit)
  std::vector<std::byte> owned;      // payload owned by the request itself
                                     // (control messages, retransmissions,
                                     // eager staging copies)
  /// Per-cell CRC32Cs computed while building `owned` (one fused
  /// copy+checksum pass); the ring stages prehashed from these.
  std::vector<std::uint32_t> chunk_crcs;
  // rendezvous send fields (large-message one-copy path)
  bool rendezvous = false;           // path decided at isend/issend time
  std::optional<arena::ObjectHandle> rdvz_slot;  // slab while announcing
  std::size_t rdvz_written = 0;      // slab bytes already written
  std::uint32_t rdvz_seg_crc = 0;    // CRC of the written-but-unannounced seg
  // recv fields
  std::span<std::byte> recv_buffer{};
  bool matched = false;
  // common
  bool complete_ = false;
  Status result_;
  RecvInfo info_;
};

using RequestPtr = std::shared_ptr<Request>;

class Endpoint {
 public:
  /// Retransmissions of one message before the receiver gives up and
  /// surfaces kDataPoisoned.
  static constexpr int kMaxRetransmits = 3;
  /// Completed sends (per destination) whose payloads stay staged for
  /// possible retransmission; older copies are evicted.
  static constexpr std::size_t kRetransmitStagingDepth = 8;
  /// Byte budget of the per-destination retransmit staging. A long
  /// one-way stream of large eager messages must not grow host memory
  /// without bound, so the depth bound above is joined by this byte
  /// bound; the newest copy always stays staged.
  static constexpr std::size_t kRetransmitStagingBytes = std::size_t{1} << 20;
  /// One rendezvous RTS descriptor is published per this many payload
  /// bytes, so the receiver pulls segment k while the sender writes k+1
  /// (a single end-of-message announcement would serialize the two sides
  /// and lose to eager pipelining at low rank counts).
  static constexpr std::size_t kRendezvousSegmentBytes = std::size_t{128}
                                                        << 10;
  /// Rendezvous slots staged toward one destination whose FIN is still
  /// outstanding; further large sends to that destination wait (bounds
  /// pool consumption under a one-way stream).
  static constexpr std::size_t kMaxRendezvousInflight = 8;
  /// FINished slots kept per destination for reuse (skips the arena
  /// create/destroy round-trip on the next large message). Sized to the
  /// inflight cap: an OSU-style window of concurrent sends returns that
  /// many slots at once, and a smaller cache would destroy and re-create
  /// the excess every iteration (measured 3.6x bandwidth loss at 128 KiB
  /// with a depth-2 cache under an 8-message window).
  static constexpr std::size_t kRendezvousSlotCacheDepth =
      kMaxRendezvousInflight;
  /// Cells reaped from one peer ring per doorbell visit before the
  /// progress loop moves on (fairness bound) — and therefore the span of
  /// one deferred head publish / one amortized invalidate-sweep setup.
  static constexpr std::size_t kReapBatchCells = 16;
  /// Producer-side batch bounds: staged cells are published when either
  /// the cell count or the staged payload bytes reach these. A final
  /// partial batch is left parked across nonblocking sends, so a burst of
  /// isends coalesces under one fence; it is flushed at every engine
  /// entry (progress/test/wait) and in the destructor, and any blocked or
  /// ring-full exit publishes eagerly. The byte bound keeps
  /// large-cell streams pipelining per cell instead of collapsing into
  /// batch-lockstep.
  static constexpr std::size_t kPublishBatchCells = 16;
  static constexpr std::size_t kPublishBatchBytes = std::size_t{16} << 10;
  /// Every this-many progress() calls the engine drains ALL peer rings
  /// regardless of doorbell state: belt-and-braces bound on the staleness
  /// of the unfenced doorbell hint word.
  static constexpr std::uint64_t kFullScanInterval = 64;

  /// Collective construction: every rank of the universe calls this during
  /// initialization. Rank 0 creates and formats the ring matrix in the
  /// arena (or re-opens it if a previous epoch of this pool already built
  /// it — a respawned universe run attaches to the surviving rings);
  /// everyone else opens it; the §3.4 barrier closes the epoch.
  static Endpoint create(runtime::RankCtx& ctx);

  /// Flushes library-generated control traffic (ssend acks, NAKs,
  /// retransmissions) still queued behind a full ring — the peer's
  /// blocking call is waiting on exactly that traffic, so dropping it
  /// here would wedge the peer forever. Bounded; skipped entirely on a
  /// crashed rank's unwind (a corpse must not touch the pool).
  ~Endpoint();
  Endpoint(Endpoint&&) = default;
  Endpoint& operator=(Endpoint&&) = delete;
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // --- Blocking operations ---
  /// MPI_Send: blocks until the message is fully staged into cells.
  Status send(int dst, int tag, std::span<const std::byte> data);
  /// MPI_Recv: blocks until a matching message has fully arrived.
  Result<RecvInfo> recv(int src, int tag, std::span<std::byte> buffer);

  /// MPI_Ssend: blocks until the receiver has matched the message (not
  /// just until the data is staged into cells).
  Status ssend(int dst, int tag, std::span<const std::byte> data);

  // --- Nonblocking operations ---
  RequestPtr isend(int dst, int tag, std::span<const std::byte> data);
  /// MPI_Issend: completes only after the receiver matched the message.
  RequestPtr issend(int dst, int tag, std::span<const std::byte> data);
  RequestPtr irecv(int src, int tag, std::span<std::byte> buffer);

  /// MPI_Test: advance progress; true if the request finished.
  bool test(const RequestPtr& request);
  /// MPI_Wait: block until the request finishes; returns its status.
  Status wait(const RequestPtr& request);
  /// MPI_Waitall.
  Status wait_all(std::span<const RequestPtr> requests);

  // --- Deadline- and failure-aware blocking (liveness layer) ---
  //
  // The plain blocking calls above trust every peer to stay alive; these
  // variants beat this rank's heartbeat while waiting, watch the peer's
  // lease, and never outlive their deadline. On failure the request is
  // cancelled as cleanly as the wire allows (see each case below) and the
  // verdict is recorded as the request's result:
  //   * kPeerFailed — the specific peer the request depends on is dead
  //     (never returned for a kAnySource receive: no single peer to blame),
  //   * kTimedOut — deadline expired with every watched peer still alive.
  // One cancellation is NOT clean: a send whose chunks are partially
  // staged into the ring cannot be withdrawn without corrupting the FIFO
  // for the (live) consumer; wait_for then returns kTimedOut but leaves
  // the request pending (wait on it again, or let the universe tear down).
  Status wait_for(const RequestPtr& request, std::chrono::milliseconds timeout);
  /// Deadline recv: a timed-out posted receive is withdrawn (the caller's
  /// buffer is released; chunks of a half-arrived match are discarded).
  Result<RecvInfo> recv_for(int src, int tag, std::span<std::byte> buffer,
                            std::chrono::milliseconds timeout);
  /// Deadline send (completes on full staging, like send).
  Status send_for(int dst, int tag, std::span<const std::byte> data,
                  std::chrono::milliseconds timeout);
  /// Deadline ssend: kPeerFailed when the receiver dies before matching.
  Status ssend_for(int dst, int tag, std::span<const std::byte> data,
                   std::chrono::milliseconds timeout);

  /// MPI_Iprobe: is a matching message available (fully or partially
  /// arrived)? Does not consume it.
  std::optional<RecvInfo> iprobe(int src, int tag);

  /// MPI_Probe: block until a matching message is available; returns its
  /// envelope without consuming it.
  RecvInfo probe(int src, int tag);

  /// MPI_Sendrecv: simultaneous exchange without deadlock.
  Status sendrecv(int dst, int send_tag, std::span<const std::byte> out,
                  int src, int recv_tag, std::span<std::byte> in,
                  RecvInfo* info = nullptr);

  /// Pump the progress engine once (drain rings, push pending sends).
  void progress();

  /// Cumulative communication statistics for this rank. Safe to read from
  /// other threads while this rank progresses (atomic fields).
  [[nodiscard]] const CommStats& stats() const noexcept { return *stats_; }

  /// Sizes of the internal bookkeeping containers. Test hook: soak tests
  /// assert these stay bounded over many messages (completed requests must
  /// not accumulate in the endpoint).
  struct DebugQueueSizes {
    std::size_t posted_recvs = 0;
    std::size_t unexpected = 0;
    std::size_t matched_keepalive = 0;
    std::size_t pending_ssends = 0;
    std::size_t send_queued = 0;  // across all destinations
    std::size_t staged_bytes = 0;  // retransmit staging, all destinations
    std::size_t rendezvous_inflight = 0;  // slots awaiting FIN, all dsts
    std::size_t rendezvous_cached = 0;    // recycled slots held, all dsts
  };
  [[nodiscard]] DebugQueueSizes debug_queue_sizes() const noexcept;

  /// Sender-side in-flight rendezvous slots toward `dst` (fully announced,
  /// FIN not yet received). Lets fault-injection tests aim poison at the
  /// slab bytes a deferred (unexpected-message) pull will read.
  struct DebugRdvzSlot {
    std::uint32_t seq = 0;
    std::uint64_t pool_offset = 0;
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] std::vector<DebugRdvzSlot> debug_rendezvous_inflight(
      int dst) const;
  /// The eager/rendezvous switchover that a configured
  /// UniverseConfig::rendezvous_threshold selects on rings of
  /// `cell_payload`-byte cells: 0 means one cell payload; anything else,
  /// SIZE_MAX (rendezvous off) included, stands as configured.
  [[nodiscard]] static constexpr std::size_t rendezvous_threshold_for(
      std::size_t configured, std::size_t cell_payload) noexcept {
    return configured == 0 ? cell_payload : configured;
  }
  /// A user message strictly larger than this many bytes is sent by
  /// rendezvous. Fixed at construction.
  [[nodiscard]] std::size_t rendezvous_threshold() const noexcept {
    return rendezvous_threshold_;
  }

  /// What scavenge_peer reclaimed from this endpoint's view of a corpse.
  struct PeerScavengeReport {
    std::uint64_t cells_drained = 0;   ///< published ring cells discarded
    std::uint64_t cells_torn = 0;      ///< cells failing generation/CRC
    std::uint64_t requests_failed = 0; ///< requests completed kPeerFailed
    /// Our rendezvous slots toward the corpse destroyed here (in-flight
    /// slots whose FIN will never come, plus idle cached slots).
    std::uint64_t rendezvous_slots_freed = 0;
  };

  /// Endpoint-local half of pool recovery (the pool-global half is
  /// runtime::PoolRecovery; core::Session ties them together). Every
  /// survivor runs this for itself against a convicted-dead peer:
  /// drain/tombstone the corpse's inbound ring (half-written cells are
  /// detected by generation + CRC and discarded), abandon the half-
  /// assembled inbound message, fail outstanding requests that depend on
  /// the corpse with kPeerFailed, and drop retransmit staging + retry
  /// state keyed to it.
  PeerScavengeReport scavenge_peer(int dead_rank);

  /// Pool offset of the ring `sender` produces toward `receiver` (layout
  /// arithmetic; lets fault-injection tests target specific cells).
  [[nodiscard]] std::uint64_t debug_ring_base(int receiver, int sender) const {
    return matrix_.ring_base(receiver, sender);
  }
  [[nodiscard]] std::size_t cell_payload() const noexcept {
    return matrix_.cell_payload();
  }

  [[nodiscard]] int rank() const noexcept { return ctx_->rank(); }
  [[nodiscard]] int nranks() const noexcept { return ctx_->nranks(); }

 private:
  Endpoint(runtime::RankCtx& ctx, queue::QueueMatrix matrix);

  /// Per-source assembly state: where the chunks of the in-flight incoming
  /// message are being delivered.
  struct Assembly {
    bool active = false;
    Request* request = nullptr;                  // matched posted recv
    std::shared_ptr<UnexpectedMsg> unexpected;   // or unexpected buffer
    std::size_t total = 0;
    std::size_t received = 0;
    std::uint32_t seq = 0;          // sender's msg_seq (retry/NAK key)
    std::uint32_t src_incarnation = 0;  // incarnation of the first chunk
    bool truncated = false;
    bool synchronous = false;
    bool corrupt = false;           // a chunk failed the generation/CRC scan
    bool fenced = false;            // stale incarnation: discard whole msg
    bool control = false;           // NAK/REJECT/FIN: consumed, not delivered
    bool rendezvous = false;        // cells are RTS descriptors, not payload
    std::uint32_t ssend_counter = 0;
    std::vector<std::byte> control_data;  // control message payload
    /// Media error recorded while chunks were drained (kDataPoisoned).
    Status data_error;
  };

  /// Sender-side staged copy of a locally-completed message, kept for
  /// NAK-triggered retransmission (bounded per destination).
  struct StagedCopy {
    std::uint32_t seq = 0;
    int tag = 0;
    bool synchronous = false;
    std::vector<std::byte> data;
    /// Per-cell CRCs carried over from the fused staging pass, so a
    /// retransmission stages prehashed too.
    std::vector<std::uint32_t> chunk_crcs;
  };

  /// Sender-side rendezvous slot fully announced toward a destination,
  /// awaiting that receiver's FIN before the slab can be recycled.
  struct RdvzInflight {
    std::uint32_t seq = 0;
    arena::ObjectHandle slot;
    /// Sender's virtual time when the last RTS was published (obs: the
    /// RTS→FIN lifetime histogram).
    simtime::Ns staged_ns = 0;
  };

  /// Receiver-side state of a message awaiting retransmission, keyed by
  /// (source rank, msg_seq).
  struct RetryState {
    int attempts = 0;       // NAKs sent so far for this message
    int tag = 0;
    bool synchronous = false;
    std::uint32_t ssend_counter = 0;  // reused across retransmits
    std::weak_ptr<Request> request;        // re-posted matched receive
    std::weak_ptr<UnexpectedMsg> unexpected;  // or parked unexpected msg
  };

  void send_ssend_ack(int src, std::uint32_t counter);

  /// What one bounded drain visit of a peer ring left behind.
  struct DrainOutcome {
    bool more = false;         ///< hit the reap cap with cells still queued
    bool drained_any = false;  ///< consumed at least one cell
  };
  DrainOutcome drain_source(int src, std::size_t max_cells);
  void push_sends(int dst);

  /// wait() minus the MPI library-entry charge — the shared blocking loop
  /// for wait() (one charge per request) and wait_all() (one charge per
  /// call, like MPI_Waitall).
  Status wait_uncharged(const RequestPtr& request);
  bool match_unexpected(Request& request);

  /// Publish any staged cells on `ring` toward `dst` now (one fence for
  /// the whole batch, then each cell's header store) and ring/suppress the
  /// doorbell from the batch's empty→non-empty verdict.
  void publish_now(int dst, queue::SpscRing& ring);
  /// Publish every ring with a parked partial batch (see
  /// kPublishBatchCells): the flush point batched nonblocking sends rely
  /// on. Rings the host doorbell when anything went out, so a receiver
  /// sleeping between our stage and our flush is not lost.
  void flush_publishes();
  /// Account one cell publish toward `dst`: ring the destination's
  /// aggregated doorbell slot on an empty→non-empty edge, count a
  /// suppressed ring otherwise.
  void note_publish(int dst, bool edge);

  // --- Large-message rendezvous path ---
  /// Outcome of one attempt to advance a rendezvous send.
  enum class RdvzPush {
    kBlocked,   ///< ring full or inflight budget exhausted; retry later
    kStaged,    ///< fully announced; the slot moved to the inflight list
    kFallback,  ///< no slab available; deliver this message eagerly
  };
  RdvzPush push_rendezvous(int dst, queue::SpscRing& ring, Request& req);
  /// Slab for one outgoing message: recycled from the per-destination
  /// cache when a FINished slot is large enough, freshly created
  /// (deadline-bounded; see Arena::create_for) otherwise.
  Result<arena::ObjectHandle> acquire_rdvz_slot(int dst, std::uint64_t bytes);
  /// Return a slot to the per-destination cache, destroying the overflow.
  void release_rdvz_slot(int dst, arena::ObjectHandle slot);
  void destroy_rdvz_slot(arena::ObjectHandle slot);
  /// Receiver side: pull one segment from the sender's slab into its
  /// place in `buffer` (bytes beyond the buffer are consumed via scratch
  /// and reported as truncation), verifying the segment CRC with bounded
  /// re-reads in place of the eager path's NAK retransmissions.
  void pull_rendezvous_segment(std::uint64_t seg_pool_offset,
                               std::size_t msg_offset, std::size_t seg_bytes,
                               std::uint32_t seg_crc,
                               std::span<std::byte> buffer, bool& corrupt,
                               bool& truncated);

  /// Build the staging copy + per-cell CRCs for an eligible eager user
  /// send in one fused pass over the payload (common/crc32c), and point
  /// the request's send_data at the copy.
  void prepare_eager_staging(Request& request);
  /// Keep a copy of a just-staged user payload for retransmission (moves
  /// the request's staging copy; call after send_data is dropped).
  void stage_for_retransmit(int dst, Request& request);
  /// Queue a 4-byte NAK/REJECT control message carrying `seq`.
  void send_control(int dst, int tag, std::uint32_t seq);
  /// Sender side: act on an arrived NAK or REJECT.
  void handle_control(int src, int tag, std::span<const std::byte> payload);
  /// Sender side: re-send a staged copy (kRetransmit flag, original seq).
  void queue_retransmit(int dst, const StagedCopy& copy);
  /// Receiver side, at a corrupt last chunk: un-match / park the message,
  /// send a NAK, and record retry state. False when the retry budget is
  /// exhausted (caller surfaces the error instead).
  bool begin_retry(int src, int tag, Assembly& assembly);
  /// Receiver side, at a kRetransmit first chunk: attach the assembly to
  /// the waiting request / parked unexpected message from the retry map.
  void attach_retransmit(int src, const queue::CellHeader& header,
                         Assembly& assembly);
  void complete_recv(Request& request, int src, int tag, std::size_t bytes,
                     Status status);
  /// kPeerFailed when the one peer `request` depends on is dead, ok
  /// otherwise (kAnySource receives depend on no single peer).
  Status check_request_liveness(const Request& request);
  /// Withdraw `request` from the endpoint's bookkeeping and complete it
  /// with `verdict`. Returns false (leaving the request pending) only for
  /// the partially-staged-send case, where withdrawal would corrupt the
  /// ring FIFO for a live consumer.
  bool cancel_request(const RequestPtr& request, Status verdict);

  runtime::RankCtx* ctx_;
  queue::QueueMatrix matrix_;
  std::vector<Assembly> assembly_;                  // per source
  std::vector<std::deque<RequestPtr>> send_queues_; // per destination
  std::vector<std::uint32_t> ssend_sent_;           // per destination
  std::vector<std::uint32_t> ssend_seen_;           // per source
  std::vector<std::uint32_t> send_seq_;             // per destination
  std::vector<std::deque<StagedCopy>> staged_copies_;  // per destination
  std::vector<std::size_t> staged_bytes_;              // per destination
  /// Rendezvous sender state, per destination: slots awaiting FIN and the
  /// recycled-slot cache.
  std::vector<std::deque<RdvzInflight>> rdvz_inflight_;
  std::vector<std::deque<arena::ObjectHandle>> rdvz_slot_cache_;
  std::size_t rendezvous_threshold_ = 0;  // see rendezvous_threshold()
  std::uint64_t rdvz_name_counter_ = 0;  // unique slab names
  /// Messages awaiting retransmission, keyed (source, msg_seq).
  std::map<std::pair<int, std::uint32_t>, RetryState> retry_;
  PostedRecvQueue posted_recvs_;  // matched in post order
  UnexpectedQueue unexpected_;    // matched in arrival order
  /// Aggregated doorbell state (tentpole). dbell_next_[dst] is the value
  /// this rank's NEXT ring toward dst will store (monotonic across
  /// respawns: seeded from the pool word + 1). dbell_seen_[src] is the
  /// last value of src's slot this rank has fully drained behind;
  /// slot != seen means src published since our last complete drain.
  runtime::AggDoorbell dbell_;
  std::vector<std::uint64_t> dbell_next_;  // per destination
  std::vector<std::uint64_t> dbell_seen_;  // per source
  /// A reap-capped visit left cells behind: revisit next progress() even
  /// if the doorbell slot has not moved again.
  std::vector<std::uint8_t> drain_pending_;
  /// Per destination: push_sends parked a partial staged batch on this
  /// ring (cleared by the publish that drains it).
  std::vector<std::uint8_t> publish_dirty_;
  int scan_start_ = 0;             // rotating fairness offset
  std::uint64_t progress_calls_ = 0;
  /// Keeps matched-but-incomplete posted receives alive while their chunks
  /// stream in (the assembly holds a raw pointer).
  std::vector<RequestPtr> matched_keepalive_;
  /// Synchronous sends fully staged into cells, awaiting the match ack.
  std::vector<RequestPtr> pending_ssends_;
  /// Heap-held so the address is stable across Endpoint moves (the obs
  /// provider below captures it) and the defaulted move ctor still works.
  std::unique_ptr<CommStats> stats_;
  /// Exposes stats_ to the obs metrics registry as the p2p.* family.
  obs::ProviderRegistration obs_registration_;
  std::vector<std::byte> scratch_;  // truncated-chunk staging
};

}  // namespace cmpi::p2p
