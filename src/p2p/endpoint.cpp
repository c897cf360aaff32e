#include "p2p/endpoint.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>

#include "common/crc32c.hpp"
#include "common/log.hpp"
#include "cxlsim/fault_injector.hpp"
#include "obs/obs.hpp"

namespace cmpi::p2p {

Endpoint Endpoint::create(runtime::RankCtx& ctx) {
  const auto& cfg = ctx.config();
  std::optional<queue::QueueMatrix> matrix;
  if (ctx.rank() == 0) {
    // Open-before-create: in a second Universe::run epoch over the same
    // pool (crash → scavenge → respawn) the matrix already exists; its
    // ring views re-attach at the published counters.
    Result<queue::QueueMatrix> existing =
        queue::QueueMatrix::open(ctx.arena(), ctx.acc(), ctx.nranks());
    if (existing.is_ok()) {
      matrix = std::move(existing).value();
    } else {
      matrix = check_ok(queue::QueueMatrix::create(
          ctx.arena(), ctx.acc(), ctx.nranks(), cfg.ring_cells,
          cfg.cell_payload));
    }
  }
  ctx.barrier();  // §3.4: creation epoch closes before anyone opens
  if (ctx.rank() != 0) {
    matrix = check_ok(
        queue::QueueMatrix::open(ctx.arena(), ctx.acc(), ctx.nranks()));
  }
  ctx.barrier();
  return Endpoint(ctx, std::move(*matrix));
}

Endpoint::Endpoint(runtime::RankCtx& ctx, queue::QueueMatrix matrix)
    : ctx_(&ctx),
      matrix_(std::move(matrix)),
      assembly_(static_cast<std::size_t>(ctx.nranks())),
      send_queues_(static_cast<std::size_t>(ctx.nranks())),
      ssend_sent_(static_cast<std::size_t>(ctx.nranks()), 0),
      ssend_seen_(static_cast<std::size_t>(ctx.nranks()), 0),
      send_seq_(static_cast<std::size_t>(ctx.nranks()), 0),
      staged_copies_(static_cast<std::size_t>(ctx.nranks())),
      staged_bytes_(static_cast<std::size_t>(ctx.nranks()), 0),
      rdvz_inflight_(static_cast<std::size_t>(ctx.nranks())),
      rdvz_slot_cache_(static_cast<std::size_t>(ctx.nranks())),
      rendezvous_threshold_(rendezvous_threshold_for(
          ctx.config().rendezvous_threshold, matrix_.cell_payload())),
      publish_dirty_(static_cast<std::size_t>(ctx.nranks()), 0),
      stats_(std::make_unique<CommStats>()) {
  obs_registration_ = obs::ProviderRegistration([stats = stats_.get()] {
    return std::vector<obs::Sample>{
        {"p2p.messages_sent",
         stats->messages_sent.load(std::memory_order_relaxed)},
        {"p2p.messages_received",
         stats->messages_received.load(std::memory_order_relaxed)},
        {"p2p.bytes_sent", stats->bytes_sent.load(std::memory_order_relaxed)},
        {"p2p.bytes_received",
         stats->bytes_received.load(std::memory_order_relaxed)},
        {"p2p.unexpected_messages",
         stats->unexpected_messages.load(std::memory_order_relaxed)},
        {"p2p.rendezvous_sent",
         stats->rendezvous_sent.load(std::memory_order_relaxed)},
        {"p2p.rendezvous_bytes",
         stats->rendezvous_bytes.load(std::memory_order_relaxed)},
        {"p2p.eager_messages",
         stats->eager_messages.load(std::memory_order_relaxed)},
        {"p2p.eager_bytes",
         stats->eager_bytes.load(std::memory_order_relaxed)},
        {"p2p.rendezvous_fallbacks",
         stats->rendezvous_fallbacks.load(std::memory_order_relaxed)},
        {"p2p.publish_batches",
         stats->publish_batches.load(std::memory_order_relaxed)},
        {"p2p.cells_published",
         stats->cells_published.load(std::memory_order_relaxed)},
        {"p2p.wait_ns",
         static_cast<std::uint64_t>(
             stats->wait_ns.load(std::memory_order_relaxed))}};
  });
}

namespace {
/// Internal tag space for synchronous-send acknowledgements: per-pair
/// sequence numbers folded into a reserved range above user and
/// collective tags. FIFO per pair keeps sender and receiver counters in
/// step.
constexpr int kSsendAckBase = 1 << 23;
constexpr std::uint32_t kSsendAckRange = 1u << 20;

/// Retransmission control tags, above the ssend-ack range. Both carry a
/// 4-byte payload: the msg_seq of the message they speak about.
constexpr int kNakTag = kSsendAckBase + static_cast<int>(kSsendAckRange);
constexpr int kRejectTag = kNakTag + 1;
/// Rendezvous FIN: the receiver finished pulling message msg_seq (4-byte
/// payload) from the sender's slab; the sender may recycle the slot.
constexpr int kRdvzFinTag = kRejectTag + 1;

int ssend_ack_tag(std::uint32_t counter) {
  return kSsendAckBase + static_cast<int>(counter % kSsendAckRange);
}

bool is_internal_tag(int tag) { return tag >= kSsendAckBase; }

/// On-ring payload of one rendezvous RTS cell: where in the pool one
/// segment of the message lives. The cell header still carries the real
/// message envelope (tag, total_bytes, msg_seq) for matching/probing.
struct RdvzDescriptor {
  std::uint64_t slot_offset = 0;  ///< absolute pool offset of the slab
  std::uint64_t seg_offset = 0;   ///< segment's offset within the message
  std::uint64_t total_bytes = 0;  ///< message size (header cross-check)
  std::uint32_t seg_bytes = 0;
  std::uint32_t seg_crc = 0;      ///< CRC32C of the segment in the slab
};
static_assert(sizeof(RdvzDescriptor) == 32);

/// Deadline for arena-lock acquisition on the rendezvous data path: long
/// enough to never fire behind live contention, short enough that a lock
/// wedged under a corpse degrades the send to eager instead of hanging it.
constexpr std::chrono::milliseconds kRdvzLockTimeout{100};

/// The rendezvous path's arena-lock verdict: a participant the fault
/// injector has killed is dead, so its ticket may be broken.
arena::BakeryLock::DeadPredicate injector_convicts(
    const cxlsim::FaultInjector* injector) {
  return [injector](std::size_t participant) {
    return injector != nullptr &&
           injector->rank_crashed(static_cast<int>(participant));
  };
}

/// Bounded sub-chunk for slab bulk transfers. One monolithic multi-MiB op
/// would saturate the memory-hierarchy contention penalty (the very
/// collapse Fig. 5 shows for naive one-sided bulk ops), while tiny ops
/// drown in per-op flush setup. The cell payload is the granularity §4.3
/// already tuned for exactly this copy-size trade-off, so slab transfers
/// move at the same stride the eager path would have used — floored at
/// the contention threshold so a small-cell configuration doesn't drag
/// the large-message path down with it.
std::size_t rdvz_bulk_chunk(std::size_t cell_payload,
                            const cxlsim::CxlTimingParams& params) {
  return std::max<std::size_t>(cell_payload, params.contention_threshold);
}
}  // namespace

Endpoint::~Endpoint() {
  // A receiver can complete its last user-facing call with library
  // control traffic (ssend acks, NAKs, retransmissions) still queued
  // behind a momentarily full ring. The peer's blocking call is waiting
  // on exactly that traffic — and is therefore draining its ring — so a
  // short bounded flush always terminates when the peer is alive, and
  // dropping the traffic instead would wedge the peer forever.
  if (send_queues_.empty()) {
    return;  // moved-from shell
  }
  const cxlsim::FaultInjector* injector = ctx_->device().fault_injector();
  if (injector != nullptr && injector->rank_crashed(rank())) {
    return;  // a corpse must not touch the pool during unwind
  }
  try {
    // Batched nonblocking sends may have parked their final publish; the
    // endpoint going away is the last flush point there is.
    flush_publishes();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    for (;;) {
      // Arm before checking: a peer's drain landing between the check and
      // the sleep below must not be lost (see Doorbell::epoch).
      const std::uint64_t armed = ctx_->doorbell().epoch();
      const auto has_control = [](const auto& pending) {
        return std::any_of(pending.begin(), pending.end(),
                           [](const RequestPtr& r) {
                             return is_internal_tag(r->tag) ||
                                    (r->force_flags & queue::kRetransmit) != 0;
                           });
      };
      bool control_pending = false;
      for (int dst = 0; dst < nranks(); ++dst) {
        auto& pending = send_queues_[static_cast<std::size_t>(dst)];
        if (!has_control(pending) ||
            (injector != nullptr && injector->rank_crashed(dst))) {
          continue;  // abandoned user sends are the application's problem
        }
        push_sends(dst);
        control_pending = control_pending || has_control(pending);
      }
      flush_publishes();  // push_sends defers its final batch's publish
      if (!control_pending) {
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        log_warn("endpoint teardown: control traffic still unstaged after "
                 "1 s; peer gone — dropping it");
        break;
      }
      ctx_->doorbell().wait_past(armed);
    }
    // Best-effort FIN collection: receivers FIN the moment a rendezvous
    // message is delivered, so a FIN for a still-inflight slot is usually
    // already sitting in our inbound ring. One non-blocking drain pass
    // recycles those slots into the cache. Slots whose FIN never arrived
    // stay allocated on purpose — a live peer may still pull them; pool
    // scavenge reclaims them if we die, pool teardown otherwise.
    for (int src = 0; src < nranks(); ++src) {
      if (src == rank() ||
          rdvz_inflight_[static_cast<std::size_t>(src)].empty() ||
          (injector != nullptr && injector->rank_crashed(src))) {
        continue;
      }
      drain_source(src, std::numeric_limits<std::size_t>::max());
    }
    // A crashed receiver will never FIN: its inflight slots are ours to
    // destroy (its own pool state is the scavenger's job, these slabs are
    // ours).
    if (injector != nullptr) {
      for (int dst = 0; dst < nranks(); ++dst) {
        if (!injector->rank_crashed(dst)) {
          continue;
        }
        auto& inflight = rdvz_inflight_[static_cast<std::size_t>(dst)];
        for (RdvzInflight& entry : inflight) {
          destroy_rdvz_slot(std::move(entry.slot));
        }
        inflight.clear();
      }
    }
    // Cached (FINished) slots are idle and ours: destroy them so repeated
    // sessions over one pool do not bleed arena space.
    for (auto& cache : rdvz_slot_cache_) {
      for (arena::ObjectHandle& slot : cache) {
        destroy_rdvz_slot(std::move(slot));
      }
      cache.clear();
    }
  } catch (...) {
    // Best-effort: a fault-plan crash firing inside the flush (the
    // injector has already recorded it) must not escape a destructor.
  }
}

// ---------- Send path ----------

RequestPtr Endpoint::isend(int dst, int tag,
                           std::span<const std::byte> data) {
  CMPI_EXPECTS(dst >= 0 && dst < nranks());
  CMPI_EXPECTS(tag >= 0);
  ctx_->charge_mpi_overhead();
  auto request = std::make_shared<Request>();
  request->kind = Request::Kind::kSend;
  request->peer = dst;
  request->tag = tag;
  request->send_data = data;
  request->rendezvous =
      !is_internal_tag(tag) && data.size() > rendezvous_threshold_;
  request->seq = send_seq_[static_cast<std::size_t>(dst)]++;
  if (!is_internal_tag(tag)) {
    ++stats_->messages_sent;
    stats_->bytes_sent += data.size();
  }
  CMPI_OBS_SPAN_ARG(
      request->rendezvous ? "p2p.isend_rdvz" : "p2p.isend_eager", "bytes",
      data.size());
  send_queues_[static_cast<std::size_t>(dst)].push_back(request);
  push_sends(dst);
  return request;
}

Status Endpoint::send(int dst, int tag, std::span<const std::byte> data) {
  return wait(isend(dst, tag, data));
}

RequestPtr Endpoint::issend(int dst, int tag,
                            std::span<const std::byte> data) {
  CMPI_EXPECTS(dst >= 0 && dst < nranks());
  CMPI_EXPECTS(tag >= 0);
  ctx_->charge_mpi_overhead();
  auto request = std::make_shared<Request>();
  request->kind = Request::Kind::kSend;
  request->peer = dst;
  request->tag = tag;
  request->send_data = data;
  request->rendezvous = data.size() > rendezvous_threshold_;
  request->seq = send_seq_[static_cast<std::size_t>(dst)]++;
  ++stats_->messages_sent;
  stats_->bytes_sent += data.size();
  CMPI_OBS_SPAN_ARG(
      request->rendezvous ? "p2p.issend_rdvz" : "p2p.issend_eager", "bytes",
      data.size());
  request->synchronous = true;
  // Post the internal ack receive before the data can possibly arrive.
  const std::uint32_t counter =
      ssend_sent_[static_cast<std::size_t>(dst)]++;
  request->ack = irecv(dst, ssend_ack_tag(counter), {});
  send_queues_[static_cast<std::size_t>(dst)].push_back(request);
  push_sends(dst);
  return request;
}

Status Endpoint::ssend(int dst, int tag, std::span<const std::byte> data) {
  return wait(issend(dst, tag, data));
}

void Endpoint::push_sends(int dst) {
  auto& pending = send_queues_[static_cast<std::size_t>(dst)];
  queue::SpscRing& ring = matrix_.ring(ctx_->acc(), dst, rank());
  const std::size_t cell = matrix_.cell_payload();
  // Bytes staged-but-unpublished by THIS call (the cell-count threshold
  // reads ring.staged_pending() directly).
  std::size_t batch_bytes = 0;
  while (!pending.empty()) {
    Request& req = *pending.front();
    if (req.rendezvous) {
      const RdvzPush outcome = push_rendezvous(dst, ring, req);
      if (outcome == RdvzPush::kBlocked) {
        publish_now(dst, ring);
        return;  // ring/slot budget full; resume in a later progress()
      }
      if (outcome == RdvzPush::kFallback) {
        continue;  // re-enter this same request through the eager path
      }
      // Staged: the payload lives in the slab until the receiver's FIN;
      // the caller's buffer is no longer referenced.
      req.send_data = {};
    } else {
      prepare_eager_staging(req);
      const std::size_t total = req.send_data.size();
      bool made_progress = false;
      while (req.bytes_pushed < total || (total == 0 && !req.staged)) {
        const std::size_t chunk =
            std::min(cell, total - req.bytes_pushed);
        const bool last = req.bytes_pushed + chunk == total;
        queue::CellHeader header{};
        header.src_rank = static_cast<std::uint32_t>(rank());
        header.src_incarnation = ctx_->incarnation();
        header.tag = static_cast<std::uint32_t>(req.tag);
        header.msg_seq = req.seq;
        header.total_bytes = total;
        header.chunk_offset = req.bytes_pushed;
        header.chunk_bytes = static_cast<std::uint32_t>(chunk);
        header.flags = (last ? queue::kLastChunk : 0u) |
                       (req.synchronous ? queue::kSyncSend : 0u) |
                       req.force_flags;
        const auto payload = req.send_data.subspan(req.bytes_pushed, chunk);
        if (!req.chunk_crcs.empty()) {
          // The fused staging pass already checksummed each cell chunk;
          // hand the CRC in so the ring skips its own pass.
          header.payload_crc = req.chunk_crcs[req.bytes_pushed / cell];
        }
        const bool enqueued =
            ring.try_stage(ctx_->acc(), header, payload,
                           /*prehashed=*/!req.chunk_crcs.empty());
        if (!enqueued) {
          break;
        }
        made_progress = true;
        req.bytes_pushed += chunk;
        batch_bytes += chunk;
        if (ring.staged_pending() >= kPublishBatchCells ||
            batch_bytes >= kPublishBatchBytes) {
          publish_now(dst, ring);
          batch_bytes = 0;
        }
        // Scripted kill location for the recovery tests: the chunk sits in
        // its ring cell but, unless its batch was just published above, is
        // invisible to the consumer — a crash here loses the unpublished
        // batch whole, as a host dying before its header stores would.
        ctx_->acc().fault_sync_point("p2p-chunk-staged");
        if (last) {
          req.staged = true;
          break;
        }
      }
      if (made_progress) {
        ctx_->doorbell().ring();
      }
      if (!req.staged) {
        publish_now(dst, ring);
        return;  // ring full; resume in a later progress() call
      }
      // All chunks are in cells now; drop the reference to the payload
      // before staging moves it, so a completed request cannot dangle.
      req.send_data = {};
      stage_for_retransmit(dst, req);
      if (!is_internal_tag(req.tag) && req.force_flags == 0) {
        // User message fully staged through the eager path (control
        // traffic and retransmissions excluded, mirroring messages_sent).
        ++stats_->eager_messages;
        stats_->eager_bytes += total;
      }
    }
    if (req.synchronous) {
      // Completion comes with the receiver's match ack (progress()).
      pending_ssends_.push_back(pending.front());
    } else {
      req.complete_ = true;
    }
    pending.pop_front();
  }
  // Tail of a fully-staged call: park the final partial batch instead of
  // publishing, so a burst of back-to-back nonblocking sends coalesces
  // under one fence. Every path that returns control to a consumer of
  // this data flushes first — progress()/test()/wait entry and the
  // destructor — so a parked batch never outlives the next engine entry.
  // (Blocked and ring-full exits above still publish eagerly: the
  // consumer must drain for us to make progress.)
  if (ring.staged_pending() > 0) {
    publish_dirty_[static_cast<std::size_t>(dst)] = 1;
  }
}

void Endpoint::publish_now(int dst, queue::SpscRing& ring) {
  publish_dirty_[static_cast<std::size_t>(dst)] = 0;
  const std::size_t batch = ring.staged_pending();
  if (batch == 0) {
    return;
  }
  ring.publish_staged(ctx_->acc());
  ++stats_->publish_batches;
  stats_->cells_published += batch;
}

void Endpoint::flush_publishes() {
  bool published = false;
  for (int dst = 0; dst < nranks(); ++dst) {
    if (publish_dirty_[static_cast<std::size_t>(dst)] == 0) {
      continue;
    }
    queue::SpscRing& ring = matrix_.ring(ctx_->acc(), dst, rank());
    published = published || ring.staged_pending() > 0;
    publish_now(dst, ring);
  }
  if (published) {
    // The stage-time host-doorbell ring may have fired before the cells
    // were visible; re-ring now that they are, so a receiver that woke,
    // found nothing, and re-armed is not stranded.
    ctx_->doorbell().ring();
  }
}

Endpoint::RdvzPush Endpoint::push_rendezvous(int dst, queue::SpscRing& ring,
                                             Request& req) {
  const std::size_t total = req.send_data.size();
  auto& inflight = rdvz_inflight_[static_cast<std::size_t>(dst)];
  if (!req.rdvz_slot.has_value()) {
    if (inflight.size() >= kMaxRendezvousInflight) {
      return RdvzPush::kBlocked;  // wait for the receiver's FINs
    }
    Result<arena::ObjectHandle> slot = acquire_rdvz_slot(dst, total);
    if (!slot.is_ok()) {
      // Pool pressure, or the arena lock is wedged behind a corpse:
      // deliver through the eager path instead of failing the send.
      req.rendezvous = false;
      ++stats_->rendezvous_fallbacks;
      return RdvzPush::kFallback;
    }
    req.rdvz_slot = std::move(slot).value();
  }
  cxlsim::Accessor& acc = ctx_->acc();
  const std::uint64_t slab = req.rdvz_slot->pool_offset;
  const std::size_t piece_max =
      rdvz_bulk_chunk(matrix_.cell_payload(), acc.device().timing().params());
  // Segment quantum: small enough that even a just-over-threshold message
  // pipelines a few segments deep against the receiver (single-segment
  // delivery would serialize writer and reader and lose the eager path's
  // per-cell overlap), large enough that the per-segment RTS/fence cost
  // stays amortized on multi-MiB messages. Only the sender chooses — the
  // receiver follows whatever bounds each RTS descriptor carries. The cap
  // is kRendezvousSegmentBytes, floored at piece_max so it always covers
  // one bulk piece. A pure function of the message size, so every resumed
  // announcement attempt cuts the same segments the staged CRC was
  // computed over.
  const std::size_t seg_quantum =
      std::clamp((total / 8 + piece_max - 1) / piece_max * piece_max,
                 piece_max, std::max(piece_max, kRendezvousSegmentBytes));
  bool enqueued_any = false;
  while (req.bytes_pushed < total) {
    const std::size_t seg_begin = req.bytes_pushed;
    const std::size_t seg = std::min(seg_quantum, total - seg_begin);
    const bool written_now = req.rdvz_written <= seg_begin;
    if (written_now) {
      // Write the segment into the slab in bounded sub-chunks, folding
      // the CRC in as the bytes stream past (host-side, charge-free). The
      // segment's RTS publish fences all of its pieces at once, so they
      // share one flush sweep: only the first piece pays its setup.
      std::uint32_t crc = 0;
      for (std::size_t off = 0; off < seg; off += piece_max) {
        const std::size_t piece = std::min(piece_max, seg - off);
        const auto piece_span = req.send_data.subspan(seg_begin + off, piece);
        acc.bulk_write(slab + seg_begin + off, piece_span,
                       off == 0 ? cxlsim::Accessor::BulkCharge::kFull
                                : cxlsim::Accessor::BulkCharge::kBatched);
        crc = crc32c(piece_span, crc);
      }
      req.rdvz_seg_crc = crc;
      req.rdvz_written = seg_begin + seg;
      // Scripted kill location: slab writes issued but the RTS never
      // published — the receiver never learns of this segment and the
      // slot is reclaimed by pool scavenge.
      acc.fault_sync_point("p2p-rdvz-slab-written");
    }
    if (!ring.can_enqueue(acc)) {
      break;  // the written segment is announced on a later attempt
    }
    RdvzDescriptor desc;
    desc.slot_offset = slab;
    desc.seg_offset = seg_begin;
    desc.total_bytes = total;
    desc.seg_bytes = static_cast<std::uint32_t>(seg);
    desc.seg_crc = req.rdvz_seg_crc;
    const bool last = seg_begin + seg == total;
    queue::CellHeader header{};
    header.src_rank = static_cast<std::uint32_t>(rank());
    header.src_incarnation = ctx_->incarnation();
    header.tag = static_cast<std::uint32_t>(req.tag);
    header.msg_seq = req.seq;
    header.total_bytes = total;
    header.chunk_offset = seg_begin;
    header.chunk_bytes = static_cast<std::uint32_t>(sizeof(desc));
    header.flags = queue::kRendezvous | (last ? queue::kLastChunk : 0u) |
                   (req.synchronous ? queue::kSyncSend : 0u);
    // The RTS publish covers the slab segment too: try_enqueue's sfence
    // drains the pending slab writes before the RTS header is stored, so
    // the receiver's slab reads causally follow a durable segment. One
    // fence, one sweep: a descriptor written in the same pass as its
    // segment shares the segment's sweep. One announced on a later attempt
    // pays its own, since a fence may have intervened.
    acc.annotate_publish_range(slab + seg_begin, seg);
    const bool enqueued = ring.try_enqueue(
        acc, header,
        {reinterpret_cast<const std::byte*>(&desc), sizeof(desc)},
        written_now ? cxlsim::Accessor::BulkCharge::kBatched
                    : cxlsim::Accessor::BulkCharge::kFull);
    CMPI_ASSERT(enqueued);  // can_enqueue held above
    CMPI_OBS_COUNT("p2p.rdvz_rts", 1);
    CMPI_OBS_COUNT("p2p.rdvz_rts_late", written_now ? 0 : 1);
    ++stats_->publish_batches;  // RTS cells publish per-cell by design:
    ++stats_->cells_published;  // segment pipelining needs each durable now
    enqueued_any = true;
    req.bytes_pushed = seg_begin + seg;
    // Scripted kill location: the RTS is durable — the receiver can pull
    // this segment from the slab even if the sender dies now.
    acc.fault_sync_point("p2p-rdvz-rts");
  }
  if (enqueued_any) {
    ctx_->doorbell().ring();
  }
  if (req.bytes_pushed < total) {
    return RdvzPush::kBlocked;  // ring full mid-announcement
  }
  req.staged = true;
  CMPI_OBS_INSTANT_ARG("p2p.rdvz_rts_complete", "seq", req.seq);
  inflight.push_back(RdvzInflight{req.seq, std::move(*req.rdvz_slot),
                                  ctx_->clock().now()});
  req.rdvz_slot.reset();
  ++stats_->rendezvous_sent;
  stats_->rendezvous_bytes += total;
  return RdvzPush::kStaged;
}

Result<arena::ObjectHandle> Endpoint::acquire_rdvz_slot(int dst,
                                                        std::uint64_t bytes) {
  auto& cache = rdvz_slot_cache_[static_cast<std::size_t>(dst)];
  for (auto it = cache.begin(); it != cache.end(); ++it) {
    if (it->size >= bytes) {
      arena::ObjectHandle slot = std::move(*it);
      cache.erase(it);
      CMPI_OBS_COUNT("p2p.rdvz_slot_reuse", 1);
      return slot;
    }
  }
  CMPI_OBS_COUNT("p2p.rdvz_slot_create", 1);
  // Unique name per allocation: recycled slots keep their original name,
  // so the counter never collides even across reuse.
  const std::string name = std::string(arena::kRendezvousNamePrefix) +
                           std::to_string(rank()) + "." +
                           std::to_string(dst) + "." +
                           std::to_string(rdvz_name_counter_++);
  // Beat while queued behind other ranks' slab creates and destroys: the
  // wait can outlast a lease, and a peer waiting on this rank's message
  // convicts a silent heartbeat.
  return ctx_->arena().create_for(
      name, bytes, arena::Ownership::kOwned, kRdvzLockTimeout,
      injector_convicts(ctx_->device().fault_injector()),
      [this] { ctx_->failure_detector().beat(ctx_->acc()); });
}

void Endpoint::destroy_rdvz_slot(arena::ObjectHandle slot) {
  const Status destroyed = ctx_->arena().destroy_for(
      slot, kRdvzLockTimeout,
      injector_convicts(ctx_->device().fault_injector()),
      [this] { ctx_->failure_detector().beat(ctx_->acc()); });
  if (!destroyed.is_ok() && destroyed.code() != ErrorCode::kNotFound) {
    // Deliberate leak on a wedged arena lock: scavenging whoever holds it
    // unblocks future destroys, and the slab is reclaimed with us if we
    // die, or at pool teardown.
    log_warn("rendezvous slot '%s' not destroyed: %s", slot.name.c_str(),
             destroyed.message().c_str());
  }
}

void Endpoint::release_rdvz_slot(int dst, arena::ObjectHandle slot) {
  auto& cache = rdvz_slot_cache_[static_cast<std::size_t>(dst)];
  cache.push_back(std::move(slot));
  while (cache.size() > kRendezvousSlotCacheDepth) {
    arena::ObjectHandle victim = std::move(cache.front());
    cache.pop_front();
    destroy_rdvz_slot(std::move(victim));
  }
}

void Endpoint::pull_rendezvous_segment(std::uint64_t seg_pool_offset,
                                       std::size_t msg_offset,
                                       std::size_t seg_bytes,
                                       std::uint32_t seg_crc,
                                       std::span<std::byte> buffer,
                                       bool& corrupt, bool& truncated) {
  cxlsim::Accessor& acc = ctx_->acc();
  if (msg_offset + seg_bytes > buffer.size()) {
    truncated = true;
  }
  const std::size_t piece_max =
      rdvz_bulk_chunk(matrix_.cell_payload(), acc.device().timing().params());
  // The slab stays live until we FIN, so a CRC mismatch here is repaired
  // by re-reading in place — the rendezvous analogue of the eager path's
  // NAK/retransmit loop, with the same attempt budget. Each attempt issues
  // one invalidate sweep over the whole segment, so only its first piece
  // pays the sweep's setup; a re-read pays its own.
  for (std::size_t attempt = 0; attempt <= kMaxRetransmits; ++attempt) {
    std::uint32_t crc = 0;
    for (std::size_t off = 0; off < seg_bytes; off += piece_max) {
      const std::size_t piece = std::min(piece_max, seg_bytes - off);
      const std::size_t at = msg_offset + off;
      const bool fits = at + piece <= buffer.size();
      std::span<std::byte> dst;
      if (fits) {
        dst = buffer.subspan(at, piece);
      } else {
        // Truncation: consume through scratch, keep the bytes that fit.
        scratch_.resize(piece);
        dst = std::span<std::byte>(scratch_).subspan(0, piece);
      }
      acc.bulk_read(seg_pool_offset + off, dst,
                    off == 0 ? cxlsim::Accessor::BulkCharge::kFull
                             : cxlsim::Accessor::BulkCharge::kBatched);
      crc = crc32c(dst, crc);
      if (!fits && at < buffer.size()) {
        std::memcpy(buffer.data() + at, dst.data(), buffer.size() - at);
      }
    }
    if (crc == seg_crc) {
      return;
    }
    ctx_->recovery_counters().crc_failures.fetch_add(1);
    if (acc.poison_pending()) {
      break;  // media poison is sticky; re-reading cannot clear it
    }
  }
  corrupt = true;
}

void Endpoint::send_ssend_ack(int src, std::uint32_t counter) {
  // Zero-byte internal message; its tag encodes the per-pair sequence.
  const RequestPtr ack = isend(src, ssend_ack_tag(counter), {});
  // Zero-byte sends stage immediately unless the ring is full; either way
  // the send queue's progress machinery owns it now.
  (void)ack;
}

// ---------- Payload integrity: NAK / retransmission ----------

void Endpoint::prepare_eager_staging(Request& req) {
  // Only user payloads get a staging copy: internal messages carry no
  // data worth retransmitting, a retransmission already owns its copy,
  // and a repeat call (ring was full last attempt) finds `owned` built.
  if (req.send_data.empty() || !req.owned.empty() ||
      is_internal_tag(req.tag) || req.force_flags != 0 ||
      !req.chunk_crcs.empty()) {
    return;
  }
  // One fused pass replaces three (memcpy for staging, CRC in the ring's
  // enqueue, and the eventual retransmit source): copy into the staging
  // buffer while folding the CRC per cell chunk, then push the cells
  // straight out of that copy with prehashed try_stage. Host-side
  // bookkeeping (like a NIC retaining its DMA buffer) — no virtual time.
  const std::size_t total = req.send_data.size();
  const std::size_t cell = matrix_.cell_payload();
  req.owned.resize(total);
  req.chunk_crcs.reserve((total + cell - 1) / cell);
  for (std::size_t off = 0; off < total; off += cell) {
    const std::size_t chunk = std::min(cell, total - off);
    req.chunk_crcs.push_back(copy_and_crc32c(
        req.owned.data() + off, req.send_data.subspan(off, chunk)));
  }
  req.send_data = req.owned;
}

void Endpoint::stage_for_retransmit(int dst, Request& req) {
  if (is_internal_tag(req.tag) ||
      (req.force_flags & queue::kRetransmit) != 0 || req.owned.empty()) {
    return;
  }
  auto& staged = staged_copies_[static_cast<std::size_t>(dst)];
  StagedCopy copy;
  copy.seq = req.seq;
  copy.tag = req.tag;
  copy.synchronous = req.synchronous;
  copy.data = std::move(req.owned);
  copy.chunk_crcs = std::move(req.chunk_crcs);
  staged_bytes_[static_cast<std::size_t>(dst)] += copy.data.size();
  staged.push_back(std::move(copy));
  // Dual bound — entry count and bytes — so neither many small messages
  // nor one long stream of large ones grows host memory without limit.
  // The newest copy always survives: the message just staged must be
  // NAKable at least once.
  while ((staged.size() > kRetransmitStagingDepth ||
          staged_bytes_[static_cast<std::size_t>(dst)] >
              kRetransmitStagingBytes) &&
         staged.size() > 1) {
    staged_bytes_[static_cast<std::size_t>(dst)] -=
        staged.front().data.size();
    staged.pop_front();
    CMPI_OBS_COUNT("p2p.staging_evictions", 1);
  }
}

void Endpoint::send_control(int dst, int tag, std::uint32_t seq) {
  auto request = std::make_shared<Request>();
  request->kind = Request::Kind::kSend;
  request->peer = dst;
  request->tag = tag;
  request->seq = send_seq_[static_cast<std::size_t>(dst)]++;
  request->owned.resize(sizeof(seq));
  std::memcpy(request->owned.data(), &seq, sizeof(seq));
  request->send_data = request->owned;
  send_queues_[static_cast<std::size_t>(dst)].push_back(std::move(request));
  push_sends(dst);
}

void Endpoint::queue_retransmit(int dst, const StagedCopy& copy) {
  auto request = std::make_shared<Request>();
  request->kind = Request::Kind::kSend;
  request->peer = dst;
  request->tag = copy.tag;
  request->seq = copy.seq;  // SAME sequence: the receiver keys retries on it
  request->force_flags =
      queue::kRetransmit | (copy.synchronous ? queue::kSyncSend : 0u);
  // The request owns its payload: the staging entry may be evicted while
  // this retransmission still sits in the send queue.
  request->owned = copy.data;
  request->chunk_crcs = copy.chunk_crcs;
  request->send_data = request->owned;
  CMPI_OBS_INSTANT_ARG("p2p.retransmit", "seq", copy.seq);
  send_queues_[static_cast<std::size_t>(dst)].push_back(std::move(request));
  push_sends(dst);
}

void Endpoint::handle_control(int src, int tag,
                              std::span<const std::byte> payload) {
  if (payload.size() != sizeof(std::uint32_t)) {
    return;  // damaged control message: drop (NAKing a NAK cannot converge)
  }
  std::uint32_t seq = 0;
  std::memcpy(&seq, payload.data(), sizeof(seq));
  if (tag == kRdvzFinTag) {
    // The receiver finished pulling rendezvous message `seq`: its slab is
    // ours again. An unknown seq is benign (the slot was already destroyed
    // by scavenge_peer or teardown).
    auto& inflight = rdvz_inflight_[static_cast<std::size_t>(src)];
    const auto it =
        std::find_if(inflight.begin(), inflight.end(),
                     [&](const RdvzInflight& e) { return e.seq == seq; });
    if (it != inflight.end()) {
      CMPI_OBS_INSTANT_ARG("p2p.rdvz_fin", "seq", seq);
      CMPI_OBS_HIST("p2p.rdvz_rts_to_fin_ns",
                    ctx_->clock().now() - it->staged_ns);
      release_rdvz_slot(src, std::move(it->slot));
      inflight.erase(it);
    }
    return;
  }
  if (tag == kNakTag) {
    // The receiver saw a corrupt payload for our message `seq`.
    auto& staged = staged_copies_[static_cast<std::size_t>(src)];
    const auto it =
        std::find_if(staged.begin(), staged.end(),
                     [&](const StagedCopy& c) { return c.seq == seq; });
    if (it == staged.end()) {
      // Copy evicted: the data is unrecoverable on this side.
      ctx_->recovery_counters().retransmit_rejects.fetch_add(1);
      send_control(src, kRejectTag, seq);
      return;
    }
    ctx_->recovery_counters().retransmits.fetch_add(1);
    queue_retransmit(src, *it);
    return;
  }
  // kRejectTag: our NAK cannot be served — surface kDataPoisoned to
  // whoever is waiting for message `seq`.
  const auto rit = retry_.find({src, seq});
  if (rit == retry_.end()) {
    return;
  }
  const RetryState retry = rit->second;
  retry_.erase(rit);
  Status verdict = status::data_poisoned(
      "payload from rank " + std::to_string(src) +
      " unrecoverable: sender's retransmit staging copy was evicted");
  if (const RequestPtr req = retry.request.lock()) {
    if (posted_recvs_.remove(req.get()) != nullptr) {
      complete_recv(*req, src, retry.tag, 0, std::move(verdict));
    }
  } else if (const std::shared_ptr<UnexpectedMsg> msg =
                 retry.unexpected.lock()) {
    msg->received = msg->total;  // finalize: matchable, delivers the error
    msg->retry_pending = false;
    msg->data_error = std::move(verdict);
  }
}

bool Endpoint::begin_retry(int src, int tag, Assembly& assembly) {
  const auto key = std::make_pair(src, assembly.seq);
  RetryState& retry = retry_[key];
  if (retry.attempts >= kMaxRetransmits) {
    retry_.erase(key);
    return false;  // budget exhausted: the caller surfaces the error
  }
  ++retry.attempts;
  retry.tag = tag;
  retry.synchronous = assembly.synchronous;
  retry.ssend_counter = assembly.ssend_counter;
  if (assembly.request != nullptr) {
    // Un-match: move the keepalive reference back to the HEAD of the
    // posted queue so the retransmission finds the same request first.
    const auto held = std::find_if(
        matched_keepalive_.begin(), matched_keepalive_.end(),
        [&](const RequestPtr& r) { return r.get() == assembly.request; });
    CMPI_ASSERT(held != matched_keepalive_.end());
    RequestPtr req = *held;
    matched_keepalive_.erase(held);
    req->matched = false;
    retry.request = req;
    retry.unexpected.reset();
    const int filter_src = req->peer;
    const int filter_tag = req->tag;
    posted_recvs_.repost_front(std::move(req), filter_src, filter_tag);
  } else if (assembly.unexpected != nullptr) {
    // Park the unexpected message: it stays queued (FIFO position kept)
    // but is unmatchable until the retransmission rewrites it.
    assembly.unexpected->retry_pending = true;
    retry.unexpected = assembly.unexpected;
    retry.request.reset();
  }
  CMPI_OBS_INSTANT_ARG("p2p.nak", "seq", assembly.seq);
  send_control(src, kNakTag, assembly.seq);
  ctx_->recovery_counters().naks_sent.fetch_add(1);
  return true;
}

void Endpoint::attach_retransmit(int src, const queue::CellHeader& header,
                                 Assembly& assembly) {
  const auto it = retry_.find({src, header.msg_seq});
  if (it == retry_.end()) {
    // Unsolicited retransmission (we gave up, or the receive was
    // cancelled): consume and discard via the detached path.
    return;
  }
  RetryState& retry = it->second;
  assembly.synchronous = retry.synchronous;
  assembly.ssend_counter = retry.ssend_counter;
  if (RequestPtr req = retry.request.lock()) {
    if (posted_recvs_.remove(req.get()) != nullptr) {
      req->matched = true;
      assembly.request = req.get();
      matched_keepalive_.push_back(std::move(req));
      return;
    }
  }
  if (std::shared_ptr<UnexpectedMsg> msg = retry.unexpected.lock()) {
    msg->received = 0;  // the retransmission rewrites the buffer in place
    msg->data_error = Status::ok();
    assembly.unexpected = std::move(msg);
    return;
  }
  // The waiting party vanished (cancelled receive): discard detached.
  retry_.erase(it);
}

// ---------- Receive path ----------

RequestPtr Endpoint::irecv(int src, int tag, std::span<std::byte> buffer) {
  CMPI_EXPECTS(src == kAnySource || (src >= 0 && src < nranks()));
  CMPI_EXPECTS(tag == kAnyTag || tag >= 0);
  ctx_->charge_mpi_overhead();
  auto request = std::make_shared<Request>();
  request->kind = Request::Kind::kRecv;
  request->peer = src;
  request->tag = tag;
  request->recv_buffer = buffer;
  if (!match_unexpected(*request)) {
    posted_recvs_.post(request, src, tag);
  }
  return request;
}

Result<RecvInfo> Endpoint::recv(int src, int tag,
                                std::span<std::byte> buffer) {
  CMPI_OBS_SPAN_ARG("p2p.recv", "bytes", buffer.size());
  const RequestPtr request = irecv(src, tag, buffer);
  const Status status = wait(request);
  if (!status.is_ok()) {
    return status;
  }
  return request->info();
}

bool Endpoint::match_unexpected(Request& request) {
  std::size_t probe = 0;
  const UnexpectedMsgPtr found = unexpected_.find_match(
      request.peer, request.tag, /*require_full=*/true, &probe);
  if (found == nullptr) {
    return false;
  }
  CMPI_OBS_HIST("p2p.match_probe_len", probe);
  UnexpectedMsg& msg = *found;
  // The rank consumes the message now, so its cells' time lands now.
  ctx_->clock().observe(msg.ready);
  if (msg.rendezvous) {
    // Deferred one-copy delivery: the payload waited in the sender's
    // slab; pull it pool→user now that the destination is known, then
    // FIN so the sender can recycle the slot.
    Status delivery = Status::ok();
    bool corrupt = false;
    bool truncated = false;
    if (msg.data_error.is_ok()) {
      for (const RdvzSegment& seg : msg.rdvz_segs) {
        pull_rendezvous_segment(
            seg.pool_offset,
            static_cast<std::size_t>(seg.pool_offset -
                                     msg.rdvz_slot_offset),
            seg.bytes, seg.crc, request.recv_buffer, corrupt, truncated);
      }
      if (ctx_->acc().poison_pending()) {
        delivery = ctx_->acc().take_poison_status(
            "recv payload from rank " + std::to_string(msg.source));
      } else if (corrupt) {
        delivery = status::data_poisoned(
            "payload from rank " + std::to_string(msg.source) +
            " still corrupt after " + std::to_string(kMaxRetransmits) +
            " re-reads");
      } else if (truncated || msg.total > request.recv_buffer.size()) {
        delivery = status::truncated("message larger than recv buffer");
      }
    } else {
      delivery = msg.data_error;
    }
    complete_recv(request, msg.source, msg.tag,
                  std::min(msg.total, request.recv_buffer.size()),
                  std::move(delivery));
    if (msg.synchronous) {
      send_ssend_ack(msg.source, msg.ssend_counter);
    }
    send_control(msg.source, kRdvzFinTag, msg.rdvz_seq);
    unexpected_.remove(found.get());
    return true;
  }
  const std::size_t copy = std::min(msg.total, request.recv_buffer.size());
  // One extra host copy — the cost of an unexpected arrival, same as in
  // MPICH. The CXL-side copy was already charged when the chunk was
  // drained.
  if (copy > 0) {
    std::memcpy(request.recv_buffer.data(), msg.data.data(), copy);
    ctx_->clock().advance(
        static_cast<double>(copy) /
        ctx_->device().timing().params().local_mem_bytes_per_ns);
  }
  const bool truncated = msg.total > request.recv_buffer.size();
  Status delivery = Status::ok();
  if (!msg.data_error.is_ok()) {
    delivery = msg.data_error;  // poison recorded at drain time
  } else if (truncated) {
    delivery = status::truncated("message larger than recv buffer");
  }
  complete_recv(request, msg.source, msg.tag, copy, std::move(delivery));
  if (msg.synchronous) {
    // The sender's Ssend may complete now: the message is matched.
    send_ssend_ack(msg.source, msg.ssend_counter);
  }
  unexpected_.remove(found.get());
  return true;
}

void Endpoint::complete_recv(Request& request, int src, int tag,
                             std::size_t bytes, Status status) {
  if (!is_internal_tag(tag)) {
    ++stats_->messages_received;
    stats_->bytes_received += bytes;
  }
  request.info_.source = src;
  request.info_.tag = tag;
  request.info_.bytes = bytes;
  request.result_ = std::move(status);
  request.complete_ = true;
  request.recv_buffer = {};  // done with the caller's buffer
}

bool Endpoint::drain_source(int src, std::size_t max_cells) {
  queue::SpscRing& ring = matrix_.ring(ctx_->acc(), rank(), src);
  Assembly& assembly = assembly_[static_cast<std::size_t>(src)];
  // Batched reaping: the head publish (and with it the invalidate-sweep
  // setup the consumer pays per published head) is deferred across the
  // whole batch and flushed once at every exit below.
  ring.defer_head_publish(true);
  std::size_t reaped = 0;
  while (reaped < max_cells) {
    const simtime::Ns peek_start = ctx_->clock().now();
    const std::optional<queue::CellHeader> header = ring.peek(ctx_->acc());
    if (!header.has_value()) {
      break;
    }
    const int tag = static_cast<int>(header->tag);
    if (assembly.active &&
        header->src_incarnation != assembly.src_incarnation) {
      // The producer died mid-message and its next incarnation is already
      // publishing into the same ring: the stale assembly's remaining
      // chunks will never arrive. Abandon it (a matched receive fails with
      // kPeerFailed; fenced/unexpected partials vanish silently) and treat
      // this cell as a fresh message start.
      if (assembly.request != nullptr) {
        Request& req = *assembly.request;
        complete_recv(req, src, req.tag, 0,
                      status::peer_failed("recv: rank " +
                                          std::to_string(src) +
                                          " died mid-message"));
        std::erase_if(matched_keepalive_,
                      [&](const RequestPtr& r) { return r.get() == &req; });
      }
      if (assembly.unexpected != nullptr) {
        unexpected_.remove(assembly.unexpected.get());
      }
      assembly = Assembly{};
    }
    if (!assembly.active) {
      // First chunk of a new message: match against posted receives.
      assembly.active = true;
      assembly.total = header->total_bytes;
      assembly.received = 0;
      assembly.seq = header->msg_seq;
      assembly.src_incarnation = header->src_incarnation;
      assembly.truncated = false;
      assembly.corrupt = false;
      assembly.fenced = false;
      assembly.control = false;
      assembly.request = nullptr;
      assembly.unexpected = nullptr;
      assembly.data_error = Status::ok();
      assembly.synchronous = (header->flags & queue::kSyncSend) != 0;
      assembly.rendezvous = (header->flags & queue::kRendezvous) != 0;
      if (header->src_incarnation != ctx_->incarnation(src)) {
        // Incarnation fence: this message was published by a previous
        // (dead) life of `src`. Consume and discard it whole — stale
        // writes must not leak into the new epoch's traffic.
        assembly.fenced = true;
        ctx_->recovery_counters().stale_fenced.fetch_add(1);
      } else if (tag == kNakTag || tag == kRejectTag || tag == kRdvzFinTag) {
        // Retransmission/rendezvous control traffic: consumed, acted on,
        // never delivered to matching.
        assembly.control = true;
        assembly.control_data.assign(header->total_bytes, std::byte{0});
      } else if ((header->flags & queue::kRetransmit) != 0) {
        // Re-sent payload: reattach to whoever NAKed it (no new ssend
        // counter — the original arrival already consumed one).
        attach_retransmit(src, *header, assembly);
      } else {
        if (assembly.synchronous) {
          // Arrival order mirrors the sender's issend order (FIFO ring).
          assembly.ssend_counter =
              ssend_seen_[static_cast<std::size_t>(src)]++;
        }
        std::size_t probe = 0;
        RequestPtr posted = posted_recvs_.take_match(src, tag, &probe);
        CMPI_OBS_HIST("p2p.match_probe_len", probe);
        if (posted != nullptr) {
          assembly.request = posted.get();
          assembly.request->matched = true;
          // Keep the shared_ptr alive through assembly.
          assembly.unexpected = nullptr;
          matched_keepalive_.push_back(std::move(posted));
        } else {
          auto msg = std::make_shared<UnexpectedMsg>();
          if (!is_internal_tag(tag)) {
            ++stats_->unexpected_messages;
          }
          msg->source = src;
          msg->tag = tag;
          msg->total = header->total_bytes;
          if (assembly.rendezvous) {
            // Deferred pull: the payload stays parked in the sender's slab
            // until a receive matches — the one copy happens pool→user.
            msg->rendezvous = true;
            msg->rdvz_seq = header->msg_seq;
          } else {
            msg->data.resize(header->total_bytes);
          }
          msg->synchronous = assembly.synchronous;
          msg->ssend_counter = assembly.ssend_counter;
          assembly.unexpected = msg;
          unexpected_.push(msg);
        }
      }
    }

    // Deliver this chunk.
    queue::CellHeader consumed{};
    const simtime::Ns dequeue_start = ctx_->clock().now();
    if (assembly.control) {
      ring.try_dequeue(ctx_->acc(), consumed,
                       std::span<std::byte>(assembly.control_data)
                           .subspan(header->chunk_offset,
                                    header->chunk_bytes));
    } else if (assembly.rendezvous) {
      // The cell is an RTS descriptor, not payload: decode it, then pull
      // the announced segment straight from the sender's slab.
      RdvzDescriptor desc{};
      scratch_.resize(
          std::max<std::size_t>(header->chunk_bytes, sizeof(desc)));
      ring.try_dequeue(
          ctx_->acc(), consumed,
          std::span<std::byte>(scratch_).subspan(0, header->chunk_bytes),
          /*absorb_stamp=*/assembly.unexpected == nullptr);
      bool desc_ok = ring.last_dequeue_intact() &&
                     header->chunk_bytes == sizeof(RdvzDescriptor);
      if (desc_ok) {
        std::memcpy(&desc, scratch_.data(), sizeof(desc));
        desc_ok = desc.total_bytes == assembly.total &&
                  desc.seg_offset + desc.seg_bytes <= assembly.total;
      }
      if (!desc_ok) {
        // A torn descriptor leaves the segment unlocatable; the slab was
        // never touched, so only this message is damaged, not the ring.
        assembly.corrupt = true;
      } else {
        if (assembly.request != nullptr) {
          pull_rendezvous_segment(desc.slot_offset + desc.seg_offset,
                                  desc.seg_offset, desc.seg_bytes,
                                  desc.seg_crc, assembly.request->recv_buffer,
                                  assembly.corrupt, assembly.truncated);
        } else if (assembly.unexpected != nullptr) {
          UnexpectedMsg& msg = *assembly.unexpected;
          msg.rdvz_slot_offset = desc.slot_offset;
          msg.rdvz_segs.push_back(RdvzSegment{
              desc.slot_offset + desc.seg_offset, desc.seg_bytes,
              desc.seg_crc});
          msg.received += desc.seg_bytes;
        }
        // Fenced/detached: descriptor consumed, slab left untouched.
        assembly.received += desc.seg_bytes;
      }
    } else if (assembly.request != nullptr) {
      std::span<std::byte> buffer = assembly.request->recv_buffer;
      if (header->chunk_offset + header->chunk_bytes <= buffer.size()) {
        ring.try_dequeue(ctx_->acc(), consumed,
                         buffer.subspan(header->chunk_offset,
                                        header->chunk_bytes));
      } else {
        // Truncation: consume through a scratch buffer, keep what fits.
        scratch_.resize(header->chunk_bytes);
        ring.try_dequeue(ctx_->acc(), consumed, scratch_);
        assembly.truncated = true;
        if (header->chunk_offset < buffer.size()) {
          const std::size_t fits = buffer.size() - header->chunk_offset;
          std::memcpy(buffer.data() + header->chunk_offset, scratch_.data(),
                      fits);
        }
      }
    } else if (assembly.unexpected != nullptr) {
      ring.try_dequeue(
          ctx_->acc(), consumed,
          std::span<std::byte>(assembly.unexpected->data)
              .subspan(header->chunk_offset, header->chunk_bytes),
          /*absorb_stamp=*/false);
      assembly.unexpected->received += header->chunk_bytes;
    } else {
      // Detached: the matched receive was cancelled (deadline/failure)
      // mid-assembly, the message is incarnation-fenced, or a
      // retransmission found no waiting party. Keep the FIFO coherent by
      // consuming and discarding the rest of the message.
      scratch_.resize(header->chunk_bytes);
      ring.try_dequeue(ctx_->acc(), consumed, scratch_);
    }
    if (assembly.unexpected != nullptr) {
      // A parked cell's data is ready when a rank waiting for it would
      // have it: its peek follows the message's previous cell, its read
      // follows its stamp. The message keeps that time for
      // match_unexpected.
      UnexpectedMsg& msg = *assembly.unexpected;
      msg.ready = std::max(msg.ready + (dequeue_start - peek_start),
                           std::bit_cast<simtime::Ns>(consumed.stamp)) +
                  (ctx_->clock().now() - dequeue_start);
    }
    if (!ring.last_dequeue_intact()) {
      assembly.corrupt = true;
      ctx_->recovery_counters().crc_failures.fetch_add(1);
    }
    if (ctx_->acc().poison_pending()) {
      // Take it even when the message already holds an error: poison
      // left pending would be claimed by the next cell dequeued, which
      // may belong to another peer's message. The first error is kept.
      Status poison = ctx_->acc().take_poison_status(
          "recv payload from rank " + std::to_string(src));
      if (assembly.data_error.is_ok()) {
        assembly.data_error = std::move(poison);
      }
    }
    if (!assembly.rendezvous) {
      assembly.received += header->chunk_bytes;
    }
    ++reaped;

    if ((header->flags & queue::kLastChunk) != 0) {
      // A torn RTS descriptor loses that segment's byte count, so a
      // corrupt rendezvous assembly may legitimately undercount.
      CMPI_ASSERT(assembly.received == assembly.total ||
                  (assembly.rendezvous && assembly.corrupt));
      const bool damaged = assembly.corrupt || !assembly.data_error.is_ok();
      if (assembly.control) {
        if (!damaged) {
          handle_control(src, tag, assembly.control_data);
        }
        // A damaged control message is dropped: retransmitting NAKs of
        // NAKs cannot converge, and the peer's next NAK retries anyway.
      } else if (assembly.request != nullptr) {
        // Rendezvous damage never NAKs: pull_rendezvous_segment already
        // exhausted its re-read budget against the live slab.
        if (damaged && !assembly.rendezvous && begin_retry(src, tag, assembly)) {
          // The request went back to the head of posted_recvs_; the
          // retransmission (or a REJECT) completes it later.
        } else {
          Request& req = *assembly.request;
          Status delivery = Status::ok();
          if (!assembly.data_error.is_ok()) {
            delivery = assembly.data_error;
          } else if (assembly.corrupt) {
            delivery = status::data_poisoned(
                "payload from rank " + std::to_string(src) +
                " still corrupt after " + std::to_string(kMaxRetransmits) +
                (assembly.rendezvous ? " re-reads" : " retransmissions"));
          } else if (assembly.truncated) {
            delivery = status::truncated("message larger than recv buffer");
          }
          complete_recv(req, src, tag,
                        std::min(assembly.total, req.recv_buffer.size()),
                        std::move(delivery));
          std::erase_if(matched_keepalive_, [&](const RequestPtr& r) {
            return r.get() == &req;
          });
          retry_.erase({src, assembly.seq});
          if (assembly.synchronous) {
            send_ssend_ack(src, assembly.ssend_counter);
          }
          if (assembly.rendezvous) {
            // FIN even when damaged: the sender's slab has nothing more
            // to give, so holding its slot hostage helps nobody.
            send_control(src, kRdvzFinTag, assembly.seq);
          }
        }
      } else if (assembly.unexpected != nullptr) {
        if (damaged && !assembly.rendezvous && begin_retry(src, tag, assembly)) {
          // Parked in unexpected_ with retry_pending; the retransmission
          // rewrites it in place.
        } else {
          UnexpectedMsg& msg = *assembly.unexpected;
          msg.retry_pending = false;
          msg.data_error = assembly.data_error;
          if (msg.data_error.is_ok() && assembly.corrupt) {
            msg.data_error = status::data_poisoned(
                "payload from rank " + std::to_string(src) +
                " still corrupt after " + std::to_string(kMaxRetransmits) +
                " retransmissions");
          }
          retry_.erase({src, assembly.seq});
          if (assembly.rendezvous) {
            // A torn descriptor undercounts `received`; force the message
            // matchable so the error (if any) can be delivered.
            msg.received = msg.total;
          }
          // The unexpected message is now complete: a posted wildcard may
          // have been waiting for it.
          if (RequestPtr req = posted_recvs_.take_match(src, tag)) {
            const bool found = match_unexpected(*req);
            CMPI_ASSERT(found);
          }
        }
      } else if (assembly.rendezvous && !assembly.fenced) {
        // Detached rendezvous (the matched receive was cancelled): the
        // payload will never be pulled — FIN now so the sender's slot is
        // not pinned forever.
        send_control(src, kRdvzFinTag, assembly.seq);
      }
      // (Other detached and all fenced assemblies complete silently — the
      // message was consumed on behalf of a cancelled receive, or belongs
      // to a dead incarnation.)
      assembly = Assembly{};
    }
  }
  // One head publish covers the whole batch — including the reap-cap
  // exit, so a crashed receiver's unpublished-head window never spans
  // calls (at-least-once redelivery stays confined to one drain).
  ring.flush_head(ctx_->acc());
  ring.defer_head_publish(false);
  // Reads ahead (the next cells' gathered wave); any poison it hits stays
  // parked with its cell (SpscRing::peek) instead of landing on the next
  // peer's dequeue, and each stamp waits for its dequeue too.
  const bool more = reaped >= max_cells && ring.peek(ctx_->acc()).has_value();
  if (reaped > 0) {
    CMPI_OBS_HIST("p2p.cells_per_reap", reaped);
    ctx_->doorbell().ring();
  }
  return more;
}

// ---------- Progress / completion ----------

void Endpoint::progress() {
  const int n = nranks();
  for (int i = 0; i < n; ++i) {
    // Rotating start: two saturating senders hitting the reap cap are
    // served round-robin instead of lowest-rank-first. An empty ring
    // costs one untimed poll of its head cell.
    const int src = (scan_start_ + i) % n;
    if (src != rank()) {
      drain_source(src, kReapBatchCells);
    }
  }
  scan_start_ = (scan_start_ + 1) % n;
  for (int dst = 0; dst < nranks(); ++dst) {
    if (!send_queues_[static_cast<std::size_t>(dst)].empty()) {
      push_sends(dst);
    }
  }
  // Flush at engine EXIT, not entry: callers block on the doorbell right
  // after progress() returns, and a parked batch held across that sleep
  // would stall the peer (and with it, us).
  flush_publishes();
  // Synchronous sends complete once their match ack arrived. Drop the
  // internal ack request with the pending entry — a completed Ssend held
  // by the caller must not pin endpoint bookkeeping.
  std::erase_if(pending_ssends_, [](const RequestPtr& req) {
    if (req->ack != nullptr && req->ack->complete_) {
      req->ack.reset();
      req->complete_ = true;
      return true;
    }
    return false;
  });
}

Endpoint::DebugQueueSizes Endpoint::debug_queue_sizes() const noexcept {
  DebugQueueSizes sizes;
  sizes.posted_recvs = posted_recvs_.size();
  sizes.unexpected = unexpected_.size();
  sizes.matched_keepalive = matched_keepalive_.size();
  sizes.pending_ssends = pending_ssends_.size();
  for (const auto& queue : send_queues_) {
    sizes.send_queued += queue.size();
  }
  for (const std::size_t bytes : staged_bytes_) {
    sizes.staged_bytes += bytes;
  }
  for (const auto& inflight : rdvz_inflight_) {
    sizes.rendezvous_inflight += inflight.size();
  }
  for (const auto& cache : rdvz_slot_cache_) {
    sizes.rendezvous_cached += cache.size();
  }
  return sizes;
}

std::vector<Endpoint::DebugRdvzSlot> Endpoint::debug_rendezvous_inflight(
    int dst) const {
  CMPI_EXPECTS(dst >= 0 && dst < nranks());
  std::vector<DebugRdvzSlot> out;
  for (const RdvzInflight& entry :
       rdvz_inflight_[static_cast<std::size_t>(dst)]) {
    out.push_back(DebugRdvzSlot{entry.seq, entry.slot.pool_offset,
                                entry.slot.size});
  }
  return out;
}

bool Endpoint::test(const RequestPtr& request) {
  CMPI_EXPECTS(request != nullptr);
  ctx_->charge_mpi_overhead();
  // Even an already-complete staged send may still hold a parked publish
  // batch; the application regaining control is a flush point.
  flush_publishes();
  if (request->complete_) {
    return true;
  }
  progress();
  return request->complete_;
}

Status Endpoint::wait_uncharged(const RequestPtr& request) {
  CMPI_EXPECTS(request != nullptr);
  CMPI_OBS_SPAN("p2p.wait");
  const double entered = ctx_->clock().now();
  // A fully-staged isend is already complete and skips the loop below —
  // its cells may still be parked, so flush before possibly returning.
  flush_publishes();
  while (!request->complete_) {
    // Arm-then-check: a peer's ring landing between progress() and the
    // sleep bumps the generation past `armed`, so wait_past returns
    // immediately instead of losing the wakeup (see Doorbell::epoch).
    const std::uint64_t armed = ctx_->doorbell().epoch();
    progress();
    if (request->complete_) {
      break;
    }
    ctx_->doorbell().wait_past(armed);
  }
  stats_->wait_ns += ctx_->clock().now() - entered;
  return request->result_;
}

Status Endpoint::wait(const RequestPtr& request) {
  ctx_->charge_mpi_overhead();
  return wait_uncharged(request);
}

Status Endpoint::wait_all(std::span<const RequestPtr> requests) {
  // MPI_Waitall is ONE library call no matter how many requests it
  // retires: charge the entry overhead once, then run the uncharged
  // blocking loop per request.
  ctx_->charge_mpi_overhead();
  CMPI_OBS_SPAN_ARG("p2p.wait_all", "requests", requests.size());
  Status first_error;
  for (const RequestPtr& r : requests) {
    const Status s = wait_uncharged(r);
    if (!s.is_ok() && first_error.is_ok()) {
      first_error = s;
    }
  }
  return first_error;
}

Status Endpoint::check_request_liveness(const Request& request) {
  const int peer = request.peer;
  if (peer == kAnySource) {
    return Status::ok();  // no single peer to watch
  }
  runtime::FailureDetector& detector = ctx_->failure_detector();
  if (!detector.dead(ctx_->acc(), peer)) {
    return Status::ok();
  }
  if (request.kind == Request::Kind::kRecv) {
    return status::peer_failed(
        request.matched
            ? "recv: rank " + std::to_string(peer) + " died mid-message"
            : "recv: rank " + std::to_string(peer) +
                  " died before sending a match");
  }
  return status::peer_failed(
      request.staged
          ? "send: rank " + std::to_string(peer) +
                " died before acknowledging the match"
          : "send: rank " + std::to_string(peer) +
                " died with its receive ring full");
}

bool Endpoint::cancel_request(const RequestPtr& request, Status verdict) {
  Request& req = *request;
  const bool peer_dead = verdict.code() == ErrorCode::kPeerFailed;
  if (peer_dead) {
    CMPI_OBS_INSTANT_ARG("p2p.peer_failed", "peer",
                         static_cast<std::uint64_t>(req.peer));
    CMPI_OBS_FLIGHT("p2p: request cancelled with kPeerFailed");
  }
  if (req.kind == Request::Kind::kRecv) {
    posted_recvs_.remove(&req);
    // A receive parked for retransmission is abandoned with its retry
    // state; the retransmission (if any) drains detached.
    std::erase_if(retry_, [&](const auto& entry) {
      const auto waiting = entry.second.request.lock();
      return waiting.get() == &req;
    });
    if (req.matched) {
      // Detach the half-delivered assembly; if the producer is still
      // alive, drain_source discards the remaining chunks into scratch.
      for (Assembly& a : assembly_) {
        if (a.request == &req) {
          a.request = nullptr;
        }
      }
      std::erase_if(matched_keepalive_,
                    [&](const RequestPtr& r) { return r.get() == &req; });
    }
  } else {
    auto& queue = send_queues_[static_cast<std::size_t>(req.peer)];
    const auto queued = std::find_if(
        queue.begin(), queue.end(),
        [&](const RequestPtr& r) { return r.get() == &req; });
    if (queued != queue.end()) {
      if (req.bytes_pushed > 0 && !req.staged && !peer_dead) {
        // Chunks already sit in the ring: withdrawing would desynchronize
        // the live consumer's assembly. The deadline verdict stands, but
        // the request must stay pending.
        return false;
      }
      queue.erase(queued);
    }
    if (req.rdvz_slot.has_value()) {
      // Slot acquired but nothing announced yet (an announced send either
      // stayed pending above or moved the slot to the inflight list).
      release_rdvz_slot(req.peer, std::move(*req.rdvz_slot));
      req.rdvz_slot.reset();
    }
    if (req.synchronous) {
      std::erase_if(pending_ssends_,
                    [&](const RequestPtr& r) { return r.get() == &req; });
      if (req.ack != nullptr) {
        // Withdraw the internal ack receive with its Ssend.
        posted_recvs_.remove(req.ack.get());
        req.ack->complete_ = true;
        req.ack.reset();
      }
    }
  }
  req.send_data = {};
  req.recv_buffer = {};
  req.result_ = std::move(verdict);
  req.complete_ = true;
  return true;
}

Status Endpoint::wait_for(const RequestPtr& request,
                          std::chrono::milliseconds timeout) {
  CMPI_EXPECTS(request != nullptr);
  ctx_->charge_mpi_overhead();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const double entered = ctx_->clock().now();
  runtime::FailureDetector& detector = ctx_->failure_detector();
  flush_publishes();  // same early-complete staged-send case as wait()
  // Beat on entry too (rate-limited): a rank whose deadline calls complete
  // without waiting is busy, not dead.
  detector.beat(ctx_->acc());
  while (!request->complete_) {
    const std::uint64_t armed = ctx_->doorbell().epoch();
    progress();
    if (request->complete_) {
      break;
    }
    detector.beat(ctx_->acc());
    Status alive = check_request_liveness(*request);
    if (!alive.is_ok() && request->kind == Request::Kind::kRecv) {
      // A convicted peer publishes nothing more, but what it published
      // before dying may lie past the one reap batch progress() took from
      // its ring: drain the ring dry before giving up on the receive.
      while (drain_source(request->peer, kReapBatchCells)) {
      }
      if (request->complete_) {
        break;
      }
      alive = check_request_liveness(*request);
    }
    if (!alive.is_ok()) {
      // A dead peer cancels unconditionally — there is no live consumer
      // left for a partially-staged send to corrupt.
      cancel_request(request, std::move(alive));
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      Status timed = status::timed_out(
          (request->kind == Request::Kind::kRecv ? "recv" : "send") +
          std::string(" involving rank ") + std::to_string(request->peer) +
          " missed its deadline");
      if (!cancel_request(request, timed)) {
        stats_->wait_ns += ctx_->clock().now() - entered;
        return timed;  // request left pending (see header)
      }
      break;
    }
    ctx_->doorbell().wait_past(armed);
  }
  stats_->wait_ns += ctx_->clock().now() - entered;
  return request->result_;
}

Result<RecvInfo> Endpoint::recv_for(int src, int tag,
                                    std::span<std::byte> buffer,
                                    std::chrono::milliseconds timeout) {
  const RequestPtr request = irecv(src, tag, buffer);
  const Status status = wait_for(request, timeout);
  if (!status.is_ok()) {
    return status;
  }
  return request->info();
}

Status Endpoint::send_for(int dst, int tag, std::span<const std::byte> data,
                          std::chrono::milliseconds timeout) {
  return wait_for(isend(dst, tag, data), timeout);
}

Status Endpoint::ssend_for(int dst, int tag, std::span<const std::byte> data,
                           std::chrono::milliseconds timeout) {
  return wait_for(issend(dst, tag, data), timeout);
}

RecvInfo Endpoint::probe(int src, int tag) {
  CMPI_OBS_SPAN("p2p.probe");
  ctx_->charge_mpi_overhead();
  std::optional<RecvInfo> found;
  ctx_->doorbell().wait_until([&] {
    found = iprobe_uncharged(src, tag);
    return found.has_value();
  });
  return *found;
}

Status Endpoint::sendrecv(int dst, int send_tag,
                          std::span<const std::byte> out, int src,
                          int recv_tag, std::span<std::byte> in,
                          RecvInfo* info) {
  CMPI_OBS_SPAN("p2p.sendrecv");
  const RequestPtr send_req = isend(dst, send_tag, out);
  const RequestPtr recv_req = irecv(src, recv_tag, in);
  const Status send_status = wait(send_req);
  const Status recv_status = wait(recv_req);
  if (info != nullptr) {
    *info = recv_req->info();
  }
  return send_status.is_ok() ? recv_status : send_status;
}

Endpoint::PeerScavengeReport Endpoint::scavenge_peer(int dead_rank) {
  CMPI_EXPECTS(dead_rank >= 0 && dead_rank < nranks() &&
               dead_rank != rank());
  const auto dead = static_cast<std::size_t>(dead_rank);
  PeerScavengeReport report;

  // Inbound: fsck the corpse's producer ring (this endpoint is its sole
  // consumer) — half-written cells are detected and tombstoned, the head
  // is republished so the next incarnation finds an empty ring.
  queue::SpscRing& ring = matrix_.ring(ctx_->acc(), rank(), dead_rank);
  const queue::SpscRing::ScavengeCounts counts =
      ring.scavenge_producer(ctx_->acc());
  report.cells_drained = counts.drained;
  report.cells_torn = counts.torn;
  ctx_->recovery_counters().ring_cells_tombstoned.fetch_add(counts.drained +
                                                            counts.torn);

  // The half-assembled inbound message (if any) is abandoned: its
  // remaining chunks died with the producer.
  Assembly& assembly = assembly_[dead];
  if (assembly.active) {
    if (assembly.request != nullptr) {
      Request& req = *assembly.request;
      complete_recv(req, dead_rank, req.tag, 0,
                    status::peer_failed("recv: rank " +
                                        std::to_string(dead_rank) +
                                        " died mid-message"));
      std::erase_if(matched_keepalive_,
                    [&](const RequestPtr& r) { return r.get() == &req; });
      ++report.requests_failed;
    }
    if (assembly.unexpected != nullptr) {
      unexpected_.remove(assembly.unexpected.get());
    }
    assembly = Assembly{};
  }
  // Partial or retry-parked unexpected messages from the corpse can never
  // complete; fully-arrived intact ones were sent before the death and
  // stay deliverable. Rendezvous arrivals are the exception: their bytes
  // still sit in the corpse's slab, which the pool scavenge is about to
  // reclaim — a deferred pull would read freed (or reused) memory.
  unexpected_.remove_if([&](const UnexpectedMsgPtr& m) {
    return m->source == dead_rank &&
           (!m->full() || m->retry_pending || m->rendezvous);
  });

  // Outbound: nothing queued for the corpse will ever be consumed.
  auto& pending = send_queues_[dead];
  for (const RequestPtr& req : pending) {
    if (req->rdvz_slot.has_value()) {
      // Half-announced rendezvous send: the slab is ours to destroy (no
      // live consumer can ever pull from it).
      destroy_rdvz_slot(std::move(*req->rdvz_slot));
      req->rdvz_slot.reset();
      ++report.rendezvous_slots_freed;
    }
    if (!req->complete_) {
      req->send_data = {};
      req->result_ = status::peer_failed(
          "send: rank " + std::to_string(dead_rank) + " died");
      req->complete_ = true;
      ++report.requests_failed;
    }
  }
  pending.clear();
  staged_copies_[dead].clear();
  staged_bytes_[dead] = 0;
  // In-flight rendezvous slots toward the corpse will never be FINed, and
  // its cached (idle) slots are dead weight: both are our own arena
  // objects, destroyed here rather than leaked until pool teardown.
  auto& inflight = rdvz_inflight_[dead];
  for (RdvzInflight& entry : inflight) {
    destroy_rdvz_slot(std::move(entry.slot));
    ++report.rendezvous_slots_freed;
  }
  inflight.clear();
  auto& cache = rdvz_slot_cache_[dead];
  for (arena::ObjectHandle& slot : cache) {
    destroy_rdvz_slot(std::move(slot));
    ++report.rendezvous_slots_freed;
  }
  cache.clear();
  if (report.rendezvous_slots_freed > 0) {
    ctx_->recovery_counters().rendezvous_slots_scavenged.fetch_add(
        report.rendezvous_slots_freed);
  }
  std::erase_if(pending_ssends_, [&](const RequestPtr& req) {
    if (req->peer != dead_rank) {
      return false;
    }
    if (req->ack != nullptr) {
      posted_recvs_.remove(req->ack.get());
      req->ack->complete_ = true;
      req->ack.reset();
    }
    req->result_ = status::peer_failed(
        "ssend: rank " + std::to_string(dead_rank) +
        " died before acknowledging the match");
    req->complete_ = true;
    ++report.requests_failed;
    return true;
  });
  // Posted receives waiting on the corpse specifically cannot complete.
  for (const RequestPtr& r : posted_recvs_.remove_if([&](const RequestPtr& r) {
         return r->peer == dead_rank && !r->complete_;
       })) {
    complete_recv(*r, dead_rank, r->tag, 0,
                  status::peer_failed("recv: rank " +
                                      std::to_string(dead_rank) +
                                      " died before sending a match"));
    ++report.requests_failed;
  }
  // Retry state keyed to the corpse will never be served.
  std::erase_if(retry_, [&](const auto& entry) {
    return entry.first.first == dead_rank;
  });
  return report;
}

std::optional<RecvInfo> Endpoint::iprobe(int src, int tag) {
  ctx_->charge_mpi_overhead();
  return iprobe_uncharged(src, tag);
}

std::optional<RecvInfo> Endpoint::iprobe_uncharged(int src, int tag) {
  progress();
  // Probing needs an envelope, not a complete payload: match partially-
  // arrived messages too (require_full=false).
  const UnexpectedMsgPtr msg =
      unexpected_.find_match(src, tag, /*require_full=*/false);
  if (msg != nullptr) {
    // Reporting the envelope consumes what has arrived of the message.
    ctx_->clock().observe(msg->ready);
    RecvInfo info;
    info.source = msg->source;
    info.tag = msg->tag;
    info.bytes = msg->total;
    return info;
  }
  return std::nullopt;
}

}  // namespace cmpi::p2p
