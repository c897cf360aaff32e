// Sharded MPI tag matching for the message-rate engine (paper §3.3).
//
// The naive posted-receive and unexpected-message queues are flat deques
// scanned linearly per arrival; at fan-in message rates the scan length
// grows with the number of outstanding receives and dominates the match
// path. These containers shard both queues into hash buckets keyed on the
// packed (source, tag) envelope while preserving MPI matching semantics
// exactly:
//
//  * PostedRecvQueue — every posted receive carries a monotonic post-order
//    stamp and lives in the one bucket its own (source, tag) filter keys
//    (wildcards key their own buckets: a filter is a point in the same
//    keyspace). An arrival (src, tag) can only match four filters —
//    (src,tag), (ANY,tag), (src,ANY), (ANY,ANY) — so the probe inspects at
//    most four bucket fronts and takes the minimum post-order stamp:
//    exactly the earliest matching posted receive the linear scan would
//    have found, in O(1) instead of O(posted).
//
//  * UnexpectedQueue — messages live in a global arrival-order list AND in
//    their (source, tag) bucket. A fully-specified receive probes its one
//    bucket (per-bucket order is arrival order for that envelope, which is
//    the only order MPI requires); a wildcard receive walks the global
//    list, so ANY_SOURCE/ANY_TAG matching is in true arrival order across
//    all senders — sharding never reorders the wildcard view.
//
// Re-posting after a NAK (retransmission protocol) must put a receive back
// AT THE FRONT of the match order; repost_front() stamps a decreasing
// order below every live stamp, which sorts it first without touching
// other buckets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "simtime/vclock.hpp"

namespace cmpi::p2p {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// MPI envelope matching: does a posted (src, tag) filter accept an
/// arrival from `src` with `tag`?
constexpr bool tags_match(int posted_src, int posted_tag, int src,
                          int tag) noexcept {
  return (posted_src == kAnySource || posted_src == src) &&
         (posted_tag == kAnyTag || posted_tag == tag);
}

class Request;
using RequestPtr = std::shared_ptr<Request>;

/// Receiver-side record of one announced rendezvous segment.
struct RdvzSegment {
  std::uint64_t pool_offset = 0;  ///< absolute pool offset of the segment
  std::uint32_t bytes = 0;
  std::uint32_t crc = 0;
};

/// A message that arrived (fully or partially) with no matching posted
/// receive yet.
struct UnexpectedMsg {
  int source;
  int tag;
  std::size_t total = 0;
  std::size_t received = 0;
  std::vector<std::byte> data;
  bool synchronous = false;  // sender awaits a match ack
  std::uint32_t ssend_counter = 0;
  /// Large-message rendezvous: the payload stays parked in the sender's
  /// slab (not copied into `data`); `rdvz_segs` records where each
  /// announced segment lives. Pulled into the user buffer — and FINed —
  /// only when a receive finally matches.
  bool rendezvous = false;
  std::uint64_t rdvz_slot_offset = 0;  // slab base (segment->msg offsets)
  std::uint32_t rdvz_seq = 0;          // sender's msg_seq (FIN payload)
  std::vector<RdvzSegment> rdvz_segs;
  /// The payload arrived corrupt and a retransmission was requested; the
  /// message is not matchable until the retransmit lands (or a REJECT
  /// finalizes it with kDataPoisoned).
  bool retry_pending = false;
  /// Media error recorded while chunks were drained (kDataPoisoned).
  Status data_error;
  /// Virtual time at which the cells drained so far are in `data`, as a
  /// rank that waited for them would have them: cell by cell, the later
  /// of its stamp and the previous cell's ready time plus its peek, then
  /// its read. Draining does not move the receiver's clock to it: a
  /// receive that matches the message, or an iprobe that reports it,
  /// absorbs it.
  simtime::Ns ready = 0;
  [[nodiscard]] bool full() const noexcept { return received == total; }
};

using UnexpectedMsgPtr = std::shared_ptr<UnexpectedMsg>;

/// Posted receives, sharded on the (source, tag) filter, matched in post
/// order (see file header). The queue never reads Request fields — the
/// caller passes the filter envelope in, so this container stays decoupled
/// from the endpoint's request internals.
class PostedRecvQueue {
 public:
  /// Append `req` (filter `src`/`tag`, wildcards allowed) at the back of
  /// the post order.
  void post(RequestPtr req, int src, int tag);

  /// Re-insert `req` at the FRONT of the match order (NAK retry path: the
  /// retransmission must find the same request before anything else).
  void repost_front(RequestPtr req, int src, int tag);

  /// Earliest-posted receive matching an arrival (`src` and `tag` are
  /// concrete), removed from the queue; nullptr when none matches. Writes
  /// the number of bucket fronts inspected (≤4) to `probe_len` if given.
  RequestPtr take_match(int src, int tag, std::size_t* probe_len = nullptr);

  /// Remove a specific request. Returns the owning pointer (nullptr when
  /// absent). Cold path (cancellation, ack withdrawal): scans buckets.
  RequestPtr remove(const Request* req);

  /// Remove every request the predicate accepts; returns them in post
  /// order. Cold path (peer scavenge).
  std::vector<RequestPtr> remove_if(
      const std::function<bool(const RequestPtr&)>& pred);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

 private:
  struct Entry {
    std::int64_t order = 0;
    RequestPtr req;
  };
  static std::uint64_t key(int src, int tag) noexcept {
    return mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                  << 32) |
                 static_cast<std::uint32_t>(tag));
  }

  std::unordered_map<std::uint64_t, std::deque<Entry>> buckets_;
  std::int64_t next_order_ = 1;   // back of the post order
  std::int64_t front_order_ = 0;  // decreasing stamps for repost_front
  std::size_t size_ = 0;
};

/// Unexpected messages, sharded on the (source, tag) envelope with a
/// global arrival-order view for wildcard receives (see file header).
class UnexpectedQueue {
 public:
  /// Append at the back of the arrival order.
  void push(UnexpectedMsgPtr msg);

  /// Earliest-arrival message matching the posted filter (`src`/`tag` may
  /// be wildcards) that is not parked for retry and — when `require_full`
  /// — has fully arrived. Not removed (the caller delivers, then calls
  /// remove()). Writes the number of entries inspected to `probe_len` if
  /// given.
  UnexpectedMsgPtr find_match(int src, int tag, bool require_full,
                              std::size_t* probe_len = nullptr) const;

  /// Remove a specific message. Returns true when it was present.
  bool remove(const UnexpectedMsg* msg);

  /// Remove every message the predicate accepts; returns how many.
  std::size_t remove_if(
      const std::function<bool(const UnexpectedMsgPtr&)>& pred);

  [[nodiscard]] std::size_t size() const noexcept { return arrival_.size(); }
  [[nodiscard]] bool empty() const noexcept { return arrival_.empty(); }

 private:
  static std::uint64_t key(int src, int tag) noexcept {
    return mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                  << 32) |
                 static_cast<std::uint32_t>(tag));
  }

  std::deque<UnexpectedMsgPtr> arrival_;  // global arrival order
  std::unordered_map<std::uint64_t, std::deque<UnexpectedMsgPtr>> buckets_;
};

}  // namespace cmpi::p2p
