// MPI tag matching (paper §3.3): the posted-receive and unexpected-message
// queues, each one list in the order MPI matches by, as MPICH keeps them.
//
//  * PostedRecvQueue is in post order. An arrival takes the first posted
//    receive whose (source, tag) filter accepts it, so among the receives
//    it could satisfy the earliest posted wins, wildcard or not. A NAK
//    retry re-posts its receive at the front so the retransmission finds
//    the same request before anything else.
//  * UnexpectedQueue is in arrival order. A receive takes the first
//    matchable message its filter accepts, so messages from one sender
//    with one tag are taken in the order they were sent, and wildcard
//    receives see true arrival order across senders.
//
// Both scans are linear. p2p.match_probe_len records the entries each
// match inspects: 0.87-0.99 per match on average in every perfbench
// workload, 3 at most. The longest scans are msgrate_fanin's, whose
// receiver posts 64 receives per sender in sender order: about 160 per
// match on average (docs/INTERNALS.md §12). No virtual time is charged
// for a scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

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

/// A message that arrived (fully or partially) with no matching posted
/// receive yet. Its payload drains into `data` as its cells arrive, a
/// large message's bulk cells included.
struct UnexpectedMsg {
  int source;
  int tag;
  std::size_t total = 0;
  std::size_t received = 0;
  std::vector<std::byte> data;
  bool synchronous = false;  // sender awaits a match ack
  std::uint32_t ssend_counter = 0;
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

/// Posted receives in post order (see file header). The queue never reads
/// Request fields — the caller passes the filter envelope in, so this
/// container stays decoupled from the endpoint's request internals.
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
  /// the number of entries inspected to `probe_len` if given.
  RequestPtr take_match(int src, int tag, std::size_t* probe_len = nullptr);

  /// Remove a specific request. Returns the owning pointer (nullptr when
  /// absent). Cold path (cancellation, ack withdrawal).
  RequestPtr remove(const Request* req);

  /// Remove every request the predicate accepts; returns them in post
  /// order. Cold path (peer scavenge).
  std::vector<RequestPtr> remove_if(
      const std::function<bool(const RequestPtr&)>& pred);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

 private:
  struct Entry {
    int src = kAnySource;
    int tag = kAnyTag;
    RequestPtr req;
  };
  std::deque<Entry> entries_;  // post order
};

/// Unexpected messages in arrival order (see file header).
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
  std::deque<UnexpectedMsgPtr> arrival_;  // arrival order
};

}  // namespace cmpi::p2p
