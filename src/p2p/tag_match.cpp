#include "p2p/tag_match.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace cmpi::p2p {

void PostedRecvQueue::post(RequestPtr req, int src, int tag) {
  entries_.push_back(Entry{src, tag, std::move(req)});
}

void PostedRecvQueue::repost_front(RequestPtr req, int src, int tag) {
  entries_.push_front(Entry{src, tag, std::move(req)});
}

RequestPtr PostedRecvQueue::take_match(int src, int tag,
                                       std::size_t* probe_len) {
  CMPI_EXPECTS(src != kAnySource && tag != kAnyTag);
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& e) {
                                 return tags_match(e.src, e.tag, src, tag);
                               });
  if (probe_len != nullptr) {
    *probe_len = static_cast<std::size_t>(it - entries_.begin()) +
                 (it != entries_.end() ? 1 : 0);
  }
  if (it == entries_.end()) {
    return nullptr;
  }
  RequestPtr req = std::move(it->req);
  entries_.erase(it);
  return req;
}

RequestPtr PostedRecvQueue::remove(const Request* req) {
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [&](const Entry& e) { return e.req.get() == req; });
  if (it == entries_.end()) {
    return nullptr;
  }
  RequestPtr owned = std::move(it->req);
  entries_.erase(it);
  return owned;
}

std::vector<RequestPtr> PostedRecvQueue::remove_if(
    const std::function<bool(const RequestPtr&)>& pred) {
  std::vector<RequestPtr> taken;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (pred(it->req)) {
      taken.push_back(std::move(it->req));
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return taken;
}

void UnexpectedQueue::push(UnexpectedMsgPtr msg) {
  arrival_.push_back(std::move(msg));
}

UnexpectedMsgPtr UnexpectedQueue::find_match(int src, int tag,
                                             bool require_full,
                                             std::size_t* probe_len) const {
  const auto it = std::find_if(
      arrival_.begin(), arrival_.end(), [&](const UnexpectedMsgPtr& m) {
        return tags_match(src, tag, m->source, m->tag) && !m->retry_pending &&
               (m->full() || !require_full);
      });
  if (probe_len != nullptr) {
    *probe_len = static_cast<std::size_t>(it - arrival_.begin()) +
                 (it != arrival_.end() ? 1 : 0);
  }
  return it != arrival_.end() ? *it : nullptr;
}

bool UnexpectedQueue::remove(const UnexpectedMsg* msg) {
  const auto it = std::find_if(
      arrival_.begin(), arrival_.end(),
      [&](const UnexpectedMsgPtr& m) { return m.get() == msg; });
  if (it == arrival_.end()) {
    return false;
  }
  arrival_.erase(it);
  return true;
}

std::size_t UnexpectedQueue::remove_if(
    const std::function<bool(const UnexpectedMsgPtr&)>& pred) {
  return std::erase_if(arrival_, pred);
}

}  // namespace cmpi::p2p
