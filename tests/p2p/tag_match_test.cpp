// The two matching queues, driven directly without a universe: posted
// receives are taken in post order and unexpected messages in arrival
// order, whatever mix of wildcards the filters carry.
#include "p2p/tag_match.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "p2p/endpoint.hpp"

namespace cmpi::p2p {
namespace {

RequestPtr request() { return std::make_shared<Request>(); }

UnexpectedMsgPtr message(int source, int tag, std::size_t received) {
  auto msg = std::make_shared<UnexpectedMsg>();
  msg->source = source;
  msg->tag = tag;
  msg->total = 8;
  msg->received = received;
  return msg;
}

TEST(TagMatch, ArrivalsTakePostedReceivesInPostOrder) {
  PostedRecvQueue posted;
  const RequestPtr specific = request();
  const RequestPtr any_source = request();
  const RequestPtr any_both = request();
  posted.post(specific, 2, 7);
  posted.post(any_source, kAnySource, 7);
  posted.post(any_both, kAnySource, kAnyTag);
  ASSERT_EQ(posted.size(), 3u);

  // All three filters accept (2, 7): the earliest posted wins each time.
  std::size_t probe = 0;
  EXPECT_EQ(posted.take_match(2, 7, &probe), specific);
  EXPECT_EQ(probe, 1u);
  EXPECT_EQ(posted.take_match(2, 7, &probe), any_source);
  EXPECT_EQ(probe, 1u);
  EXPECT_EQ(posted.take_match(2, 7, &probe), any_both);
  EXPECT_EQ(probe, 1u);
  EXPECT_EQ(posted.take_match(2, 7, &probe), nullptr);
  EXPECT_EQ(probe, 0u);
  EXPECT_TRUE(posted.empty());
}

TEST(TagMatch, TakeMatchSkipsFiltersThatRejectTheArrival) {
  PostedRecvQueue posted;
  const RequestPtr other_source = request();
  const RequestPtr other_tag = request();
  const RequestPtr any_source = request();
  posted.post(other_source, 1, 7);
  posted.post(other_tag, 2, 8);
  posted.post(any_source, kAnySource, 7);

  // The probe length counts every entry inspected, up to the match.
  std::size_t probe = 0;
  EXPECT_EQ(posted.take_match(2, 7, &probe), any_source);
  EXPECT_EQ(probe, 3u);
  EXPECT_EQ(posted.take_match(3, 9, &probe), nullptr);
  EXPECT_EQ(probe, 2u);
  EXPECT_EQ(posted.size(), 2u);
}

TEST(TagMatch, RepostFrontGoesAheadOfAnEarlierWildcard) {
  PostedRecvQueue posted;
  const RequestPtr wildcard = request();
  const RequestPtr retried = request();
  posted.post(wildcard, kAnySource, kAnyTag);
  posted.repost_front(retried, 1, 4);

  EXPECT_EQ(posted.take_match(1, 4), retried);
  EXPECT_EQ(posted.take_match(1, 4), wildcard);
  EXPECT_TRUE(posted.empty());
}

TEST(TagMatch, RemoveIfReturnsPostOrder) {
  PostedRecvQueue posted;
  std::vector<RequestPtr> reqs;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(request());
  }
  posted.post(reqs[0], 1, 0);
  posted.post(reqs[1], 2, 0);
  posted.post(reqs[2], kAnySource, 0);
  posted.post(reqs[3], 1, 5);
  posted.post(reqs[4], 2, kAnyTag);
  posted.repost_front(reqs[5], 1, 9);

  const std::vector<RequestPtr> picked = {reqs[3], reqs[0], reqs[5],
                                          reqs[2]};
  const std::vector<RequestPtr> taken =
      posted.remove_if([&](const RequestPtr& r) {
        return std::find(picked.begin(), picked.end(), r) != picked.end();
      });
  EXPECT_EQ(taken,
            (std::vector<RequestPtr>{reqs[5], reqs[0], reqs[2], reqs[3]}));
  EXPECT_EQ(posted.size(), 2u);
  EXPECT_EQ(posted.remove(reqs[0].get()), nullptr);
  EXPECT_EQ(posted.remove(reqs[1].get()), reqs[1]);
  EXPECT_EQ(posted.take_match(2, 3), reqs[4]);
  EXPECT_TRUE(posted.empty());
}

TEST(TagMatch, FindMatchSkipsParkedAndPartialMessages) {
  UnexpectedQueue unexpected;
  const UnexpectedMsgPtr other_sender = message(2, 3, 8);
  const UnexpectedMsgPtr parked = message(1, 3, 8);
  parked->retry_pending = true;
  const UnexpectedMsgPtr partial = message(1, 3, 4);
  const UnexpectedMsgPtr whole = message(1, 3, 8);
  for (const UnexpectedMsgPtr& msg : {other_sender, parked, partial, whole}) {
    unexpected.push(msg);
  }

  // A receive takes only a whole message that is not awaiting a
  // retransmission; the probe walks the one arrival-order list.
  std::size_t probe = 0;
  EXPECT_EQ(unexpected.find_match(1, 3, /*require_full=*/true, &probe),
            whole);
  EXPECT_EQ(probe, 4u);
  EXPECT_EQ(unexpected.find_match(1, kAnyTag, /*require_full=*/true), whole);
  // An iprobe reports a message as soon as its first chunk is in.
  EXPECT_EQ(unexpected.find_match(1, 3, /*require_full=*/false, &probe),
            partial);
  EXPECT_EQ(probe, 3u);
  // Wildcards see arrival order across senders.
  EXPECT_EQ(unexpected.find_match(kAnySource, 3, /*require_full=*/true),
            other_sender);
  EXPECT_EQ(unexpected.find_match(3, 3, /*require_full=*/false, &probe),
            nullptr);
  EXPECT_EQ(probe, 4u);
  EXPECT_EQ(unexpected.size(), 4u);  // finding never removes
}

TEST(TagMatch, RemoveOfAnAbsentMessageReturnsFalse) {
  UnexpectedQueue unexpected;
  const UnexpectedMsgPtr queued = message(0, 1, 8);
  const UnexpectedMsgPtr never_queued = message(0, 1, 8);
  unexpected.push(queued);

  EXPECT_FALSE(unexpected.remove(never_queued.get()));
  EXPECT_EQ(unexpected.size(), 1u);
  EXPECT_TRUE(unexpected.remove(queued.get()));
  EXPECT_FALSE(unexpected.remove(queued.get()));
  EXPECT_TRUE(unexpected.empty());
}

}  // namespace
}  // namespace cmpi::p2p
