#include "runtime/seq_barrier.hpp"

#include <algorithm>

namespace cmpi::runtime {

void SeqBarrier::format(cxlsim::Accessor& acc, std::uint64_t base,
                        std::size_t ranks) {
  CMPI_EXPECTS(is_aligned(base, kCacheLineSize));
  for (std::size_t r = 0; r < ranks; ++r) {
    acc.publish_flag(flag(base, r, 0), 0);
    acc.publish_flag(flag(base, r, 1), 0);
  }
}

std::uint64_t SeqBarrier::published(cxlsim::Accessor& acc, std::uint64_t base,
                                    std::size_t rank) {
  return std::max(acc.peek_flag(flag(base, rank, 0)).value,
                  acc.peek_flag(flag(base, rank, 1)).value);
}

void SeqBarrier::enter(cxlsim::Accessor& acc, Doorbell& doorbell) {
  acc.fault_sync_point("barrier-enter");
  ++sequence_;
  acc.publish_flag(flag(base_, my_rank_, sequence_), sequence_);
  doorbell.ring();
  for (std::size_t r = 0; r < ranks_; ++r) {
    if (r == my_rank_) {
      continue;
    }
    cxlsim::Accessor::FlagValue seen{};
    doorbell.wait_until([&] {
      seen = acc.peek_flag(flag(base_, r, sequence_));
      return seen.value >= sequence_;
    });
    acc.absorb_flag(seen);
  }
}

bool SeqBarrier::forge_slot(cxlsim::Accessor& acc, std::uint64_t base,
                            std::size_t ranks, std::size_t dead_rank) {
  CMPI_EXPECTS(dead_rank < ranks);
  std::uint64_t max_seq = 0;
  for (std::size_t r = 0; r < ranks; ++r) {
    if (r == dead_rank) {
      continue;
    }
    max_seq = std::max(max_seq, published(acc, base, r));
  }
  // Forge the latest epoch of each parity up to max_seq (epoch 0 is the
  // format's value).
  bool forged = false;
  for (std::uint64_t back = 0; back < 2 && back < max_seq; ++back) {
    const std::uint64_t epoch = max_seq - back;
    const std::uint64_t dead_flag = flag(base, dead_rank, epoch);
    if (acc.peek_flag(dead_flag).value < epoch) {
      acc.publish_flag(dead_flag, epoch);
      forged = true;
    }
  }
  return forged;
}

Status SeqBarrier::enter_for(cxlsim::Accessor& acc, Doorbell& doorbell,
                             FailureDetector& detector,
                             std::chrono::milliseconds timeout) {
  acc.fault_sync_point("barrier-enter");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  ++sequence_;
  acc.publish_flag(flag(base_, my_rank_, sequence_), sequence_);
  doorbell.ring();
  for (std::size_t r = 0; r < ranks_; ++r) {
    if (r == my_rank_) {
      continue;
    }
    cxlsim::Accessor::FlagValue seen{};
    bool peer_dead = false;
    const bool arrived = doorbell.wait_until(
        [&] {
          detector.beat(acc);
          seen = acc.peek_flag(flag(base_, r, sequence_));
          if (seen.value >= sequence_) {
            return true;
          }
          if (detector.dead(acc, static_cast<int>(r))) {
            peer_dead = true;
            return true;  // stop waiting; reported below
          }
          return false;
        },
        deadline);
    if (peer_dead) {
      return status::peer_failed(
          "barrier: rank " + std::to_string(r) +
          " died before entering epoch " + std::to_string(sequence_));
    }
    if (!arrived) {
      return status::timed_out(
          "barrier: rank " + std::to_string(r) +
          " missing from epoch " + std::to_string(sequence_) +
          " at the deadline");
    }
    acc.absorb_flag(seen);
  }
  return Status::ok();
}

}  // namespace cmpi::runtime
