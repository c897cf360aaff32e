#include "arena/bakery_lock.hpp"

#include <string>
#include <thread>

namespace cmpi::arena {

namespace {
constexpr std::uint64_t kFlagClear = 0;
constexpr std::uint64_t kChoosingSet = 1;
}  // namespace

BakeryLock BakeryLock::format(cxlsim::Accessor& acc, std::uint64_t base,
                              std::size_t max_participants) {
  CMPI_EXPECTS(max_participants > 0);
  CMPI_EXPECTS(max_participants <= kMaxAttachParticipants);
  CMPI_EXPECTS(is_aligned(base, kCacheLineSize));
  acc.nt_store_u64(base, max_participants);
  acc.nt_store_u64(base + kMagicOffset, kMagic);
  BakeryLock lock(base, max_participants);
  for (std::size_t p = 0; p < max_participants; ++p) {
    acc.publish_flag(lock.slot(p) + kChoosingOffset, kFlagClear);
    acc.publish_flag(lock.slot(p) + kNumberOffset, kFlagClear);
  }
  return lock;
}

Result<BakeryLock> BakeryLock::attach(cxlsim::Accessor& acc,
                                      std::uint64_t base) {
  if (!is_aligned(base, kCacheLineSize)) {
    return status::invalid_argument(
        "bakery attach: base " + std::to_string(base) +
        " is not cacheline-aligned");
  }
  const std::uint64_t magic = acc.nt_load_u64(base + kMagicOffset);
  if (magic != kMagic) {
    return status::invalid_argument(
        "bakery attach: no lock formatted at offset " + std::to_string(base) +
        " (magic " + std::to_string(magic) + ", want " +
        std::to_string(kMagic) + ")");
  }
  const std::uint64_t n = acc.nt_load_u64(base);
  if (n == 0 || n > kMaxAttachParticipants) {
    return status::invalid_argument(
        "bakery attach: header at offset " + std::to_string(base) +
        " claims " + std::to_string(n) + " participants (valid: 1.." +
        std::to_string(kMaxAttachParticipants) + ")");
  }
  return BakeryLock(base, static_cast<std::size_t>(n));
}

void BakeryLock::lock(cxlsim::Accessor& acc, std::size_t participant) const {
  check_ok(acquire(acc, participant,
                   std::chrono::steady_clock::time_point::max(), {}, {}));
}

Status BakeryLock::lock_for(cxlsim::Accessor& acc, std::size_t participant,
                            std::chrono::milliseconds timeout,
                            const DeadPredicate& peer_dead,
                            const std::function<void()>& beat) const {
  return acquire(acc, participant, std::chrono::steady_clock::now() + timeout,
                 peer_dead, beat);
}

Status BakeryLock::acquire(cxlsim::Accessor& acc, std::size_t participant,
                           std::chrono::steady_clock::time_point deadline,
                           const DeadPredicate& peer_dead,
                           const std::function<void()>& beat) const {
  CMPI_EXPECTS(participant < max_participants_);
  // Doorway: pick a ticket one greater than every ticket currently drawn.
  // The scan is bounded; only the waits below can block.
  acc.publish_flag(slot(participant) + kChoosingOffset, kChoosingSet);
  std::uint64_t max_ticket = 0;
  for (std::size_t j = 0; j < max_participants_; ++j) {
    const auto number = acc.peek_flag(slot(j) + kNumberOffset);
    max_ticket = std::max(max_ticket, number.value);
  }
  const std::uint64_t my_ticket = max_ticket + 1;
  acc.publish_flag(slot(participant) + kNumberOffset, my_ticket);
  acc.publish_flag(slot(participant) + kChoosingOffset, kFlagClear);

  // Shared cleanup for the timeout path: withdraw our own ticket so later
  // acquirers don't wait behind a caller that gave up.
  const auto give_up = [&](std::size_t stuck_behind) {
    acc.publish_flag(slot(participant) + kNumberOffset, kFlagClear);
    return status::timed_out(
        "bakery lock_for: participant " + std::to_string(participant) +
        " gave up waiting behind participant " +
        std::to_string(stuck_behind));
  };
  const auto wait_tick = [&](std::size_t j) {
    if (peer_dead && peer_dead(j)) {
      // Break the dead participant's doorway and ticket. Its rank is
      // fenced off (sticky verdict), so these slots have no writer left;
      // clearing them is what lets the bakery queue drain past a crash.
      // The caller re-peeks at once instead of yielding.
      acc.publish_flag(slot(j) + kChoosingOffset, kFlagClear);
      acc.publish_flag(slot(j) + kNumberOffset, kFlagClear);
      return;
    }
    if (beat) {
      beat();
    }
    std::this_thread::yield();
  };

  // Wait for every lower-priority ticket holder.
  for (std::size_t j = 0; j < max_participants_; ++j) {
    if (j == participant) {
      continue;
    }
    // First wait until j is out of the doorway.
    for (;;) {
      const auto choosing = acc.peek_flag(slot(j) + kChoosingOffset);
      if (choosing.value == kFlagClear) {
        acc.absorb_flag(choosing);
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return give_up(j);
      }
      wait_tick(j);
    }
    // Then wait until j either is not competing or has lower priority
    // (larger ticket, or equal ticket and larger id).
    for (;;) {
      const auto number = acc.peek_flag(slot(j) + kNumberOffset);
      const bool j_waits_behind =
          number.value == kFlagClear || number.value > my_ticket ||
          (number.value == my_ticket && j > participant);
      if (j_waits_behind) {
        acc.absorb_flag(number);
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return give_up(j);
      }
      wait_tick(j);
    }
  }
  acc.fault_sync_point("lock-acquired");
  return Status::ok();
}

void BakeryLock::unlock(cxlsim::Accessor& acc, std::size_t participant) const {
  CMPI_EXPECTS(participant < max_participants_);
  acc.publish_flag(slot(participant) + kNumberOffset, kFlagClear);
}

bool BakeryLock::participant_active(cxlsim::Accessor& acc,
                                    std::size_t participant) const {
  CMPI_EXPECTS(participant < max_participants_);
  return acc.peek_flag(slot(participant) + kChoosingOffset).value !=
             kFlagClear ||
         acc.peek_flag(slot(participant) + kNumberOffset).value != kFlagClear;
}

bool BakeryLock::break_participant(cxlsim::Accessor& acc,
                                   std::size_t participant) const {
  CMPI_EXPECTS(participant < max_participants_);
  const bool was_active = participant_active(acc, participant);
  if (was_active) {
    acc.publish_flag(slot(participant) + kChoosingOffset, kFlagClear);
    acc.publish_flag(slot(participant) + kNumberOffset, kFlagClear);
  }
  return was_active;
}

}  // namespace cmpi::arena
