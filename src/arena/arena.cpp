#include "arena/arena.hpp"

#include <cstdio>
#include <cstring>

#include "common/align.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "cxlsim/coherence_checker.hpp"
#include "obs/obs.hpp"

namespace cmpi::arena {

namespace {

template <typename T>
void read_pod(cxlsim::Accessor& acc, std::uint64_t pool_offset, T& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  acc.coherent_read(pool_offset,
                    {reinterpret_cast<std::byte*>(&out), sizeof(T)});
}

template <typename T>
void write_pod(cxlsim::Accessor& acc, std::uint64_t pool_offset, const T& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  acc.coherent_write(pool_offset,
                     {reinterpret_cast<const std::byte*>(&in), sizeof(T)});
}

}  // namespace

std::uint64_t Arena::metadata_footprint(const Params& params) {
  const auto index = MultilevelHash::create(params.levels,
                                            params.level1_buckets);
  CMPI_EXPECTS(index.is_ok());
  const std::uint64_t header = align_up(sizeof(Header), kCacheLineSize);
  const std::uint64_t lock = BakeryLock::footprint(params.max_participants);
  const std::uint64_t slots = index.value().total_slots() * sizeof(Slot);
  return align_up(header + lock + slots, kCacheLineSize);
}

Result<Arena> Arena::format(cxlsim::Accessor& acc, std::uint64_t base,
                            std::uint64_t size, std::size_t participant,
                            const Params& params,
                            std::uint64_t incarnation) {
  if (!is_aligned(base, kCacheLineSize)) {
    return status::invalid_argument("arena base must be cacheline aligned");
  }
  auto index = MultilevelHash::create(params.levels, params.level1_buckets);
  if (!index.is_ok()) {
    return index.status();
  }
  const std::uint64_t header_bytes = align_up(sizeof(Header), kCacheLineSize);
  const std::uint64_t lock_offset = header_bytes;
  const std::uint64_t slots_offset =
      lock_offset + BakeryLock::footprint(params.max_participants);
  const std::uint64_t slots_bytes = index.value().total_slots() * sizeof(Slot);
  const std::uint64_t objects_offset =
      align_up(slots_offset + slots_bytes, kCacheLineSize);
  if (objects_offset + kCacheLineSize > size) {
    return status::invalid_argument(
        "arena too small for its metadata (need > " +
        std::to_string(objects_offset) + " bytes)");
  }

  Header header{};
  header.magic = kHeaderMagic;
  header.version = kVersion;
  header.arena_size = size;
  header.levels = params.levels;
  header.level1_buckets = params.level1_buckets;
  header.slots_total = index.value().total_slots();
  header.lock_offset = lock_offset;
  header.slots_offset = slots_offset;
  header.objects_offset = objects_offset;
  header.objects_size = align_down(size - objects_offset, kCacheLineSize);
  header.free_head = objects_offset;
  header.max_participants = params.max_participants;

  // Zero the slot region (status == free) by handing its pages back:
  // fresh devices and recycled tenant regions alike read clean, and the
  // charge is what NT stores of the zeros would cost.
  acc.discard(base + slots_offset, slots_bytes);
  acc.sfence();

  const BakeryLock lock_view =
      BakeryLock::format(acc, base + lock_offset, params.max_participants);

  // One free block spanning the whole object region.
  FreeBlock initial{};
  initial.magic = kFreeMagic;
  initial.size = header.objects_size;
  initial.next = 0;
  write_pod(acc, base + objects_offset, initial);

  // Header last: attachers spin on the magic.
  write_pod(acc, base, header);

  log_info("arena: formatted at %#lx: %lu slots over %lu levels, %lu MiB objects",
           static_cast<unsigned long>(base),
           static_cast<unsigned long>(header.slots_total),
           static_cast<unsigned long>(header.levels),
           static_cast<unsigned long>(header.objects_size >> 20));
  return Arena(acc, base, participant, incarnation, header,
               std::move(index).value(), lock_view);
}

namespace {

/// How long attach waits for the arena lock before giving up. Holders
/// only split or merge a few blocks; a dead holder's ticket is broken
/// when attach's caller can convict it.
constexpr std::chrono::seconds kAttachLockTimeout{30};

/// Hex rendering for fsck diagnostics (pool offsets read naturally in hex).
std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

std::string Arena::fsck_location(std::uint64_t base, const Header& header,
                                 std::uint64_t at) {
  // Self-locating diagnostic: the corrupt slot's pool-absolute offset plus
  // the owning region, so a multi-tenant operator can attribute the
  // corruption to one tenant's arena without replaying the walk.
  return "free block at pool offset " + hex(base + at) + " (arena base " +
         hex(base) + ", object region [" + hex(base + header.objects_offset) +
         ", " + hex(base + header.objects_offset + header.objects_size) + "))";
}

Status Arena::validate_free_list(cxlsim::Accessor& acc, std::uint64_t base,
                                 const Header& header) {
  // Every free block is at least one cacheline, so a healthy list can
  // never have more blocks than this; a walk longer than the bound has a
  // cycle even if the address-order check were somehow defeated.
  const std::uint64_t max_blocks = header.objects_size / kCacheLineSize;
  std::uint64_t at = header.free_head;
  std::uint64_t prev = 0;
  std::uint64_t steps = 0;
  while (at != 0) {
    if (++steps > max_blocks) {
      return status::corrupt_pool(
          "free list longer than the object region can hold: cycle "
          "suspected, last link " + fsck_location(base, header, at));
    }
    if (at < header.objects_offset ||
        at + sizeof(FreeBlock) > header.objects_offset + header.objects_size ||
        !is_aligned(at, kCacheLineSize)) {
      return status::corrupt_pool(fsck_location(base, header, at) +
                                  " outside the object region");
    }
    if (at <= prev) {
      // The list is address-ordered by construction; a backward or
      // self-referencing link is a cycle or a torn write.
      return status::corrupt_pool("free list not address-ordered at " +
                                  fsck_location(base, header, at));
    }
    FreeBlock block{};
    read_pod(acc, base + at, block);
    if (block.magic != kFreeMagic) {
      return status::corrupt_pool(fsck_location(base, header, at) +
                                  " has a bad magic");
    }
    if (block.size < kCacheLineSize ||
        at + block.size > header.objects_offset + header.objects_size) {
      return status::corrupt_pool(fsck_location(base, header, at) +
                                  " has an impossible size " +
                                  std::to_string(block.size));
    }
    prev = at;
    at = block.next;
  }
  return Status::ok();
}

Result<Arena> Arena::attach(cxlsim::Accessor& acc, std::uint64_t base,
                            std::size_t participant, std::uint64_t incarnation,
                            const BakeryLock::DeadPredicate& peer_dead) {
  Header header{};
  {
    // Lock-free read of the fields format() wrote once; it may race a
    // locked writer rewriting free_head, which is re-read under the lock.
    cxlsim::CoherenceChecker::ToleranceScope tolerate_unlocked_header;
    read_pod(acc, base, header);
  }
  if (header.magic != kHeaderMagic) {
    return status::not_found("no arena formatted at this base");
  }
  if (header.version != kVersion) {
    return status::invalid_argument("arena version mismatch");
  }
  auto index = MultilevelHash::create(header.levels, header.level1_buckets);
  if (!index.is_ok()) {
    return index.status();
  }
  Result<BakeryLock> lock_view =
      BakeryLock::attach(acc, base + header.lock_offset);
  if (!lock_view.is_ok()) {
    return lock_view.status();
  }
  // Walk the free list under the lock create/destroy hold: a lock-free
  // walk can catch a block split or merge half done and report it as
  // corruption.
  if (Status locked = lock_view.value().lock_for(
          acc, participant, kAttachLockTimeout, peer_dead);
      !locked.is_ok()) {
    return locked;
  }
  read_pod(acc, base, header);
  const Status fsck = validate_free_list(acc, base, header);
  lock_view.value().unlock(acc, participant);
  if (!fsck.is_ok()) {
    CMPI_OBS_INSTANT("arena.fsck_failed");
    CMPI_OBS_FLIGHT("arena: attach found a corrupt free list");
    return fsck;
  }
  return Arena(acc, base, participant, incarnation, header,
               std::move(index).value(), std::move(lock_view).value());
}

Arena::Arena(cxlsim::Accessor& acc, std::uint64_t base,
             std::size_t participant, std::uint64_t incarnation,
             const Header& header, MultilevelHash index, BakeryLock lock_view)
    : acc_(&acc),
      base_(base),
      participant_(participant),
      incarnation_(incarnation),
      slots_offset_(header.slots_offset),
      objects_offset_(header.objects_offset),
      objects_size_(header.objects_size),
      index_(std::move(index)),
      lock_(lock_view) {}

Arena::Header Arena::read_header() {
  Header header{};
  read_pod(*acc_, base_, header);
  return header;
}

void Arena::write_free_head(std::uint64_t value) {
  Header header = read_header();
  header.free_head = value;
  write_pod(*acc_, base_, header);
}

std::uint64_t Arena::slot_pool_offset(std::size_t slot_index) const {
  return base_ + slots_offset_ + slot_index * sizeof(Slot);
}

Arena::Slot Arena::read_slot(std::size_t slot_index) {
  Slot slot{};
  read_pod(*acc_, slot_pool_offset(slot_index), slot);
  return slot;
}

void Arena::write_slot(std::size_t slot_index, const Slot& slot) {
  write_pod(*acc_, slot_pool_offset(slot_index), slot);
}

Arena::FreeBlock Arena::read_free_block(std::uint64_t offset_from_base) {
  FreeBlock block{};
  read_pod(*acc_, base_ + offset_from_base, block);
  CMPI_ASSERT(block.magic == kFreeMagic);
  return block;
}

void Arena::write_free_block(std::uint64_t offset_from_base,
                             const FreeBlock& block) {
  write_pod(*acc_, base_ + offset_from_base, block);
}

Arena::Probe Arena::probe(std::string_view name, std::uint64_t name_hash) {
  Probe result;
  for (std::size_t level = 0; level < index_.levels(); ++level) {
    const std::size_t slot_index = index_.slot_of(name, level);
    const Slot slot = read_slot(slot_index);
    if (slot.status == kSlotUsed) {
      if (slot.name_hash == name_hash &&
          name == std::string_view(slot.name)) {
        result.found = slot_index;
        return result;
      }
    } else if (!result.first_free.has_value()) {
      result.first_free = slot_index;
    }
  }
  return result;
}

ObjectHandle Arena::make_handle(std::string_view name, std::size_t slot_index,
                                const Slot& slot) const {
  ObjectHandle handle;
  handle.name = std::string(name);
  handle.arena_offset = slot.offset;
  handle.pool_offset = base_ + slot.offset;
  handle.size = slot.size;
  handle.slot_index = slot_index;
  handle.open = true;
  return handle;
}

namespace {

Status validate_create_args(std::string_view name, std::uint64_t size) {
  if (name.empty() || name.size() > Arena::kMaxNameLen) {
    return status::invalid_argument("object name must be 1.." +
                                    std::to_string(Arena::kMaxNameLen) +
                                    " chars");
  }
  if (size == 0) {
    return status::invalid_argument("object size must be nonzero");
  }
  return Status::ok();
}

/// lock_for demands a verdict for every participant it may wait behind;
/// callers without a failure detector wait the full deadline.
bool nobody_dead(std::size_t) { return false; }

}  // namespace

Result<ObjectHandle> Arena::create(std::string_view name, std::uint64_t size,
                                   Ownership ownership) {
  if (Status valid = validate_create_args(name, size); !valid.is_ok()) {
    return valid;
  }
  BakeryLock::Guard guard(lock_, *acc_, participant_);
  return create_locked(name, size, ownership);
}

Result<ObjectHandle> Arena::create_for(
    std::string_view name, std::uint64_t size, Ownership ownership,
    std::chrono::milliseconds timeout,
    const BakeryLock::DeadPredicate& peer_dead,
    const std::function<void()>& beat) {
  if (Status valid = validate_create_args(name, size); !valid.is_ok()) {
    return valid;
  }
  if (Status locked = lock_.lock_for(*acc_, participant_, timeout,
                                     peer_dead ? peer_dead : nobody_dead,
                                     beat);
      !locked.is_ok()) {
    return locked;
  }
  Result<ObjectHandle> out = create_locked(name, size, ownership);
  lock_.unlock(*acc_, participant_);
  return out;
}

Result<ObjectHandle> Arena::create_locked(std::string_view name,
                                          std::uint64_t size,
                                          Ownership ownership) {
  const std::uint64_t name_hash = hash_string(name);
  const std::uint64_t alloc_size = align_up(size, kCacheLineSize);
  const Probe where = probe(name, name_hash);
  if (where.found.has_value()) {
    return status::already_exists("object '" + std::string(name) +
                                  "' already exists");
  }
  if (!where.first_free.has_value()) {
    return status::capacity_exceeded(
        "all hash levels occupied for object '" + std::string(name) + "'");
  }
  auto offset = allocate_locked(alloc_size);
  if (!offset.is_ok()) {
    return offset.status();
  }

  Slot slot{};
  slot.status = kSlotUsed;
  slot.name_hash = name_hash;
  slot.offset = offset.value();
  slot.size = size;
  slot.refcount = 1;
  slot.owner_rank = ownership == Ownership::kShared
                        ? kNoOwner
                        : static_cast<std::uint64_t>(participant_);
  slot.owner_incarnation = incarnation_;
  std::memcpy(slot.name, name.data(), name.size());
  write_slot(*where.first_free, slot);
  return make_handle(name, *where.first_free, slot);
}

Result<ObjectHandle> Arena::open(std::string_view name) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return status::invalid_argument("bad object name");
  }
  const std::uint64_t name_hash = hash_string(name);
  // Lock-free probe (paper: lookups are parallel). The refcount bump takes
  // the lock and re-validates, so racing a locked writer's transient dirty
  // window is benign — tell the coherence checker to tolerate it.
  Probe where;
  {
    cxlsim::CoherenceChecker::ToleranceScope tolerate_optimistic_probe;
    where = probe(name, name_hash);
  }
  if (!where.found.has_value()) {
    return status::not_found("object '" + std::string(name) + "' not found");
  }
  BakeryLock::Guard guard(lock_, *acc_, participant_);
  Slot slot = read_slot(*where.found);
  if (slot.status != kSlotUsed || slot.name_hash != name_hash ||
      name != std::string_view(slot.name)) {
    return status::not_found("object '" + std::string(name) +
                             "' vanished during open");
  }
  slot.refcount += 1;
  write_slot(*where.found, slot);
  return make_handle(name, *where.found, slot);
}

Status Arena::close(ObjectHandle& handle) {
  if (!handle.open) {
    return status::closed("handle already closed");
  }
  BakeryLock::Guard guard(lock_, *acc_, participant_);
  Slot slot = read_slot(handle.slot_index);
  if (slot.status == kSlotUsed && slot.refcount > 0) {
    slot.refcount -= 1;
    write_slot(handle.slot_index, slot);
  }
  handle.open = false;
  return Status::ok();
}

Status Arena::destroy(ObjectHandle& handle) {
  if (!handle.open) {
    return status::closed("handle already closed");
  }
  BakeryLock::Guard guard(lock_, *acc_, participant_);
  return destroy_locked(handle);
}

Status Arena::destroy_for(ObjectHandle& handle,
                          std::chrono::milliseconds timeout,
                          const BakeryLock::DeadPredicate& peer_dead,
                          const std::function<void()>& beat) {
  if (!handle.open) {
    return status::closed("handle already closed");
  }
  if (Status locked = lock_.lock_for(*acc_, participant_, timeout,
                                     peer_dead ? peer_dead : nobody_dead,
                                     beat);
      !locked.is_ok()) {
    return locked;
  }
  Status out = destroy_locked(handle);
  lock_.unlock(*acc_, participant_);
  return out;
}

Status Arena::destroy_locked(ObjectHandle& handle) {
  Slot slot = read_slot(handle.slot_index);
  if (slot.status != kSlotUsed ||
      handle.name != std::string_view(slot.name)) {
    handle.open = false;
    return status::not_found("object '" + handle.name +
                             "' already destroyed");
  }
  const std::uint64_t alloc_size = align_up(slot.size, kCacheLineSize);
  slot.status = kSlotFree;
  slot.refcount = 0;
  write_slot(handle.slot_index, slot);
  free_locked(slot.offset, alloc_size);
  handle.open = false;
  return Status::ok();
}

Result<std::uint64_t> Arena::allocate_locked(std::uint64_t size) {
  CMPI_EXPECTS(is_aligned(size, kCacheLineSize));
  Header header = read_header();
  std::uint64_t prev = 0;  // 0 = head pointer itself
  std::uint64_t at = header.free_head;
  while (at != 0) {
    FreeBlock block = read_free_block(at);
    if (block.size >= size) {
      std::uint64_t replacement;
      if (block.size >= size + kCacheLineSize) {
        // Split: the remainder becomes the free block.
        const std::uint64_t rest = at + size;
        FreeBlock remainder{kFreeMagic, block.size - size, block.next};
        write_free_block(rest, remainder);
        replacement = rest;
      } else {
        replacement = block.next;
      }
      if (prev == 0) {
        header.free_head = replacement;
        write_pod(*acc_, base_, header);
      } else {
        FreeBlock prev_block = read_free_block(prev);
        prev_block.next = replacement;
        write_free_block(prev, prev_block);
      }
      return at;
    }
    prev = at;
    at = block.next;
  }
  return status::out_of_memory("arena object region exhausted");
}

void Arena::free_locked(std::uint64_t offset_from_base, std::uint64_t size) {
  CMPI_EXPECTS(is_aligned(size, kCacheLineSize));
  CMPI_EXPECTS(offset_from_base >= objects_offset_);
  CMPI_EXPECTS(offset_from_base + size <= objects_offset_ + objects_size_);
  Header header = read_header();

  // Find the address-ordered insertion point.
  std::uint64_t prev = 0;
  std::uint64_t next = header.free_head;
  while (next != 0 && next < offset_from_base) {
    prev = next;
    next = read_free_block(next).next;
  }

  std::uint64_t block_offset = offset_from_base;
  std::uint64_t block_size = size;

  // Coalesce with the following block.
  if (next != 0 && offset_from_base + size == next) {
    const FreeBlock next_block = read_free_block(next);
    block_size += next_block.size;
    next = next_block.next;
  }

  // Coalesce with the preceding block, else link from it (or the head).
  if (prev != 0) {
    FreeBlock prev_block = read_free_block(prev);
    if (prev + prev_block.size == block_offset) {
      prev_block.size += block_size;
      prev_block.next = next;
      write_free_block(prev, prev_block);
      return;
    }
    prev_block.next = block_offset;
    write_free_block(prev, prev_block);
  } else {
    header.free_head = block_offset;
    write_pod(*acc_, base_, header);
  }
  write_free_block(block_offset, FreeBlock{kFreeMagic, block_size, next});
}

std::uint64_t Arena::free_bytes() {
  BakeryLock::Guard guard(lock_, *acc_, participant_);
  std::uint64_t total = 0;
  std::uint64_t at = read_header().free_head;
  while (at != 0) {
    const FreeBlock block = read_free_block(at);
    total += block.size;
    at = block.next;
  }
  return total;
}

Arena::ScavengeStats Arena::scavenge_locked(
    std::size_t dead_participant, std::uint64_t dead_incarnation,
    const std::function<void()>& beat) {
  ScavengeStats stats;
  const std::uint64_t dead = static_cast<std::uint64_t>(dead_participant);
  for (std::size_t i = 0; i < index_.total_slots(); ++i) {
    if (i % kScavengeBeatSlots == 0) {
      beat();
    }
    Slot slot = read_slot(i);
    if (slot.status != kSlotUsed || slot.owner_rank != dead ||
        slot.owner_incarnation > dead_incarnation) {
      continue;
    }
    const std::uint64_t alloc_size = align_up(slot.size, kCacheLineSize);
    if (std::strncmp(slot.name, kRendezvousNamePrefix.data(),
                     kRendezvousNamePrefix.size()) == 0) {
      stats.rendezvous_slots += 1;
    }
    slot.status = kSlotFree;
    slot.refcount = 0;
    write_slot(i, slot);
    free_locked(slot.offset, alloc_size);
    stats.bytes += alloc_size;
    stats.slots += 1;
  }
  return stats;
}

std::uint64_t Arena::used_slots() {
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < index_.total_slots(); ++i) {
    if (read_slot(i).status == kSlotUsed) {
      ++used;
    }
  }
  return used;
}

}  // namespace cmpi::arena
