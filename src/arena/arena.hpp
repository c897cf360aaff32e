// CXL SHM Arena (paper §3.1): user-space management of named shared-memory
// objects over the raw dax pool.
//
// The dax device is just a flat byte range — no files, no directory, no
// lifecycle. The Arena imposes:
//
//   [ header | bakery lock | metadata slots (multi-level hash) | shm_objects ]
//
// * header      — geometry + allocator root, written at format time.
// * bakery lock — serializes create/destroy/refcount updates across nodes
//                 (the pool has no cross-host atomics).
// * metadata    — a fixed-capacity multi-level hash of 128-byte slots, one
//                 slot per bucket; a name probes one slot per level. Lookups
//                 are lock-free; insertions take the lock.
// * shm_objects — object payloads, managed by an address-ordered first-fit
//                 free list with coalescing; blocks are cacheline-aligned
//                 (§3.7) so object flushes never false-share.
//
// Every word of arena state lives in CXL SHM and is accessed with the §3.5
// coherence discipline (coherent_write after mutation, coherent_read before
// inspection), so arenas work across simulated nodes and across forked
// processes alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "arena/bakery_lock.hpp"
#include "arena/multilevel_hash.hpp"
#include "common/status.hpp"
#include "cxlsim/accessor.hpp"

namespace cmpi::arena {

/// An opened/created SHM object. Offsets are relative to the arena base
/// (the paper stores base-relative offsets so every process can apply its
/// own mmap address); pool_offset is the absolute pool address for use
/// with an Accessor.
struct ObjectHandle {
  std::string name;
  std::uint64_t arena_offset = 0;
  std::uint64_t pool_offset = 0;
  std::uint64_t size = 0;
  std::size_t slot_index = 0;
  bool open = false;
};

/// Who is responsible for an object's storage after a crash.
/// * kOwned  — the object belongs to the creating participant; when that
///             participant is convicted dead, PoolRecovery::scavenge frees
///             the slot and its bytes.
/// * kShared — communication infrastructure (queue matrix, RMA window)
///             that must survive any single member's death; scavenge
///             leaves it alone.
enum class Ownership { kOwned, kShared };

/// Name prefix of the p2p layer's rendezvous payload slots (large-message
/// one-copy path; see p2p::Endpoint). The arena treats names as opaque
/// except in scavenge_locked, which counts reclaimed slots carrying this
/// prefix so pool recovery can report how many in-flight large-message
/// payloads died with a rank.
inline constexpr std::string_view kRendezvousNamePrefix = "cmpi.rdvz.";

class Arena {
 public:
  struct Params {
    std::size_t levels = 10;
    std::size_t level1_buckets = 1009;  ///< paper production value: 200,000
    std::size_t max_participants = 64;  ///< bakery lock width
  };

  /// Format a fresh arena occupying [base, base + size) of the pool and
  /// attach to it. Exactly one caller formats; everyone else attaches.
  /// `incarnation` stamps objects this participant creates (bumped by
  /// Universe::respawn after a crash; 0 for standalone arenas).
  static Result<Arena> format(cxlsim::Accessor& acc, std::uint64_t base,
                              std::uint64_t size, std::size_t participant,
                              const Params& params,
                              std::uint64_t incarnation = 0);

  /// Attach to an arena formatted by another rank/process. Validates the
  /// on-pool free list with a bounded walk (block count can never exceed
  /// objects_size / cacheline) and fails with kCorruptPool for a cyclic,
  /// out-of-bounds or magic-less chain — an unbounded walk would hang on
  /// exactly the corruption a crashed writer leaves behind. The walk
  /// holds the arena lock, so it never sees a create/destroy half done;
  /// `peer_dead` lets the lock wait break a convicted corpse's ticket
  /// (see BakeryLock::lock_for).
  static Result<Arena> attach(cxlsim::Accessor& acc, std::uint64_t base,
                              std::size_t participant,
                              std::uint64_t incarnation = 0,
                              const BakeryLock::DeadPredicate& peer_dead = {});

  /// Create a new named object of `size` bytes (rounded up to cacheline).
  /// Fails with kAlreadyExists, kCapacityExceeded (all hash levels taken
  /// for this name) or kOutOfMemory (no free block). kOwned objects are
  /// reclaimed by scavenge when this participant dies; pass kShared for
  /// infrastructure that must outlive any one member.
  Result<ObjectHandle> create(std::string_view name, std::uint64_t size,
                              Ownership ownership = Ownership::kOwned);

  /// Open an existing object by name. Lock-free probe; takes the lock only
  /// to bump the refcount.
  Result<ObjectHandle> open(std::string_view name);

  /// Drop a reference taken by create/open.
  Status close(ObjectHandle& handle);

  /// Remove the object's name and free its space. Like shm_unlink, this is
  /// valid while other ranks hold handles — their handles dangle, exactly
  /// the hazard the real system has. Closes `handle` too.
  Status destroy(ObjectHandle& handle);

  /// Deadline-bounded create/destroy for callers on a data path that must
  /// not block forever behind a crashed lock holder (the p2p rendezvous
  /// path allocates per-message slots). Waits at most `timeout` for the
  /// arena lock and returns kTimedOut on expiry; `peer_dead`, when given,
  /// lets the wait break a convicted corpse's ticket instead of timing
  /// out, and `beat` runs on each blocked wait iteration so a caller
  /// queued behind live holders stays visibly alive (see
  /// BakeryLock::lock_for).
  Result<ObjectHandle> create_for(
      std::string_view name, std::uint64_t size, Ownership ownership,
      std::chrono::milliseconds timeout,
      const BakeryLock::DeadPredicate& peer_dead = {},
      const std::function<void()>& beat = {});
  Status destroy_for(ObjectHandle& handle, std::chrono::milliseconds timeout,
                     const BakeryLock::DeadPredicate& peer_dead = {},
                     const std::function<void()>& beat = {});

  // --- Introspection (tests, stats) ---
  [[nodiscard]] const MultilevelHash& index() const noexcept { return index_; }
  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t objects_offset() const noexcept {
    return objects_offset_;
  }
  [[nodiscard]] std::uint64_t objects_size() const noexcept {
    return objects_size_;
  }
  /// Total bytes currently on the free list (walks it; takes the lock).
  std::uint64_t free_bytes();
  /// Number of occupied metadata slots (full scan; test helper).
  std::uint64_t used_slots();

  /// The lock serializing arena mutations. Exposed so PoolRecovery can
  /// hold one critical section across reclamation + its recovery ledger.
  [[nodiscard]] BakeryLock& shm_lock() noexcept { return lock_; }
  [[nodiscard]] std::size_t participant() const noexcept {
    return participant_;
  }

  /// What scavenge_locked reclaimed.
  struct ScavengeStats {
    std::uint64_t bytes = 0;  ///< object bytes returned to the free list
    std::uint64_t slots = 0;  ///< metadata slots freed
    /// Of `slots`, how many were in-flight rendezvous payload slots
    /// (names starting with kRendezvousNamePrefix).
    std::uint64_t rendezvous_slots = 0;
  };

  /// Reclaim every kOwned object created by `dead_participant` under an
  /// incarnation <= `dead_incarnation` (a respawned rank's newer objects
  /// are left alone). Full slot-table walk; the CALLER must hold the
  /// arena lock — PoolRecovery wraps this together with its exactly-once
  /// ledger update in one critical section. `beat` runs every
  /// kScavengeBeatSlots slots: the walk reads thousands of slots while
  /// peers wait on the lock and judge the holder by its heartbeat (pass
  /// FailureDetector::beat, which is throttled).
  ScavengeStats scavenge_locked(std::size_t dead_participant,
                                std::uint64_t dead_incarnation,
                                const std::function<void()>& beat);
  static constexpr std::size_t kScavengeBeatSlots = 64;

  /// Bytes of metadata overhead for a given Params and arena size
  /// (everything before shm_objects).
  static std::uint64_t metadata_footprint(const Params& params);

  /// Maximum object name length (NUL excluded).
  static constexpr std::size_t kMaxNameLen = 47;

 private:
  // ---- On-pool structures (trivially copyable, fixed layout) ----
  struct Header {
    std::uint64_t magic;
    std::uint64_t version;
    std::uint64_t arena_size;
    std::uint64_t levels;
    std::uint64_t level1_buckets;
    std::uint64_t slots_total;
    std::uint64_t lock_offset;     // from base
    std::uint64_t slots_offset;    // from base
    std::uint64_t objects_offset;  // from base
    std::uint64_t objects_size;
    std::uint64_t free_head;       // from base; 0 = empty list
    std::uint64_t max_participants;
  };

  struct Slot {
    std::uint64_t status;  // 0 free, 1 used
    std::uint64_t name_hash;
    std::uint64_t offset;  // from base
    std::uint64_t size;
    std::uint64_t refcount;
    std::uint64_t owner_rank;         // kNoOwner for kShared objects
    std::uint64_t owner_incarnation;  // creator's incarnation at create
    char name[kMaxNameLen + 1];
    char pad[128 - 7 * sizeof(std::uint64_t) - (kMaxNameLen + 1)];
  };
  static_assert(sizeof(Slot) == 128);

  /// owner_rank value marking an object nobody's death reclaims.
  static constexpr std::uint64_t kNoOwner = ~std::uint64_t{0};

  struct FreeBlock {
    std::uint64_t magic;
    std::uint64_t size;
    std::uint64_t next;  // from base; 0 = end
  };

  static constexpr std::uint64_t kHeaderMagic = 0x43584C4152454E41ULL;
  static constexpr std::uint64_t kFreeMagic = 0x46524545424C4BULL;
  // v2: Slot carries owner_rank + owner_incarnation for PoolRecovery.
  static constexpr std::uint64_t kVersion = 2;
  static constexpr std::uint64_t kSlotUsed = 1;
  static constexpr std::uint64_t kSlotFree = 0;

  Arena(cxlsim::Accessor& acc, std::uint64_t base, std::size_t participant,
        std::uint64_t incarnation, const Header& header, MultilevelHash index,
        BakeryLock lock_view);

  /// Bounded structural scan of the free list starting at
  /// `header.free_head`. The caller holds the arena lock and read
  /// `header` under it.
  static Status validate_free_list(cxlsim::Accessor& acc, std::uint64_t base,
                                   const Header& header);

  /// Renders a corrupt slot for fsck diagnostics: pool-absolute offset plus
  /// the owning arena's base and object region, so multi-tenant operators
  /// can attribute corruption without replaying the walk.
  static std::string fsck_location(std::uint64_t base, const Header& header,
                                   std::uint64_t at);

  // Raw pool IO for the fixed structures.
  Header read_header();
  void write_free_head(std::uint64_t value);
  Slot read_slot(std::size_t slot_index);
  void write_slot(std::size_t slot_index, const Slot& slot);
  FreeBlock read_free_block(std::uint64_t offset_from_base);
  void write_free_block(std::uint64_t offset_from_base, const FreeBlock& block);
  [[nodiscard]] std::uint64_t slot_pool_offset(std::size_t slot_index) const;

  /// First-fit allocation from the free list. Caller holds the lock.
  /// Returns base-relative offset.
  /// create/destroy bodies, run with the arena lock already held.
  Result<ObjectHandle> create_locked(std::string_view name, std::uint64_t size,
                                     Ownership ownership);
  Status destroy_locked(ObjectHandle& handle);

  Result<std::uint64_t> allocate_locked(std::uint64_t size);
  /// Address-ordered free with coalescing. Caller holds the lock.
  void free_locked(std::uint64_t offset_from_base, std::uint64_t size);

  /// Probe result for a name.
  struct Probe {
    std::optional<std::size_t> found;       // slot with matching used name
    std::optional<std::size_t> first_free;  // first free slot on the path
  };
  Probe probe(std::string_view name, std::uint64_t name_hash);

  ObjectHandle make_handle(std::string_view name, std::size_t slot_index,
                           const Slot& slot) const;

  cxlsim::Accessor* acc_;
  std::uint64_t base_;
  std::size_t participant_;
  std::uint64_t incarnation_;
  std::uint64_t slots_offset_;
  std::uint64_t objects_offset_;
  std::uint64_t objects_size_;
  MultilevelHash index_;
  BakeryLock lock_;
};

}  // namespace cmpi::arena
