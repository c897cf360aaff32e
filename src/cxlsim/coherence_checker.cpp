#include "cxlsim/coherence_checker.hpp"

#include <algorithm>
#include <cstdio>

namespace cmpi::cxlsim {

namespace {

/// Rank attribution and stale-tolerance are per *thread*: a rank thread is
/// the unit that owns an Accessor, and suppression scopes must not leak
/// across ranks.
thread_local int tls_rank = -1;
thread_local int tls_tolerate_stale = 0;

std::uint64_t line_of(std::uint64_t offset) noexcept {
  return align_down(offset, kCacheLineSize);
}

}  // namespace

std::string_view CoherenceChecker::kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kStaleRead:
      return "stale-read";
    case Kind::kLostUpdate:
      return "lost-update";
    case Kind::kTornPublish:
      return "torn-publish";
    case Kind::kFenceOrder:
      return "fence-order";
  }
  return "unknown";
}

void CoherenceChecker::set_current_rank(int rank) noexcept { tls_rank = rank; }

int CoherenceChecker::current_rank() noexcept { return tls_rank; }

CoherenceChecker::ToleranceScope::ToleranceScope() noexcept {
  ++tls_tolerate_stale;
}

CoherenceChecker::ToleranceScope::~ToleranceScope() { --tls_tolerate_stale; }

CoherenceChecker::Copy* CoherenceChecker::find_copy(
    LineState& state, const CacheSim* cache) noexcept {
  for (Copy& copy : state.copies) {
    if (copy.cache == cache) {
      return &copy;
    }
  }
  return nullptr;
}

void CoherenceChecker::maybe_gc(LineMap::iterator it) {
  if (it->second.copies.empty() && it->second.flag_words.empty()) {
    lines_.erase(it);
  }
}

void CoherenceChecker::record(Kind kind, std::uint64_t offset, const char* op,
                              std::string detail) {
  if (kind == Kind::kStaleRead && tls_tolerate_stale > 0) {
    return;
  }
  ++summary_.by_kind[static_cast<std::size_t>(kind)];
  if (log_.size() < kMaxStoredViolations) {
    log_.push_back(Violation{kind, tls_rank, offset, op, std::move(detail)});
  }
}

void CoherenceChecker::check_read_observes(const LineState& state,
                                           const CacheSim* cache,
                                           std::uint64_t line_offset,
                                           std::uint64_t observed_version,
                                           const char* op) {
  for (const Copy& copy : state.copies) {
    if (copy.cache != cache && copy.dirty &&
        copy.version > observed_version) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "read observes version %llu but the line is dirty at "
                    "version %llu in another node's cache (missing "
                    "writeback+invalidate)",
                    static_cast<unsigned long long>(observed_version),
                    static_cast<unsigned long long>(copy.version));
      record(Kind::kStaleRead, line_offset, op, buf);
    }
  }
}

void CoherenceChecker::on_cached_read(const CacheSim* cache,
                                      std::uint64_t line_offset, bool hit) {
  std::lock_guard lock(mutex_);
  LineState& state = lines_[line_offset];
  Copy* own = find_copy(state, cache);
  std::uint64_t observed = state.pool;
  if (hit && own != nullptr) {
    observed = own->version;
    if (!own->dirty && own->version < state.pool) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "cached hit on version %llu but the pool holds version "
                    "%llu (missing invalidate before read)",
                    static_cast<unsigned long long>(own->version),
                    static_cast<unsigned long long>(state.pool));
      record(Kind::kStaleRead, line_offset, "cached-load", buf);
    }
  } else {
    // Miss (or a hit on a line cached before the checker was enabled):
    // the fill observes the pool's current version.
    if (own == nullptr) {
      state.copies.push_back(Copy{cache, state.pool, false});
    } else {
      own->version = state.pool;
    }
  }
  check_read_observes(state, cache, line_offset, observed, "cached-load");
}

void CoherenceChecker::on_cached_write(const CacheSim* cache,
                                       std::uint64_t line_offset) {
  std::lock_guard lock(mutex_);
  LineState& state = lines_[line_offset];
  for (const Copy& copy : state.copies) {
    if (copy.cache != cache && copy.dirty) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "store to a line concurrently dirty (version %llu) in "
                    "another node's cache; one writeback will clobber the "
                    "other",
                    static_cast<unsigned long long>(copy.version));
      record(Kind::kLostUpdate, line_offset, "cached-store", buf);
    }
  }
  const std::uint64_t version = ++state.latest;
  if (Copy* own = find_copy(state, cache); own != nullptr) {
    own->version = version;
    own->dirty = true;
  } else {
    state.copies.push_back(Copy{cache, version, true});
  }
  // The line now carries plain data; any flag registration is obsolete.
  state.flag_words.clear();
}

void CoherenceChecker::on_writeback(const CacheSim* cache,
                                    std::uint64_t line_offset) {
  std::lock_guard lock(mutex_);
  const auto it = lines_.find(line_offset);
  if (it == lines_.end()) {
    return;
  }
  if (Copy* own = find_copy(it->second, cache); own != nullptr) {
    it->second.pool = std::max(it->second.pool, own->version);
    own->dirty = false;
  }
}

void CoherenceChecker::on_invalidate(const CacheSim* cache,
                                     std::uint64_t line_offset) {
  std::lock_guard lock(mutex_);
  const auto it = lines_.find(line_offset);
  if (it == lines_.end()) {
    return;
  }
  std::erase_if(it->second.copies,
                [cache](const Copy& copy) { return copy.cache == cache; });
  maybe_gc(it);
}

void CoherenceChecker::on_pool_write(const CacheSim* cache,
                                     std::uint64_t offset, std::size_t size) {
  if (size == 0) {
    return;
  }
  std::lock_guard lock(mutex_);
  const std::uint64_t first = line_of(offset);
  const std::uint64_t last = line_of(offset + size - 1);
  for (std::uint64_t at = first; at <= last; at += kCacheLineSize) {
    const auto it = lines_.find(at);
    if (it == lines_.end()) {
      // Nobody caches the line and no flag lives there: versions restart
      // from zero consistently, so there is nothing to track. This keeps
      // the map bounded under streaming workloads.
      continue;
    }
    LineState& state = it->second;
    for (const Copy& copy : state.copies) {
      if (copy.cache != cache && copy.dirty) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "NT store overwrites a line dirty (version %llu) in "
                      "another node's cache; its writeback will clobber "
                      "this store",
                      static_cast<unsigned long long>(copy.version));
        record(Kind::kLostUpdate, at, "nt-store", buf);
      }
    }
    state.pool = ++state.latest;
    state.flag_words.clear();
    maybe_gc(it);
  }
}

void CoherenceChecker::on_pool_read(const CacheSim* cache,
                                    std::uint64_t offset, std::size_t size) {
  if (size == 0) {
    return;
  }
  std::lock_guard lock(mutex_);
  const std::uint64_t first = line_of(offset);
  const std::uint64_t last = line_of(offset + size - 1);
  for (std::uint64_t at = first; at <= last; at += kCacheLineSize) {
    const auto it = lines_.find(at);
    if (it == lines_.end()) {
      continue;
    }
    LineState& state = it->second;
    std::uint64_t observed = state.pool;
    // CacheSim::nt_load merges the node's own dirty lines into the result.
    if (const Copy* own = find_copy(state, cache);
        own != nullptr && own->dirty) {
      observed = std::max(observed, own->version);
    }
    check_read_observes(state, cache, at, observed, "nt-load");
  }
}

void CoherenceChecker::on_pool_write_u64(const CacheSim* cache,
                                         std::uint64_t offset) {
  std::lock_guard lock(mutex_);
  const auto it = lines_.find(line_of(offset));
  if (it == lines_.end()) {
    return;
  }
  LineState& state = it->second;
  for (const Copy& copy : state.copies) {
    if (copy.dirty) {
      char buf[160];
      std::snprintf(
          buf, sizeof buf,
          "8-byte flag store to a line cached dirty (version %llu) in %s "
          "cache; a later writeback clobbers the flag",
          static_cast<unsigned long long>(copy.version),
          copy.cache == cache ? "this node's own" : "another node's");
      record(Kind::kLostUpdate, offset, "flag-store", buf);
    }
  }
  state.pool = ++state.latest;
  maybe_gc(it);
}

void CoherenceChecker::on_pool_read_u64(const CacheSim* cache,
                                        std::uint64_t offset) {
  std::lock_guard lock(mutex_);
  const auto it = lines_.find(line_of(offset));
  if (it == lines_.end()) {
    return;
  }
  LineState& state = it->second;
  // The lock-free 8-byte load reads the pool directly; it bypasses even the
  // node's own dirty copy, so any dirty copy anywhere makes it stale.
  if (const Copy* own = find_copy(state, cache);
      own != nullptr && own->dirty && own->version > state.pool) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "8-byte flag load bypasses this node's own dirty cached "
                  "copy (version %llu vs pool %llu)",
                  static_cast<unsigned long long>(own->version),
                  static_cast<unsigned long long>(state.pool));
    record(Kind::kStaleRead, offset, "flag-load", buf);
  }
  check_read_observes(state, cache, line_of(offset), state.pool, "flag-load");
}

void CoherenceChecker::on_cache_detached(const CacheSim* cache) {
  std::lock_guard lock(mutex_);
  for (auto it = lines_.begin(); it != lines_.end();) {
    std::erase_if(it->second.copies,
                  [cache](const Copy& copy) { return copy.cache == cache; });
    if (it->second.copies.empty() && it->second.flag_words.empty()) {
      it = lines_.erase(it);
    } else {
      ++it;
    }
  }
}

void CoherenceChecker::on_publish(
    const CacheSim* cache, std::uint64_t flag_offset,
    std::span<const std::pair<std::uint64_t, std::size_t>> payload) {
  std::lock_guard lock(mutex_);
  LineState& flag_line = lines_[line_of(flag_offset)];
  if (std::find(flag_line.flag_words.begin(), flag_line.flag_words.end(),
                flag_offset) == flag_line.flag_words.end()) {
    flag_line.flag_words.push_back(flag_offset);
  }
  check_payload_clean(cache, flag_offset, payload);
}

void CoherenceChecker::on_record_publish(
    const CacheSim* cache, std::uint64_t record_offset,
    std::span<const std::pair<std::uint64_t, std::size_t>> payload) {
  std::lock_guard lock(mutex_);
  check_payload_clean(cache, record_offset, payload);
}

void CoherenceChecker::check_payload_clean(
    const CacheSim* cache, std::uint64_t publish_offset,
    std::span<const std::pair<std::uint64_t, std::size_t>> payload) {
  for (const auto& [offset, size] : payload) {
    if (size == 0) {
      continue;
    }
    const std::uint64_t first = line_of(offset);
    const std::uint64_t last = line_of(offset + size - 1);
    for (std::uint64_t at = first; at <= last; at += kCacheLineSize) {
      const auto it = lines_.find(at);
      if (it == lines_.end()) {
        continue;
      }
      if (const Copy* own = find_copy(it->second, cache);
          own != nullptr && own->dirty) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "publish @%#llx while a covered payload line is "
                      "still dirty in the publisher's cache (missing "
                      "flush before publish)",
                      static_cast<unsigned long long>(publish_offset));
        record(Kind::kTornPublish, at, "publish", buf);
      }
    }
  }
}

void CoherenceChecker::on_flag_store(const CacheSim* /*cache*/,
                                     std::uint64_t offset, bool fenced) {
  if (fenced) {
    return;
  }
  std::lock_guard lock(mutex_);
  const auto it = lines_.find(line_of(offset));
  if (it == lines_.end()) {
    return;
  }
  for (const std::uint64_t base : it->second.flag_words) {
    if (offset == base || offset == base + sizeof(std::uint64_t)) {
      record(Kind::kFenceOrder, offset, "flag-store",
             "flag word updated with unfenced writes outstanding (publish "
             "before sfence)");
      return;
    }
  }
}

CoherenceChecker::Summary CoherenceChecker::summary() const {
  std::lock_guard lock(mutex_);
  return summary_;
}

std::uint64_t CoherenceChecker::total_violations() const {
  std::lock_guard lock(mutex_);
  return summary_.total();
}

std::vector<CoherenceChecker::Violation> CoherenceChecker::violations() const {
  std::lock_guard lock(mutex_);
  return log_;
}

std::string CoherenceChecker::summary_string() const {
  const Summary s = summary();
  char buf[192];
  std::snprintf(
      buf, sizeof buf,
      "%llu violation(s) (stale-read %llu, lost-update %llu, torn-publish "
      "%llu, fence-order %llu)",
      static_cast<unsigned long long>(s.total()),
      static_cast<unsigned long long>(s.count(Kind::kStaleRead)),
      static_cast<unsigned long long>(s.count(Kind::kLostUpdate)),
      static_cast<unsigned long long>(s.count(Kind::kTornPublish)),
      static_cast<unsigned long long>(s.count(Kind::kFenceOrder)));
  return buf;
}

void CoherenceChecker::clear() {
  std::lock_guard lock(mutex_);
  lines_.clear();
  log_.clear();
  summary_ = Summary{};
}

}  // namespace cmpi::cxlsim
