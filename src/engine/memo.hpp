// The in-memory memo tier of the query engine: a byte store keyed by
// (kind, content-addressed class key), with the same get/put interface as
// the on-disk BehaviorCache (shelley/cache.hpp) it is layered *above*.
//
// Entries hold exactly the disk encodings (encode_verdict bytes, compiled
// table bytes, raw artifact bytes), never live automata or symbol ids: the
// workspace rebuilds its symbol table on every source update, so anything
// id-bearing would go stale.  The query engine decodes both tiers through
// the same codecs, which is what keeps warm answers byte-identical to cold
// ones.
//
// The tier is bounded: every entry is charged its byte size plus a fixed
// overhead, and once the total passes the configured capacity the
// least-recently-used entries are evicted (gets refresh recency).
// Eviction is silent and safe -- the disk tier below still holds the
// entry -- and is counted separately from invalidation, which is a
// correctness event.
//
// Internally synchronized: the daemon may run queries for several classes
// concurrently on the shared thread pool, and the socket server shares one
// tier across every client session (sound because keys are
// content-addressed class fingerprints, independent of any session's
// symbol table -- two sessions with identical sources compute identical
// keys and replay identical bytes).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "shelley/cache.hpp"
#include "support/hash.hpp"

namespace shelley::engine {

struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t invalidations = 0;  ///< entries dropped by invalidate()
  std::uint64_t evictions = 0;      ///< entries dropped by the LRU bound
  std::uint64_t bytes = 0;          ///< approximate bytes currently held
};

class MemoTier {
 public:
  /// Default capacity is generous: the memo is a working-set accelerator,
  /// not primary storage, but single-workspace sessions should never evict.
  static constexpr std::uint64_t kDefaultCapacityBytes = 64ull << 20;

  /// The bytes stored under (kind, key), refreshing their recency; a hit.
  [[nodiscard]] std::optional<std::string> get(core::CacheKind kind,
                                               const support::Digest128& key);
  /// Stores (or replaces) the bytes under (kind, key).
  void put(core::CacheKind kind, const support::Digest128& key,
           std::string bytes);
  /// The caller's decoder rejected what the last get() returned: that hit
  /// counts as a miss instead.
  void reject_hit();

  /// Drops every kind stored under `key`; returns how many entries were
  /// dropped (counted as invalidations).  The workspace calls this for the
  /// stale keys of exactly the dependency closure of an updated source.
  std::size_t invalidate(const support::Digest128& key);

  void clear();

  /// Shrinks (or grows) the LRU bound; shrinking evicts immediately.
  void set_capacity_bytes(std::uint64_t capacity);
  [[nodiscard]] std::uint64_t capacity_bytes() const;

  [[nodiscard]] MemoStats stats() const;

 private:
  using Slot = std::pair<support::Digest128, core::CacheKind>;
  using LruList = std::list<Slot>;
  struct Entry {
    std::string bytes;
    std::uint64_t charge = 0;  ///< bytes.size() plus the fixed overhead
    LruList::iterator lru;
  };
  using EntryMap = std::map<Slot, Entry>;

  // Both require mutex_ held.
  void drop(EntryMap::iterator it);
  void evict_to_capacity();

  mutable std::mutex mutex_;
  MemoStats stats_;
  std::uint64_t capacity_bytes_ = kDefaultCapacityBytes;
  LruList lru_;  ///< front = most recently used
  EntryMap entries_;
};

}  // namespace shelley::engine
