#include "engine/memo.hpp"

#include <utility>

namespace shelley::engine {

namespace {

// Per-entry bookkeeping charge on top of the payload: map node, LRU node,
// key copies.  A round number is fine -- the bound is a working-set limit,
// not an allocator ledger.
constexpr std::uint64_t kEntryOverhead = 128;

}  // namespace

void MemoTier::drop(EntryMap::iterator it) {
  stats_.bytes -= it->second.charge;
  lru_.erase(it->second.lru);
  entries_.erase(it);
}

void MemoTier::evict_to_capacity() {
  while (stats_.bytes > capacity_bytes_ && !lru_.empty()) {
    drop(entries_.find(lru_.back()));
    ++stats_.evictions;
  }
}

std::optional<std::string> MemoTier::get(core::CacheKind kind,
                                         const support::Digest128& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(Slot{key, kind});
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.bytes;
}

void MemoTier::put(core::CacheKind kind, const support::Digest128& key,
                   std::string bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t charge = bytes.size() + kEntryOverhead;
  const auto [it, inserted] = entries_.try_emplace(Slot{key, kind});
  Entry& entry = it->second;
  if (inserted) {
    lru_.emplace_front(it->first);
    entry.lru = lru_.begin();
  } else {
    stats_.bytes -= entry.charge;
    lru_.splice(lru_.begin(), lru_, entry.lru);
  }
  entry.bytes = std::move(bytes);
  entry.charge = charge;
  stats_.bytes += charge;
  ++stats_.stores;
  evict_to_capacity();
}

void MemoTier::reject_hit() {
  const std::lock_guard<std::mutex> lock(mutex_);
  --stats_.hits;
  ++stats_.misses;
}

std::size_t MemoTier::invalidate(const support::Digest128& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dropped = 0;
  // Slots order by key first, so every kind under `key` is one run.
  auto it = entries_.lower_bound(Slot{key, core::CacheKind{}});
  while (it != entries_.end() && it->first.first == key) {
    drop(it++);
    ++dropped;
  }
  stats_.invalidations += dropped;
  return dropped;
}

void MemoTier::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  stats_.bytes = 0;
}

void MemoTier::set_capacity_bytes(std::uint64_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_bytes_ = capacity;
  evict_to_capacity();
}

std::uint64_t MemoTier::capacity_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_bytes_;
}

MemoStats MemoTier::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace shelley::engine
