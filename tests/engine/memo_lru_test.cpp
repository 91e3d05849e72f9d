// The memo tier's LRU bound: byte accounting, least-recently-used eviction
// order, recency refresh on get, and the separation between evictions
// (capacity pressure, silent) and invalidations (correctness).
#include <gtest/gtest.h>

#include <string>

#include "engine/memo.hpp"
#include "support/hash.hpp"

namespace shelley::engine {
namespace {

using core::CacheKind;

support::Digest128 key_of(const std::string& name) {
  return support::hash_bytes(name);
}

TEST(MemoLruTest, DefaultCapacityNeverEvictsSmallWorkloads) {
  MemoTier memo;
  EXPECT_EQ(memo.capacity_bytes(), MemoTier::kDefaultCapacityBytes);
  for (int i = 0; i < 100; ++i) {
    memo.put(CacheKind::kArtifact, key_of("artifact" + std::to_string(i)),
             std::string(1024, 'x'));
  }
  const MemoStats stats = memo.stats();
  EXPECT_EQ(stats.stores, 100u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.bytes, 100u * 1024u);
}

TEST(MemoLruTest, BytesTrackStoresAndInvalidations) {
  MemoTier memo;
  memo.put(CacheKind::kArtifact, key_of("a"), std::string(500, 'a'));
  const std::uint64_t after_one = memo.stats().bytes;
  EXPECT_GE(after_one, 500u);

  memo.put(CacheKind::kArtifact, key_of("b"), std::string(500, 'b'));
  EXPECT_EQ(memo.stats().bytes, 2 * after_one);

  // Re-storing under the same key replaces, never double-counts.
  memo.put(CacheKind::kArtifact, key_of("a"), std::string(500, 'A'));
  EXPECT_EQ(memo.stats().bytes, 2 * after_one);

  EXPECT_EQ(memo.invalidate(key_of("a")), 1u);
  EXPECT_EQ(memo.stats().bytes, after_one);
  EXPECT_EQ(memo.stats().invalidations, 1u);
  EXPECT_EQ(memo.stats().evictions, 0u);

  memo.clear();
  EXPECT_EQ(memo.stats().bytes, 0u);
}

TEST(MemoLruTest, EvictsLeastRecentlyUsedFirst) {
  MemoTier memo;
  memo.set_capacity_bytes(3 * (1024 + 200));  // room for ~3 entries
  memo.put(CacheKind::kArtifact, key_of("first"), std::string(1024, '1'));
  memo.put(CacheKind::kArtifact, key_of("second"), std::string(1024, '2'));
  memo.put(CacheKind::kArtifact, key_of("third"), std::string(1024, '3'));
  EXPECT_EQ(memo.stats().evictions, 0u);

  // Touch "first" so "second" becomes the coldest entry.
  EXPECT_TRUE(memo.get(CacheKind::kArtifact, key_of("first")).has_value());

  memo.put(CacheKind::kArtifact, key_of("fourth"), std::string(1024, '4'));
  EXPECT_EQ(memo.stats().evictions, 1u);
  EXPECT_FALSE(memo.get(CacheKind::kArtifact, key_of("second")).has_value());
  EXPECT_TRUE(memo.get(CacheKind::kArtifact, key_of("first")).has_value());
  EXPECT_TRUE(memo.get(CacheKind::kArtifact, key_of("third")).has_value());
  EXPECT_TRUE(memo.get(CacheKind::kArtifact, key_of("fourth")).has_value());
}

TEST(MemoLruTest, ShrinkingCapacityEvictsImmediately) {
  MemoTier memo;
  for (int i = 0; i < 10; ++i) {
    memo.put(CacheKind::kArtifact, key_of("entry" + std::to_string(i)),
             std::string(1024, 'e'));
  }
  EXPECT_EQ(memo.stats().evictions, 0u);
  memo.set_capacity_bytes(2048);
  const MemoStats stats = memo.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 2048u);
  // The most recently stored entry is the survivor.
  EXPECT_TRUE(memo.get(CacheKind::kArtifact, key_of("entry9")).has_value());
}

TEST(MemoLruTest, EvictionSpansAllThreeKinds) {
  MemoTier memo;
  core::CachedVerdict verdict;
  verdict.class_name = "Valve";
  memo.put(CacheKind::kVerdict, key_of("verdict"),
           core::BehaviorCache::encode_verdict(verdict));
  memo.put(CacheKind::kTable, key_of("table"), std::string(64, 't'));
  memo.put(CacheKind::kArtifact, key_of("artifact"), std::string(64, 'a'));

  memo.set_capacity_bytes(0);
  const MemoStats stats = memo.stats();
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_FALSE(memo.get(CacheKind::kVerdict, key_of("verdict")).has_value());
  EXPECT_FALSE(memo.get(CacheKind::kTable, key_of("table")).has_value());
  EXPECT_FALSE(
      memo.get(CacheKind::kArtifact, key_of("artifact")).has_value());
}

TEST(MemoLruTest, LoadRefreshesVerdictRecency) {
  MemoTier memo;
  const auto verdict_bytes = [](const char* name) {
    core::CachedVerdict verdict;
    verdict.class_name = name;
    return core::BehaviorCache::encode_verdict(verdict);
  };
  memo.put(CacheKind::kVerdict, key_of("cold"), verdict_bytes("Cold"));
  memo.put(CacheKind::kVerdict, key_of("warm"), verdict_bytes("Warm"));
  // Keep "cold" actually cold; make room for exactly one more entry.
  EXPECT_TRUE(memo.get(CacheKind::kVerdict, key_of("warm")).has_value());
  memo.set_capacity_bytes(memo.stats().bytes);

  memo.put(CacheKind::kVerdict, key_of("next"), verdict_bytes("Next"));
  EXPECT_FALSE(memo.get(CacheKind::kVerdict, key_of("cold")).has_value());
  EXPECT_TRUE(memo.get(CacheKind::kVerdict, key_of("warm")).has_value());
}

TEST(MemoLruTest, VerdictClassCollisionStillMisses) {
  // The LRU must not weaken the foreign-verdict rule: when the caller
  // refuses a verdict naming another class, that lookup is a miss, and the
  // entry stays for the class it names.
  MemoTier memo;
  core::CachedVerdict verdict;
  verdict.class_name = "Valve";
  memo.put(CacheKind::kVerdict, key_of("k"),
           core::BehaviorCache::encode_verdict(verdict));
  const auto lookup = [&](const char* class_name) {
    const auto bytes = memo.get(CacheKind::kVerdict, key_of("k"));
    if (!bytes) return false;
    const auto decoded = core::BehaviorCache::decode_verdict(*bytes);
    if (decoded && decoded->class_name == class_name) return true;
    memo.reject_hit();
    return false;
  };
  EXPECT_FALSE(lookup("Pump"));
  EXPECT_TRUE(lookup("Valve"));
  const MemoStats stats = memo.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(MemoLruTest, KindsUnderOneKeyAreSeparateEntries) {
  // One class key holds one entry per kind; invalidate drops them all.
  MemoTier memo;
  memo.put(CacheKind::kVerdict, key_of("k"), "verdict");
  memo.put(CacheKind::kTable, key_of("k"), "table");
  memo.put(CacheKind::kArtifact, key_of("other"), "artifact");
  EXPECT_EQ(memo.get(CacheKind::kTable, key_of("k")), "table");
  EXPECT_FALSE(memo.get(CacheKind::kArtifact, key_of("k")).has_value());
  EXPECT_EQ(memo.invalidate(key_of("k")), 2u);
  EXPECT_FALSE(memo.get(CacheKind::kVerdict, key_of("k")).has_value());
  EXPECT_EQ(memo.get(CacheKind::kArtifact, key_of("other")), "artifact");
}

TEST(MemoLruTest, HitMissStoreCountersKeepTheirMeaning) {
  MemoTier memo;
  memo.set_capacity_bytes(1024 + 512);
  memo.put(CacheKind::kArtifact, key_of("x"), std::string(1024, 'x'));
  // Storing y evicts x.
  memo.put(CacheKind::kArtifact, key_of("y"), std::string(1024, 'y'));
  const MemoStats stats = memo.stats();
  EXPECT_EQ(stats.stores, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  // Loading the evicted key is an ordinary miss.
  EXPECT_FALSE(memo.get(CacheKind::kArtifact, key_of("x")).has_value());
  EXPECT_EQ(memo.stats().misses, 1u);
}

}  // namespace
}  // namespace shelley::engine
