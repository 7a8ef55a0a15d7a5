#include "util/lru_cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace odtn {
namespace {

using Cache = LruCache<int, std::string>;

std::shared_ptr<const std::string> val(const char* s) {
  return std::make_shared<const std::string>(s);
}

TEST(LruCache, MissThenHit) {
  Cache cache(1024);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.put(1, val("one"), 100), 0u);
  const auto hit = cache.get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "one");
  const LruCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.bytes, 100u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsedFirst) {
  // The budget fits exactly three 100-byte entries.
  Cache cache(300);
  cache.put(1, val("a"), 100);
  cache.put(2, val("b"), 100);
  cache.put(3, val("c"), 100);
  // Touch 1 so 2 becomes the LRU tail.
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_EQ(cache.put(4, val("d"), 100), 1u);
  EXPECT_EQ(cache.get(2), nullptr);  // evicted
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_NE(cache.get(4), nullptr);
}

TEST(LruCache, ByteBudgetNotEntryCount) {
  Cache cache(250);
  cache.put(1, val("a"), 100);
  cache.put(2, val("b"), 100);
  // A 200-byte insert must displace BOTH residents (100+100+200 > 250).
  EXPECT_EQ(cache.put(3, val("big"), 200), 2u);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_EQ(cache.stats().bytes, 200u);
}

TEST(LruCache, OversizedEntryEvictsItself) {
  Cache cache(100);
  EXPECT_EQ(cache.put(1, val("huge"), 500), 1u);
  EXPECT_EQ(cache.get(1), nullptr);
  const LruCacheStats s = cache.stats();
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(LruCache, OverwriteReplacesValueAndCost) {
  Cache cache(1000);
  cache.put(1, val("old"), 400);
  cache.put(1, val("new"), 100);
  const auto hit = cache.get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
  const LruCacheStats s = cache.stats();
  EXPECT_EQ(s.inserts, 1u);  // overwrite is not a second insert
  EXPECT_EQ(s.bytes, 100u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(LruCache, OverwriteRefreshesRecency) {
  Cache cache(300);
  cache.put(1, val("a"), 100);
  cache.put(2, val("b"), 100);
  cache.put(1, val("a2"), 100);  // 2 is now the LRU
  cache.put(3, val("c"), 100);
  cache.put(4, val("d"), 100);
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
}

TEST(LruCache, HitKeepsValueAliveAcrossEviction) {
  Cache cache(100);
  cache.put(1, val("pinned"), 100);
  const auto pinned = cache.get(1);
  ASSERT_NE(pinned, nullptr);
  cache.put(2, val("evictor"), 100);  // evicts key 1
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(*pinned, "pinned");  // the shared_ptr outlives the entry
}

TEST(LruCache, ClearDropsEntriesKeepsCounters) {
  Cache cache(1000);
  cache.put(1, val("a"), 10);
  cache.put(2, val("b"), 10);
  cache.get(1);
  cache.clear();
  const LruCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(cache.get(1), nullptr);
}

TEST(LruCache, ZeroBudgetCachesNothing) {
  Cache cache(0);
  EXPECT_EQ(cache.put(1, val("x"), 1), 1u);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(LruCache, CountersAreExactAcrossMixedTraffic) {
  Cache cache(10 * 64);
  std::uint64_t expect_evictions = 0;
  for (int i = 0; i < 100; ++i) expect_evictions += cache.put(i, val("v"), 64);
  // 100 inserts into a 10-slot cache: the first 10 fill it, each of the
  // remaining 90 displaces exactly one.
  EXPECT_EQ(expect_evictions, 90u);
  const LruCacheStats s = cache.stats();
  EXPECT_EQ(s.inserts, 100u);
  EXPECT_EQ(s.evictions, 90u);
  EXPECT_EQ(s.entries, 10u);
  EXPECT_EQ(s.bytes, 10u * 64u);
  // Exactly the 10 newest survive.
  for (int i = 0; i < 90; ++i) EXPECT_EQ(cache.get(i), nullptr);
  for (int i = 90; i < 100; ++i) EXPECT_NE(cache.get(i), nullptr);
  EXPECT_EQ(cache.stats().hits, 10u);
  EXPECT_EQ(cache.stats().misses, 90u);
}

// Concurrent readers/writers over a small shared cache; run under TSan
// (the tsan preset) this is the data-race gate for the cache's lock.
TEST(LruCache, ConcurrentGetPutIsSafe) {
  LruCache<int, int> cache(64 * 32);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key = (t * 31 + i * 7) % 64;
        if (i % 3 == 0) {
          cache.put(key, std::make_shared<const int>(key * 10), 32);
        } else if (const auto hit = cache.get(key)) {
          // A hit must always carry the value put under that key.
          EXPECT_EQ(*hit, key * 10);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Every i with i % 3 != 0 issues exactly one get; each get is a hit or
  // a miss, never both.
  constexpr std::uint64_t kGetsPerThread =
      kOpsPerThread - (kOpsPerThread + 2) / 3;
  const LruCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kGetsPerThread);
  EXPECT_LE(s.bytes, 64u * 32u);
}

TEST(LruCache, OverwriteReleasesOldCostBeforeCharging) {
  // Regression guard for overwrite accounting: replacing a resident key
  // must release the old entry's bytes first, never double-charge, and
  // never count the replacement itself as an eviction.
  Cache cache(300);
  EXPECT_EQ(cache.put(1, val("a"), 100), 0u);
  EXPECT_EQ(cache.put(1, val("bigger"), 250), 0u);  // 100 released, 250 fits
  LruCacheStats s = cache.stats();
  EXPECT_EQ(s.bytes, 250u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 0u);
  const auto hit = cache.get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "bigger");

  // Shrinking overwrite frees budget for a neighbor.
  EXPECT_EQ(cache.put(1, val("small"), 50), 0u);
  EXPECT_EQ(cache.stats().bytes, 50u);
  EXPECT_EQ(cache.put(2, val("b"), 250), 0u);
  EXPECT_EQ(cache.stats().bytes, 300u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(LruCache, GrowingOverwriteEvictsOthersNotItself) {
  Cache cache(300);
  cache.put(1, val("a"), 100);
  cache.put(2, val("b"), 100);
  cache.put(3, val("c"), 100);
  // Overwriting 2 with a 200-byte value: 100 released, 200 charged, so
  // exactly one LRU victim (key 1) must go -- the overwritten entry is
  // fresh at the head and must survive.
  EXPECT_EQ(cache.put(2, val("big"), 200), 1u);
  EXPECT_EQ(cache.get(1), nullptr);
  ASSERT_NE(cache.get(2), nullptr);
  EXPECT_EQ(*cache.get(2), "big");
  EXPECT_NE(cache.get(3), nullptr);
  const LruCacheStats s = cache.stats();
  EXPECT_EQ(s.bytes, 300u);
  EXPECT_EQ(s.evictions, 1u);
}

}  // namespace
}  // namespace odtn
