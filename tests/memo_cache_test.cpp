// The one memo policy (support/memo_cache.h): exact keys never alias, a
// full shard evicts its oldest entry first, capacity 0 switches a memo off
// (including the memos that share QueryCache's capacity), the counters add
// up, and concurrent lookups only ever return the value stored for their
// own key. Eviction-order cases craft their keys onto one shard via
// ShardedMemo::shardOf so the order is fully deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "panorama/support/memo_cache.h"

namespace panorama {
namespace {

using Key = std::vector<std::uint64_t>;
using Memo = ShardedMemo<Key, std::uint64_t>;

/// `n` distinct single-word keys that all route to the shard of {0}.
std::vector<Key> sameShardKeys(std::size_t n) {
  std::vector<Key> keys;
  const std::size_t shard = Memo::shardOf({0});
  for (std::uint64_t seed = 0; keys.size() < n; ++seed)
    if (Memo::shardOf({seed}) == shard) keys.push_back({seed});
  return keys;
}

/// Every key hashes alike: only the whole-key compare tells them apart.
struct CollidingHash {
  std::size_t operator()(const Key&) const { return 7; }
};

TEST(MemoCacheTest, ExactKeysNeverAlias) {
  std::atomic<std::size_t> capacity{1024};
  ShardedMemo<Key, std::uint64_t, CollidingHash> memo(capacity);
  // Prefixes, permutations and zero padding of one another, all colliding.
  const std::vector<Key> keys{{1}, {1, 0}, {0, 1}, {1, 2}, {2, 1}, {1, 2, 0}, {}, {0}};
  for (std::size_t k = 0; k < keys.size(); ++k) memo.store(keys[k], 100 + k);
  for (std::size_t k = 0; k < keys.size(); ++k) EXPECT_EQ(memo.lookup(keys[k]), 100 + k);
  EXPECT_EQ(memo.lookup({2}), std::nullopt);
  EXPECT_EQ(memo.lookup({0, 0}), std::nullopt);

  // The verdict cache's families are told apart by their leading tag.
  QueryCache cache;
  cache.store({QueryCache::AtomsContradict, 5, 6}, Truth::True);
  EXPECT_EQ(cache.lookup({QueryCache::PredImplies, 5, 6}), std::nullopt);
  EXPECT_EQ(cache.lookup({QueryCache::AtomsContradict, 5, 6}), Truth::True);
}

TEST(MemoCacheTest, FullShardEvictsItsOldestEntryFirst) {
  std::atomic<std::size_t> capacity{64};  // 16 shards -> 4 entries per shard
  Memo memo(capacity);
  const std::vector<Key> k = sameShardKeys(7);
  for (std::size_t i = 0; i < 4; ++i) memo.store(k[i], i);

  // FIFO, not LRU: a hit does not protect k0, and re-storing a resident
  // key neither duplicates it nor moves it to the back.
  EXPECT_EQ(memo.lookup(k[0]), 0u);
  memo.store(k[1], 1);
  EXPECT_EQ(memo.stats().entries, 4u);

  memo.store(k[4], 4);  // victim: k0
  memo.store(k[5], 5);  // victim: k1
  EXPECT_EQ(memo.lookup(k[0]), std::nullopt);
  EXPECT_EQ(memo.lookup(k[1]), std::nullopt);
  for (std::size_t i = 2; i < 6; ++i) EXPECT_EQ(memo.lookup(k[i]), i);

  // Shrinking the capacity applies at the next store: the shard drops to
  // one entry, the newest.
  capacity = 16;
  memo.store(k[6], 6);
  EXPECT_EQ(memo.stats().entries, 1u);
  EXPECT_EQ(memo.lookup(k[6]), 6u);
  EXPECT_EQ(memo.stats().evictions, 2u + 4u);
}

TEST(MemoCacheTest, CapacityZeroDisablesTheMemoAndItsFollowers) {
  QueryCache cache;
  ShardedMemo<Key, std::uint64_t> follower(cache.sharedCapacity());
  cache.configure(0);
  EXPECT_FALSE(cache.enabled());
  cache.store({QueryCache::FmContradictory, 1}, Truth::True);
  follower.store({1}, 1);
  EXPECT_EQ(cache.lookup({QueryCache::FmContradictory, 1}), std::nullopt);
  EXPECT_EQ(follower.lookup({1}), std::nullopt);
  // A disabled memo neither stores nor counts.
  for (const MemoStats& s : {cache.stats(), follower.stats()}) {
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.hits + s.misses + s.evictions, 0u);
  }

  cache.configure(QueryCache::kDefaultCapacity);
  cache.store({QueryCache::FmContradictory, 1}, Truth::True);
  follower.store({1}, 1);
  EXPECT_EQ(cache.lookup({QueryCache::FmContradictory, 1}), Truth::True);
  EXPECT_EQ(follower.lookup({1}), 1u);
}

TEST(MemoCacheTest, CountersTrackHitsMissesEvictionsAndEntries) {
  std::atomic<std::size_t> capacity{64};
  Memo memo(capacity);
  const std::vector<Key> k = sameShardKeys(6);
  EXPECT_EQ(memo.lookup(k[0]), std::nullopt);  // miss
  for (std::size_t i = 0; i < 6; ++i) memo.store(k[i], i);  // 2 evictions
  EXPECT_EQ(memo.lookup(k[5]), 5u);                          // hit
  EXPECT_EQ(memo.lookup(k[0]), std::nullopt);                // miss
  MemoStats s = memo.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.entries, 4u);
  EXPECT_DOUBLE_EQ(s.hitRate(), 1.0 / 3.0);

  // clear() drops entries and counters but keeps the memo enabled.
  memo.clear();
  s = memo.stats();
  EXPECT_EQ(s.hits + s.misses + s.evictions + s.entries, 0u);
  memo.store(k[0], 0);
  EXPECT_EQ(memo.lookup(k[0]), 0u);
}

TEST(MemoCacheTest, ConcurrentHitsReturnTheValueStoredForTheirKey) {
  // Eight threads over 200 overlapping keys against 64 entries of capacity:
  // every store races lookups and evictions on the same shards.
  std::atomic<std::size_t> capacity{64};
  Memo memo(capacity);
  auto valueOf = [](const Key& key) { return key[0] * 0x9e3779b97f4a7c15ull + key[1]; };
  constexpr int kThreads = 8;
  constexpr int kOps = 20000;
  std::atomic<int> wrong{0};
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) + 1);
      std::uniform_int_distribution<std::uint64_t> pick(0, 199);
      for (int op = 0; op < kOps; ++op) {
        const std::uint64_t id = pick(rng);
        Key key{id, id % 7};
        lookups.fetch_add(1, std::memory_order_relaxed);
        if (std::optional<std::uint64_t> hit = memo.lookup(key)) {
          if (*hit != valueOf(key)) wrong.fetch_add(1, std::memory_order_relaxed);
        } else {
          const std::uint64_t value = valueOf(key);
          memo.store(std::move(key), value);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  const MemoStats s = memo.stats();
  EXPECT_EQ(s.hits + s.misses, lookups.load());
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.entries, 64u);
}

}  // namespace
}  // namespace panorama
