// One hash-consing table: every distinct value of a node type is stored
// exactly once and addressed by a stable node pointer thereafter. Each node
// type has one process-wide instance: the expression arena
// (symbolic/arena.h), the predicate arena (predicate/arena.h), the atom
// table (predicate/intern.h) and the region table (region/region.h). The
// node type brings its own hash, comparison and construction; the table
// owns the sharding, locking, ids, front cache and occupancy counters.
//
// Id layout (the one authoritative statement): a node's 64-bit id is
//
//     id = (perShardSequence << kShardBits) | shardIndex
//
// so the *shard index lives in the low bits* and shards allocate ids
// independently without coordination. The shard of a value is chosen by its
// structural hash (hash % kShards). Ids are dense per shard, never reused,
// and id equality <=> value equality, so memo caches key verdicts by id with
// no collision risk. Ids depend on thread interleaving, so they never decide
// an order, and no id means "unset": 0 is shard 0's first node.
//
// Lifetime: the table is append-only. Nodes are never mutated once built, nor
// freed, and the deque-backed shards keep their addresses stable, so node
// pointers stay valid for the life of the process. Analyzer runs are
// short-lived batch jobs, so retiring dead nodes is not worth the
// synchronization it would cost the parallel driver.
//
// Hits allocate nothing and usually take no lock. `intern` takes the
// candidate's hash and a comparison against a stored node, so the caller
// keeps the candidate borrowed (support/slot_scratch.h builds one in a
// reused per-thread buffer); only a miss builds a node. Each thread keeps a
// direct-mapped front cache of node pointers before the shards. A slot only
// ever holds a pointer this thread already obtained under the shard lock, so
// the node's publication happens-before every later read through the slot,
// and reading it needs no lock. A slot is a hint, never an answer: the
// candidate is compared against its node in full, and any mismatch falls
// back to the locked lookup. Every insert takes the shard's exclusive lock.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

namespace panorama {

template <class Node>
class InternTable {
 public:
  /// The id layout above: a node's shard index is its id's low kShardBits.
  static constexpr unsigned kShardBits = 4;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;

  /// The process-wide table every analysis thread shares.
  static InternTable& global() {
    static InternTable table;
    return table;
  }

  /// The node equal to the candidate, built if new. `hash` is the
  /// candidate's structural hash; `same(const Node&)` compares a stored node
  /// against the candidate in full; `build(Node&, std::uint64_t id)` fills a
  /// default-constructed node with the candidate and its id, and returns the
  /// node's approximate footprint in bytes. `Node()` and `build` run under
  /// the shard's exclusive lock, so neither may intern into this table.
  template <class Same, class Build>
  const Node& intern(std::size_t hash, Same&& same, Build&& build) {
    const Node*& front = frontSlot(hash);
    if (front && same(*front)) return *front;
    const std::size_t s = hash % kShards;
    Shard& shard = shards_[s];
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      if (const Node* n = shard.find(hash, same)) return *(front = n);
    }
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    if (const Node* n = shard.find(hash, same)) return *(front = n);
    Node& node = shard.nodes.emplace_back();
    shard.bytes += build(node, (shard.next++ << kShardBits) | static_cast<std::uint64_t>(s));
    std::vector<const Node*>& chain = shard.index[hash];
    shard.bytes += kChainEntryBytes + (chain.empty() ? kBucketEntryBytes : 0);
    chain.push_back(&node);
    return *(front = &node);
  }

  /// The hash-bucket index a shard keeps beside its nodes.
  using Index = std::unordered_map<std::size_t, std::vector<const Node*>>;
  /// The index's share of `Stats::bytes`: one chain pointer per node, one
  /// map entry (key, chain header, link) per distinct hash, and each
  /// shard's bucket array, one pointer per bucket.
  static constexpr std::size_t kChainEntryBytes = sizeof(const Node*);
  static constexpr std::size_t kBucketEntryBytes =
      sizeof(typename Index::value_type) + sizeof(void*);

  /// Occupancy for `--stats` and the daemon's status: distinct values,
  /// approximate resident bytes (nodes plus index; no per-call walk), and
  /// the least/most populated shard (balance check).
  struct Stats {
    std::size_t distinct = 0;
    std::size_t bytes = 0;
    std::size_t minShard = 0;
    std::size_t maxShard = 0;
  };
  Stats stats() const {
    Stats out;
    out.minShard = SIZE_MAX;
    for (const Shard& shard : shards_) {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      const std::size_t n = shard.nodes.size();
      out.distinct += n;
      out.bytes += shard.bytes + shard.index.bucket_count() * sizeof(void*);
      out.minShard = std::min(out.minShard, n);
      out.maxShard = std::max(out.maxShard, n);
    }
    return out;
  }

 private:
  InternTable() = default;

  /// The calling thread's front-cache slot for a value of hash `hash`. The
  /// 256 slots per thread and node type come from perfbench runs at 0, 16,
  /// 256 and 1024 slots (DESIGN §4.2).
  static const Node*& frontSlot(std::size_t hash) {
    static constexpr unsigned kSlotBits = 8;
    thread_local std::array<const Node*, std::size_t{1} << kSlotBits> slots{};
    // Fibonacci hashing: the shard index already uses the low bits.
    return slots[(static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ull) >> (64 - kSlotBits)];
  }

  struct Shard {
    mutable std::shared_mutex mutex;
    std::deque<Node> nodes;  // deque: stable node addresses
    // Buckets by full structural hash; a bucket's short chain resolves by
    // the caller's full compare.
    Index index;
    std::uint64_t next = 0;
    std::size_t bytes = 0;

    template <class Same>
    const Node* find(std::size_t hash, Same& same) const {
      auto it = index.find(hash);
      if (it == index.end()) return nullptr;
      for (const Node* n : it->second)
        if (same(*n)) return n;
      return nullptr;
    }
  };

  std::array<Shard, kShards> shards_;
};

}  // namespace panorama
