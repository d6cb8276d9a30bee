// The hash-consing arena behind ExprRef: every distinct expression value is
// stored once, in a sharded table, and addressed by a stable node pointer
// thereafter. This replaces the PR-1 ExprInterner (which re-hashed whole
// term lists on every query): the structural hash is now computed exactly
// once, when a value is first interned, and equality of handles is a pointer
// compare.
//
// Key layout (the one authoritative statement): a node's 64-bit id is
//
//     id = (perShardSequence << kShardBits) | shardIndex
//
// so the *shard index lives in the low bits* and shards allocate ids
// independently without coordination. The shard of a value is chosen by its
// structural hash (hash % kShards). Ids are dense per shard, never reused,
// and id equality <=> structural equality — memo caches key verdicts by id
// with no collision risk.
//
// Lifetime: the arena is a process-wide singleton and is append-only; nodes
// are never mutated or freed, so handles and `terms()` references stay valid
// for the life of the process. Analyzer runs are short-lived batch jobs
// (the driver analyzes a corpus and exits), so retiring dead nodes is not
// worth the synchronization it would cost the parallel driver.
//
// Hits allocate nothing and usually take no lock. `intern` takes a borrowed
// candidate (callers build it in a reused per-thread buffer,
// support/slot_scratch.h), hashes it and compares it against the bucket in
// place; only a miss copies it into a node. A per-thread front cache
// (support/front_cache.h) answers a thread's repeat hits without the shard
// lock; inserts always take it.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "panorama/symbolic/expr.h"

namespace panorama {

class ExprArena {
 public:
  /// The process-wide arena every analysis thread shares.
  static ExprArena& global();

  /// Interns a *canonical* term list (sorted, merged, zero-coefficient free;
  /// poisoned values carry no terms) and returns the unique handle. The
  /// terms are copied only when the value is new.
  ExprRef intern(std::span<const Term> terms, bool poisoned);

  /// Arena occupancy for `--stats`: distinct values, approximate resident
  /// bytes, and the least/most populated shard (balance check).
  struct Stats {
    std::size_t distinct = 0;
    std::size_t bytes = 0;
    std::size_t minShard = 0;
    std::size_t maxShard = 0;
  };
  Stats stats() const;

 private:
  // One instance only: the per-thread front cache is keyed by node type.
  ExprArena() = default;

  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShards = 1u << kShardBits;

  struct Shard {
    mutable std::shared_mutex mutex;
    std::deque<detail::ExprNode> nodes;  // deque: stable node addresses
    // Buckets by full structural hash; the short chains resolve by deep
    // compare exactly once, at interning.
    std::unordered_map<std::size_t, std::vector<const detail::ExprNode*>> index;
    std::uint64_t next = 0;
    std::size_t bytes = 0;
  };

  std::array<Shard, kShards> shards_;
};

/// Node-level memo for single-variable substitution: a bounded, sharded map
/// (exprId, var, replacementId) -> result handle. Entries can never go stale
/// (nodes are immutable and ids are never reused); the table is enabled and
/// sized through QueryCache::global()'s capacity, so `--no-cache` disables
/// it together with the verdict caches.
std::optional<ExprRef> substituteMemoLookup(const ExprRef& e, VarId v, const ExprRef& r);
void substituteMemoStore(const ExprRef& e, VarId v, const ExprRef& r, const ExprRef& result);

}  // namespace panorama
