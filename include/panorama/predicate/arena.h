// The hash-consing arena behind PredRef — the predicate-layer twin of
// symbolic/arena.h (which also holds the authoritative comment on the
// id layout shared by both arenas: shard index in the low bits, per-shard
// sequence above). Append-only, process lifetime, stable node addresses;
// atom equality inside the dedup compare is O(1) because atoms hold interned
// expression handles. Hits allocate nothing and usually take no lock, as in
// the expression arena: `intern` compares a borrowed candidate in place,
// copies it only on a miss, and a per-thread front cache
// (support/front_cache.h) answers a thread's repeat hits.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "panorama/predicate/predicate.h"

namespace panorama {

class PredArena {
 public:
  /// The process-wide arena every analysis thread shares.
  static PredArena& global();

  /// Interns a *canonical* clause list (see predicate.h for the invariant)
  /// and returns the unique handle. The clauses are copied only when the
  /// value is new.
  PredRef intern(std::span<const Disjunct> clauses, bool unknown);

  /// Arena occupancy for `--stats` (see ExprArena::Stats).
  struct Stats {
    std::size_t distinct = 0;
    std::size_t bytes = 0;
    std::size_t minShard = 0;
    std::size_t maxShard = 0;
  };
  Stats stats() const;

 private:
  // One instance only: the per-thread front cache is keyed by node type.
  PredArena() = default;

  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShards = 1u << kShardBits;

  struct Shard {
    mutable std::shared_mutex mutex;
    std::deque<detail::PredNode> nodes;  // deque: stable node addresses
    std::unordered_map<std::size_t, std::vector<const detail::PredNode*>> index;
    std::uint64_t next = 0;
    std::size_t bytes = 0;
  };

  std::array<Shard, kShards> shards_;
};

}  // namespace panorama
