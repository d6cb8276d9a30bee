#include "panorama/predicate/arena.h"

#include <algorithm>
#include <mutex>

#include "panorama/support/front_cache.h"

namespace panorama {

namespace {

std::size_t hashClauses(std::span<const Disjunct> clauses, bool unknown) {
  std::size_t h = unknown ? 0x9e3779b9u : 0;
  for (const Disjunct& d : clauses) {
    h = h * 131 + d.atoms.size();
    for (const Atom& a : d.atoms) h = h * 131 + a.hashValue();
  }
  return h;
}

std::size_t footprint(const detail::PredNode& n) {
  std::size_t b = sizeof(detail::PredNode) + n.clauses.capacity() * sizeof(Disjunct);
  for (const Disjunct& d : n.clauses) b += d.atoms.capacity() * sizeof(Atom);
  return b;
}

}  // namespace

PredArena& PredArena::global() {
  static PredArena arena;
  return arena;
}

PredRef PredArena::intern(std::span<const Disjunct> clauses, bool unknown) {
  const std::size_t h = hashClauses(clauses, unknown);
  auto same = [&](const detail::PredNode* n) {
    return n->hash == h && n->unknown == unknown &&
           std::equal(n->clauses.begin(), n->clauses.end(), clauses.begin(), clauses.end());
  };
  const detail::PredNode*& front = frontCacheSlot<detail::PredNode>(h);
  if (front && same(front)) return PredRef(front);
  const std::size_t s = h % kShards;
  Shard& shard = shards_[s];
  auto find = [&]() -> const detail::PredNode* {
    auto it = shard.index.find(h);
    if (it == shard.index.end()) return nullptr;
    for (const detail::PredNode* n : it->second)
      if (same(n)) return n;
    return nullptr;
  };
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    if (const detail::PredNode* n = find()) return PredRef(front = n);
  }
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  if (const detail::PredNode* n = find()) return PredRef(front = n);
  detail::PredNode& node = shard.nodes.emplace_back();
  node.clauses.assign(clauses.begin(), clauses.end());
  node.unknown = unknown;
  node.hash = h;
  node.id = (shard.next++ << kShardBits) | static_cast<std::uint64_t>(s);
  shard.index[h].push_back(&node);
  shard.bytes += footprint(node);
  return PredRef(front = &node);
}

PredArena::Stats PredArena::stats() const {
  Stats out;
  bool first = true;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    const std::size_t n = shard.nodes.size();
    out.distinct += n;
    out.bytes += shard.bytes;
    out.minShard = first ? n : std::min(out.minShard, n);
    out.maxShard = first ? n : std::max(out.maxShard, n);
    first = false;
  }
  return out;
}

}  // namespace panorama
