#include "panorama/symbolic/arena.h"

#include <algorithm>
#include <array>
#include <mutex>

#include "panorama/support/front_cache.h"
#include "panorama/support/memo_cache.h"

namespace panorama {

namespace {

std::size_t hashTerms(std::span<const Term> terms, bool poisoned) {
  std::size_t h = poisoned ? 0x9e3779b9u : 0;
  for (const Term& t : terms) {
    h = h * 131 + static_cast<std::size_t>(t.coef);
    for (VarId v : t.vars) h = h * 131 + v.value;
  }
  return h;
}

std::size_t footprint(const detail::ExprNode& n) {
  std::size_t b = sizeof(detail::ExprNode) + n.terms.capacity() * sizeof(Term);
  for (const Term& t : n.terms) b += t.vars.capacity() * sizeof(VarId);
  return b;
}

}  // namespace

ExprArena& ExprArena::global() {
  static ExprArena arena;
  return arena;
}

ExprRef ExprArena::intern(std::span<const Term> terms, bool poisoned) {
  const std::size_t h = hashTerms(terms, poisoned);
  auto same = [&](const detail::ExprNode* n) {
    return n->hash == h && n->poisoned == poisoned &&
           std::equal(n->terms.begin(), n->terms.end(), terms.begin(), terms.end());
  };
  const detail::ExprNode*& front = frontCacheSlot<detail::ExprNode>(h);
  if (front && same(front)) return ExprRef(front);
  const std::size_t s = h % kShards;
  Shard& shard = shards_[s];
  auto find = [&]() -> const detail::ExprNode* {
    auto it = shard.index.find(h);
    if (it == shard.index.end()) return nullptr;
    for (const detail::ExprNode* n : it->second)
      if (same(n)) return n;
    return nullptr;
  };
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    if (const detail::ExprNode* n = find()) return ExprRef(front = n);
  }
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  if (const detail::ExprNode* n = find()) return ExprRef(front = n);
  detail::ExprNode& node = shard.nodes.emplace_back();
  node.terms.assign(terms.begin(), terms.end());
  node.poisoned = poisoned;
  node.hash = h;
  node.id = (shard.next++ << kShardBits) | static_cast<std::uint64_t>(s);
  shard.index[h].push_back(&node);
  shard.bytes += footprint(node);
  return ExprRef(front = &node);
}

ExprArena::Stats ExprArena::stats() const {
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

namespace {

/// ExprRef::substitute results keyed on (expression id, variable, replacement
/// id), sized by the process memo capacity like the verdict cache.
ShardedMemo<std::array<std::uint64_t, 3>, ExprRef>& substituteMemo() {
  static ShardedMemo<std::array<std::uint64_t, 3>, ExprRef> memo(
      QueryCache::global().sharedCapacity());
  return memo;
}

}  // namespace

std::optional<ExprRef> substituteMemoLookup(const ExprRef& e, VarId v, const ExprRef& r) {
  return substituteMemo().lookup({e.id(), v.value, r.id()});
}

void substituteMemoStore(const ExprRef& e, VarId v, const ExprRef& r, const ExprRef& result) {
  substituteMemo().store({e.id(), v.value, r.id()}, result);
}

}  // namespace panorama
