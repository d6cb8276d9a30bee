// The atom table. Since the hash-consed arena refactor the expression and
// predicate keys are the arena ids themselves (see symbolic/arena.h for the
// authoritative key layout); atoms are interned here, by their exact fields
// (never by raw hash), so distinct atoms always receive distinct keys. The
// sub-expression fields are interned handles, so comparing two atoms'
// fields is O(1), not a deep structural walk.
#include "panorama/predicate/intern.h"

#include <array>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_set>

#include "panorama/support/front_cache.h"

namespace panorama {

namespace {

using detail::AtomEntry;

/// Field-wise identity of two entries' atoms (the index's equality).
struct SameFields {
  bool operator()(const AtomEntry* x, const AtomEntry* y) const noexcept {
    const Atom& a = x->atom;
    const Atom& b = y->atom;
    return a.kind() == b.kind() && a.op() == b.op() && a.expr() == b.expr() &&
           a.logical() == b.logical() && a.logicalValue() == b.logicalValue() &&
           a.predArray() == b.predArray() && a.boundVar() == b.boundVar() &&
           a.predRhs() == b.predRhs() && a.forallLo() == b.forallLo() &&
           a.forallUp() == b.forallUp();
  }
};

struct FieldHash {
  std::size_t operator()(const AtomEntry* e) const noexcept { return e->atom.hashValue(); }
};

/// Sharded, append-only table of atom entries. A thread's repeat lookups
/// are answered by its front cache (support/front_cache.h) without a lock;
/// other lookups take the shard's shared lock, insertions its exclusive
/// lock. Nothing else locks, so no lock is held while an atom's negation is
/// derived.
class AtomTable {
 public:
  const AtomEntry& intern(const Atom& a) {
    const std::size_t h = a.hashValue();
    const AtomEntry probe(a, 0);
    const AtomEntry*& front = frontCacheSlot<AtomEntry>(h);
    if (front && SameFields{}(front, &probe)) return *front;
    const std::size_t s = h % kShards;
    Shard& shard = shards_[s];
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      if (auto it = shard.index.find(&probe); it != shard.index.end()) return *(front = *it);
    }
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    if (auto it = shard.index.find(&probe); it != shard.index.end()) return *(front = *it);
    const std::uint64_t key = (shard.next++ << kShardBits) | static_cast<std::uint64_t>(s);
    const AtomEntry& entry = shard.entries.emplace_back(a, key);
    shard.index.insert(&entry);
    return *(front = &entry);
  }

  void storeNegation(const AtomEntry& e, const AtomEntry& neg) {
    const AtomEntry* unset = nullptr;
    if (e.negation.compare_exchange_strong(unset, &neg, std::memory_order_acq_rel))
      negations_.fetch_add(1, std::memory_order_relaxed);
  }

  AtomTableStats stats() const {
    AtomTableStats out;
    for (const Shard& shard : shards_) {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      out.distinct += shard.entries.size();
      // Entries, plus the index's node (two pointers) and bucket slot.
      out.bytes += shard.entries.size() * (sizeof(AtomEntry) + 2 * sizeof(void*)) +
                   shard.index.bucket_count() * sizeof(void*);
    }
    out.negations = negations_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShards = 1u << kShardBits;
  struct Shard {
    mutable std::shared_mutex mutex;
    std::deque<AtomEntry> entries;  // deque: stable entry addresses
    std::unordered_set<const AtomEntry*, FieldHash, SameFields> index;
    std::uint64_t next = 0;
  };
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> negations_{0};
};

AtomTable& atomTable() {
  static AtomTable t;
  return t;
}

}  // namespace

namespace detail {

const AtomEntry& internAtom(const Atom& a) { return atomTable().intern(a); }

void storeNegation(const AtomEntry& e, const AtomEntry& neg) { atomTable().storeNegation(e, neg); }

}  // namespace detail

AtomTableStats atomTableStats() { return atomTable().stats(); }

std::uint64_t predKey(const PredRef& p) { return p.id(); }

}  // namespace panorama
