// One bounded, sharded memo table for the symbolic queries the analyzer
// asks over and over as guards flow through the HSG (§5.2): Fourier-Motzkin
// feasibility, atom-pair and implication verdicts (QueryCache), the
// Pred::simplify and ExprRef::substitute results, and the memoized FM
// eliminator's canonical systems are all ShardedMemo instances.
//
// A hit allocates nothing: callers build a key's words on the stack or in a
// reused per-thread buffer and look them up as a borrowed word range
// (heterogeneous lookup through the transparent WordHash/WordEq); only a
// miss copies the words into an owned Key, once, for store().
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "panorama/support/diagnostics.h"

namespace panorama {

/// Counters of one memo table.
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;

  double hitRate() const {
    const double total = static_cast<double>(hits + misses);
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// FNV-1a over a sequence of 64-bit words: the hash of every memo key.
/// Transparent, so a borrowed word range hashes like the stored key.
struct WordHash {
  using is_transparent = void;
  template <class Words>
  std::size_t operator()(const Words& words) const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t w : words) {
      h ^= w;
      h *= 0x100000001b3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Word-wise equality of any two word ranges (a stored key against a
/// borrowed candidate); transparent like WordHash.
struct WordEq {
  using is_transparent = void;
  template <class A, class B>
  bool operator()(const A& a, const B& b) const {
    return std::equal(std::begin(a), std::end(a), std::begin(b), std::end(b));
  }
};

/// The memo table: 16 mutex-guarded shards (a key's shard is picked by its
/// hash) under one FIFO bound. `capacity` is read on every call, so
/// resizing it applies at once; 0 disables the memo — lookups miss without
/// counting and stores are dropped. Each key is stored once: the FIFO
/// queue points at the map's own keys, whose nodes never move.
///
/// Why one policy suffices. A memoized value is a pure function of its key,
/// so an entry stored under one set of analysis options is still the right
/// answer under any other, and nothing ever has to be invalidated:
///   * FM feasibility keys (QueryCache::FmContradictory) carry the
///     constraints and the tier bit. The tier may answer False (verified
///     witness) where the classic engine answers Unknown, so the two modes
///     keep apart. The FM budget is an engine constant, so no key needs it.
///   * Atom-pair, implication and simplify keys are interned ids. Those
///     families act only on True, and the tier reproduces True bit for bit,
///     so they need no tier bit.
///   * Substitute keys are three ids: expression, variable, replacement.
///   * FM elimination keys are canonical systems plus the budget, and the
///     memoized eliminator is verdict-identical to the classic one
///     (fm_incremental.h).
/// Keys are compared whole, never by hash alone, so two queries cannot
/// alias; eviction only forgets, and the next lookup recomputes and
/// re-stores the identical value. Results are therefore the same at every
/// capacity, in every query order and thread interleaving.
template <class Key, class Value, class Hash = WordHash>
class ShardedMemo {
 public:
  static constexpr std::size_t kShards = 16;

  explicit ShardedMemo(const std::atomic<std::size_t>& capacity) : capacity_(capacity) {}

  /// Looks up `words`: a Key, or (with the transparent WordHash) any
  /// borrowed word range equal to a stored key, so a hit builds no Key.
  template <class Words = Key>
  std::optional<Value> lookup(const Words& words) {
    if (capacity_.load(std::memory_order_acquire) == 0) return std::nullopt;
    Shard& shard = shardFor(words);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(words);
    if (it == shard.map.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    return it->second;
  }

  /// Stores a value, evicting the shard's oldest entries past its share of
  /// the capacity. A key already present keeps its entry: a racing thread
  /// stored the identical value.
  void store(Key key, Value value) {
    const std::size_t capacity = capacity_.load(std::memory_order_acquire);
    if (capacity == 0) return;
    const std::size_t perShard = std::max<std::size_t>(capacity / kShards, 1);
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, inserted] = shard.map.try_emplace(std::move(key), std::move(value));
    if (!inserted) return;
    shard.order.push_back(&it->first);
    while (shard.map.size() > perShard) {
      shard.map.erase(shard.map.find(*shard.order.front()));
      shard.order.pop_front();
      ++shard.evictions;
    }
  }

  MemoStats stats() const {
    MemoStats out;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      out.hits += shard.hits;
      out.misses += shard.misses;
      out.evictions += shard.evictions;
      out.entries += shard.map.size();
    }
    return out;
  }

  /// Drops every entry and zeroes the counters.
  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.map.clear();
      shard.order.clear();
      shard.hits = shard.misses = shard.evictions = 0;
    }
  }

  /// The shard `key` routes to; lets tests pin eviction order on one shard.
  static std::size_t shardOf(const Key& key) { return Hash{}(key) % kShards; }

 private:
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, Value, Hash, WordEq> map;
    std::deque<const Key*> order;  ///< insertion order; victims leave from the front
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  template <class Words>
  Shard& shardFor(const Words& words) const {
    return shards_[Hash{}(words) % kShards];
  }

  const std::atomic<std::size_t>& capacity_;
  mutable std::array<Shard, kShards> shards_;
};

/// The process-wide verdict cache every analysis thread shares. Its
/// capacity is the process memo capacity: it also bounds (and at 0 turns
/// off) the simplify and substitute memos. Whoever owns the process sets it
/// once — panorama_driver from `--no-cache`, tests that need an uncached
/// reference — and sessions never touch it.
class QueryCache {
 public:
  /// Namespaces for the memoized query families. Every key starts with its
  /// tag, so families can never collide.
  enum Tag : std::uint64_t {
    FmContradictory = 1,  ///< ConstraintSet::contradictory
    AtomsContradict = 2,  ///< atomsContradict (also serves atomImplies)
    PredImplies = 3,      ///< Pred::implies
  };
  using Key = std::vector<std::uint64_t>;  ///< tag, then the query words
  using Stats = MemoStats;

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  static QueryCache& global();

  /// Sets the process memo capacity (0 disables memoization) and drops the
  /// verdicts and counters.
  void configure(std::size_t capacity);
  std::size_t capacity() const { return capacity_.load(std::memory_order_acquire); }
  bool enabled() const { return capacity() > 0; }
  /// The capacity the simplify and substitute memos share with this cache.
  const std::atomic<std::size_t>& sharedCapacity() const { return capacity_; }

  /// A Key, or any borrowed word range (a stack array, a reused buffer).
  template <class Words = Key>
  std::optional<Truth> lookup(const Words& words) {
    return verdicts_.lookup(words);
  }
  void store(Key key, Truth verdict) { verdicts_.store(std::move(key), verdict); }
  Stats stats() const { return verdicts_.stats(); }
  /// Drops verdicts and counters but keeps the capacity.
  void clear() { verdicts_.clear(); }

 private:
  std::atomic<std::size_t> capacity_{kDefaultCapacity};
  ShardedMemo<Key, Truth> verdicts_{capacity_};
};

/// One-line rendering of the global cache counters for reports and benches.
std::string formatQueryCacheStats(const QueryCache::Stats& stats);

}  // namespace panorama
