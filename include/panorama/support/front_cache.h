// A per-thread, direct-mapped front cache of node pointers, put in front of
// a sharded, append-only interning table (the expression and predicate
// arenas and the atom table).
//
// Why a hit needs no lock: a slot only ever holds a pointer this thread
// already obtained from the table under the shard lock, so the node's
// publication happens-before every later read through the slot. Nodes are
// immutable and never freed, so the pointer and everything it points to
// stay valid for the life of the process. A slot is a hint, never an
// answer: the caller compares the candidate against the slot's node in full
// and falls back to the locked lookup on any mismatch. Every insert, and
// every lookup the slot cannot answer, still takes the shard lock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace panorama {

/// The calling thread's front-cache slot for a value of hash `hash` in the
/// table whose nodes are `Node`s (one 256-slot cache per node type and
/// thread; each node type has exactly one table). DESIGN §4.2 gives the
/// measurements the size comes from.
template <class Node>
const Node*& frontCacheSlot(std::size_t hash) {
  static constexpr unsigned kSlotBits = 8;
  thread_local std::array<const Node*, std::size_t{1} << kSlotBits> slots{};
  // Fibonacci hashing: the table's shard index already uses the low bits.
  return slots[(static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ull) >> (64 - kSlotBits)];
}

}  // namespace panorama
