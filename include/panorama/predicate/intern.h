// The atom table, and canonical 64-bit keys for atoms and predicates, used
// by the memo caches.
//
// A predicate's key is simply its arena id (PredRef::id(): structural
// equality <=> id equality, O(1)). Atoms are interned in the atom table, the
// process-wide table of `AtomEntry` nodes (support/intern_table.h, which
// states the id layout): every Atom factory looks its canonical result up by
// the exact field tuple (kind, op, interned sub-expression ids, flags) and
// carries the entry's id as its key, so atomKey() (atom.h) is a field read
// and key equality is structural equality — memo-cache entries keyed this
// way can never confuse two different queries.
//
// The entry also stores the atom's negation once Atom::negated() has
// derived it. Like the arenas, the table is append-only and stays on under
// --no-cache.
#pragma once

#include <atomic>
#include <cstdint>

#include "panorama/predicate/predicate.h"

namespace panorama {

namespace detail {

/// One atom-table entry, never moved or freed: the canonical atom (its key
/// and entry set to this entry's) and, once derived, its negation's entry.
struct AtomEntry {
  /// A blank entry, as the table builds it. Its atom is deliberately not
  /// `Atom()`, which interns the zero atom into this very table.
  AtomEntry() : atom(Atom::Kind::Rel) {}
  /// Makes this entry the home of `a`, under `key`.
  void hold(const Atom& a, std::uint64_t key) {
    atom = a;
    atom.key_ = key;
    atom.entry_ = this;
  }
  Atom atom;
  mutable std::atomic<const AtomEntry*> negation{nullptr};
};

/// The entry of the atom whose fields equal `a`'s, added if new.
const AtomEntry& internAtom(const Atom& a);
/// Stores `neg` as the negation of `e`. Racing first callers derive the same
/// atom, hence the same entry; the first store wins.
void storeNegation(const AtomEntry& e, const AtomEntry& neg);

}  // namespace detail

/// Atom-table occupancy for `--stats` and the daemon's status: distinct
/// atoms, atoms whose negation is stored, approximate resident bytes.
struct AtomTableStats {
  std::size_t distinct = 0;
  std::size_t negations = 0;
  std::size_t bytes = 0;
};
AtomTableStats atomTableStats();

/// Canonical key of a predicate (clauses + the Δ flag): the arena id.
std::uint64_t predKey(const PredRef& p);

}  // namespace panorama
