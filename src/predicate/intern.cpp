// The atom table. Atoms are interned by their exact fields (never by raw
// hash), so distinct atoms always receive distinct keys. The sub-expression
// fields are interned handles, so comparing two atoms' fields is O(1), not a
// deep structural walk. Only the table's own lookups lock, so no lock is held
// while an atom's negation is derived.
#include "panorama/predicate/intern.h"

#include "panorama/support/intern_table.h"

namespace panorama {

namespace {

using detail::AtomEntry;
using AtomTable = InternTable<AtomEntry>;

/// Field-wise identity of two atoms (the table's equality).
bool sameFields(const Atom& a, const Atom& b) {
  return a.kind() == b.kind() && a.op() == b.op() && a.expr() == b.expr() &&
         a.logical() == b.logical() && a.logicalValue() == b.logicalValue() &&
         a.predArray() == b.predArray() && a.boundVar() == b.boundVar() &&
         a.predRhs() == b.predRhs() && a.forallLo() == b.forallLo() &&
         a.forallUp() == b.forallUp();
}

std::atomic<std::size_t> storedNegations{0};

}  // namespace

namespace detail {

const AtomEntry& internAtom(const Atom& a) {
  return AtomTable::global().intern(
      a.hashValue(), [&](const AtomEntry& e) { return sameFields(e.atom, a); },
      [&](AtomEntry& e, std::uint64_t key) {
        e.hold(a, key);
        return sizeof(AtomEntry);
      });
}

void storeNegation(const AtomEntry& e, const AtomEntry& neg) {
  const AtomEntry* unset = nullptr;
  if (e.negation.compare_exchange_strong(unset, &neg, std::memory_order_acq_rel))
    storedNegations.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

AtomTableStats atomTableStats() {
  const AtomTable::Stats table = AtomTable::global().stats();
  return {table.distinct, storedNegations.load(std::memory_order_relaxed), table.bytes};
}

std::uint64_t predKey(const PredRef& p) { return p.id(); }

}  // namespace panorama
