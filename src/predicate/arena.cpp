#include "panorama/predicate/arena.h"

#include <algorithm>

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

PredRef internPred(std::span<const Disjunct> clauses, bool unknown) {
  const std::size_t h = hashClauses(clauses, unknown);
  return PredRef(&PredArena::global().intern(
      h,
      [&](const detail::PredNode& n) {
        return n.hash == h && n.unknown == unknown &&
               std::equal(n.clauses.begin(), n.clauses.end(), clauses.begin(), clauses.end());
      },
      [&](detail::PredNode& n, std::uint64_t id) {
        n.clauses.assign(clauses.begin(), clauses.end());
        n.unknown = unknown;
        n.hash = h;
        n.id = id;
        return footprint(n);
      }));
}

}  // namespace panorama
